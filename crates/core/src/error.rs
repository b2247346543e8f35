//! Error type for the CrowdFusion core.

use crowdfusion_crowd::CrowdError;
use crowdfusion_jointdist::JointError;
use std::fmt;

/// Errors produced by task selection, answer merging and the round driver.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A crowd accuracy outside the paper's `[0.5, 1]` model range.
    InvalidAccuracy(f64),
    /// `k` (or a task index) exceeded the number of facts.
    TaskOutOfRange {
        /// Offending index or requested size.
        index: usize,
        /// Number of facts available.
        n: usize,
    },
    /// Too many facts/tasks for dense answer-space operations.
    TooManyFacts {
        /// Requested fact count.
        requested: usize,
        /// Supported maximum.
        limit: usize,
    },
    /// An empty task set where at least one task is required.
    EmptyTaskSet,
    /// A fact index listed twice where each fact may appear at most once:
    /// in one round's task batch, or across an entity's correlation groups.
    DuplicateTask(usize),
    /// Mismatched answers/tasks lengths.
    AnswerLengthMismatch {
        /// Number of tasks.
        tasks: usize,
        /// Number of answers.
        answers: usize,
    },
    /// The facts-of-interest set is empty (query-based mode).
    EmptyInterestSet,
    /// An answer was absorbed while no round is open on the session.
    NoOpenRound,
    /// An absorbed answer names a task id this session never published.
    UnknownAnswerTask {
        /// The offending task id.
        task: u64,
    },
    /// A session id the registry does not know.
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// A session snapshot violates its own invariants (corrupt or
    /// hand-edited snapshot file).
    InvalidSnapshot(String),
    /// An underlying probability error.
    Joint(JointError),
    /// An underlying crowd-simulation error.
    Crowd(CrowdError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidAccuracy(pc) => {
                write!(f, "crowd accuracy {pc} outside the model range [0.5, 1]")
            }
            CoreError::TaskOutOfRange { index, n } => {
                write!(f, "task index/size {index} out of range for {n} facts")
            }
            CoreError::TooManyFacts { requested, limit } => {
                write!(f, "{requested} facts exceed the dense limit of {limit}")
            }
            CoreError::EmptyTaskSet => write!(f, "task set is empty"),
            CoreError::DuplicateTask(i) => write!(f, "fact index {i} listed twice"),
            CoreError::AnswerLengthMismatch { tasks, answers } => {
                write!(f, "{tasks} tasks but {answers} answers")
            }
            CoreError::EmptyInterestSet => write!(f, "facts-of-interest set is empty"),
            CoreError::NoOpenRound => write!(f, "no round is open on this session"),
            CoreError::UnknownAnswerTask { task } => {
                write!(f, "answer names unpublished task id {task}")
            }
            CoreError::UnknownSession { session } => {
                write!(f, "unknown session id {session}")
            }
            CoreError::InvalidSnapshot(reason) => {
                write!(f, "invalid session snapshot: {reason}")
            }
            CoreError::Joint(e) => write!(f, "probability error: {e}"),
            CoreError::Crowd(e) => write!(f, "crowd error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Joint(e) => Some(e),
            CoreError::Crowd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JointError> for CoreError {
    fn from(e: JointError) -> CoreError {
        CoreError::Joint(e)
    }
}

impl From<CrowdError> for CoreError {
    fn from(e: CrowdError) -> CoreError {
        CoreError::Crowd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::InvalidAccuracy(0.2);
        assert!(e.to_string().contains("0.2"));
        assert!(e.source().is_none());
        let e: CoreError = JointError::ZeroMass.into();
        assert!(e.source().is_some());
        let e: CoreError = CrowdError::NoWorkers.into();
        assert!(e.to_string().contains("crowd"));
    }
}
