//! Error type for the crowdsourcing substrate.

use std::fmt;

/// Errors produced by the crowd simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum CrowdError {
    /// An accuracy parameter was outside the paper's `[0.5, 1]` model range.
    AccuracyOutOfRange(f64),
    /// The worker pool is empty but answers were requested.
    NoWorkers,
    /// Mismatched lengths between a task batch and its ground-truth vector.
    LengthMismatch {
        /// Number of tasks submitted.
        tasks: usize,
        /// Number of ground-truth labels supplied.
        truths: usize,
    },
    /// A batched group referenced an answer stream that was never seeded.
    UnknownStream {
        /// Stream index requested by the batch group.
        stream: usize,
        /// Number of streams actually available.
        streams: usize,
    },
}

impl fmt::Display for CrowdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrowdError::AccuracyOutOfRange(p) => {
                write!(f, "crowd accuracy {p} outside the model range [0.5, 1]")
            }
            CrowdError::NoWorkers => write!(f, "worker pool is empty"),
            CrowdError::LengthMismatch { tasks, truths } => {
                write!(f, "{tasks} tasks but {truths} ground-truth labels")
            }
            CrowdError::UnknownStream { stream, streams } => {
                write!(
                    f,
                    "batch group references answer stream {stream} but only {streams} were seeded"
                )
            }
        }
    }
}

impl std::error::Error for CrowdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(CrowdError::AccuracyOutOfRange(0.3)
            .to_string()
            .contains("0.3"));
        assert!(CrowdError::LengthMismatch {
            tasks: 2,
            truths: 3
        }
        .to_string()
        .contains('2'));
    }
}
