//! Answer models: how likely a worker answers a task correctly.

use crate::task::{Task, TaskClass};
use crate::worker::{Worker, WorkerId};
use serde::{Deserialize, Serialize};

/// A collected crowd answer to one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Answer {
    /// The answered task.
    pub task: crate::task::TaskId,
    /// The worker who produced the judgment.
    pub worker: WorkerId,
    /// The judgment: `true` = "the fact is true".
    pub value: bool,
}

/// Probability that a given worker answers a given task correctly.
///
/// Implementations must return values in `(0, 1]`; the platform draws the
/// answer as `truth` with this probability and `!truth` otherwise — exactly
/// the Bernoulli channel of the paper's Definition 2.
pub trait AnswerModel {
    /// Probability of a correct judgment for `(worker, task)`.
    fn prob_correct(&self, worker: &Worker, task: &Task) -> f64;

    /// The accuracy a groundtruth pre-test over clean tasks would estimate
    /// for an average worker. Used by experiments that must *assume* a `Pc`.
    fn nominal_accuracy(&self) -> f64;
}

/// The paper's Definition 2: every (worker, task) pair shares one fixed
/// accuracy `Pc`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformAccuracy {
    /// The shared crowd accuracy `Pc ∈ [0.5, 1]`.
    pub pc: f64,
}

impl UniformAccuracy {
    /// Creates the model, clamping into the paper's `[0.5, 1]` model range.
    pub fn new(pc: f64) -> UniformAccuracy {
        UniformAccuracy {
            pc: pc.clamp(0.5, 1.0),
        }
    }
}

impl AnswerModel for UniformAccuracy {
    fn prob_correct(&self, _worker: &Worker, _task: &Task) -> f64 {
        self.pc
    }

    fn nominal_accuracy(&self) -> f64 {
        self.pc
    }
}

/// Per-statement-class accuracies reproducing the paper's Section V-D
/// observations: confusing statements pull worker accuracy toward (or below)
/// chance regardless of the base `Pc`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassAccuracy {
    /// Accuracy on clean statements (the nominal `Pc`).
    pub clean: f64,
    /// Accuracy on reordered-but-true lists ("Wrong Order": high diversity
    /// of answers; many false negatives).
    pub wrong_order: f64,
    /// Accuracy on false lists with added organisation info ("more than
    /// 40 % of workers consider such a statement as true" → accuracy < 0.6).
    pub additional_info: f64,
    /// Accuracy on misspelled lists ("correct rate … even lower than 50 %").
    pub misspelling: f64,
}

impl ClassAccuracy {
    /// The paper-calibrated default for a given clean-task accuracy.
    ///
    /// Section V-D: wrong-order statements draw highly diverse answers
    /// (≈ 0.55), additional-info statements fool > 40 % of workers (≈ 0.58)
    /// and misspellings dip below chance (≈ 0.45).
    pub fn paper_defaults(clean: f64) -> ClassAccuracy {
        ClassAccuracy {
            clean: clean.clamp(0.5, 1.0),
            wrong_order: 0.55,
            additional_info: 0.58,
            misspelling: 0.45,
        }
    }

    /// Accuracy for one class.
    pub fn for_class(&self, class: TaskClass) -> f64 {
        match class {
            TaskClass::Clean => self.clean,
            TaskClass::WrongOrder => self.wrong_order,
            TaskClass::AdditionalInfo => self.additional_info,
            TaskClass::Misspelling => self.misspelling,
        }
    }
}

impl AnswerModel for ClassAccuracy {
    fn prob_correct(&self, _worker: &Worker, task: &Task) -> f64 {
        self.for_class(task.class).clamp(0.01, 1.0)
    }

    fn nominal_accuracy(&self) -> f64 {
        self.clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn worker(skill: f64) -> Worker {
        Worker {
            id: WorkerId(0),
            skill,
        }
    }

    #[test]
    fn uniform_accuracy_ignores_worker_and_task() {
        let m = UniformAccuracy::new(0.8);
        let t = Task::new(0, "q").with_class(TaskClass::Misspelling);
        assert_eq!(m.prob_correct(&worker(0.99), &t), 0.8);
        assert_eq!(m.nominal_accuracy(), 0.8);
        // Clamped into the model range.
        assert_eq!(UniformAccuracy::new(0.2).pc, 0.5);
        assert_eq!(UniformAccuracy::new(1.7).pc, 1.0);
    }

    #[test]
    fn class_accuracy_paper_defaults_degrade_confusing_classes() {
        let m = ClassAccuracy::paper_defaults(0.86);
        let clean = Task::new(0, "q");
        let miss = Task::new(1, "q").with_class(TaskClass::Misspelling);
        let order = Task::new(2, "q").with_class(TaskClass::WrongOrder);
        let info = Task::new(3, "q").with_class(TaskClass::AdditionalInfo);
        let w = worker(0.86);
        assert!(m.prob_correct(&w, &clean) > m.prob_correct(&w, &order));
        assert!(m.prob_correct(&w, &order) > m.prob_correct(&w, &miss));
        // Misspellings are below chance, as the paper reports.
        assert!(m.prob_correct(&w, &miss) < 0.5);
        assert!(m.prob_correct(&w, &info) < 0.6);
        assert_eq!(m.nominal_accuracy(), 0.86);
    }
}
