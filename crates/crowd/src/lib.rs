//! Crowdsourcing substrate: a faithful simulator of the paper's crowd model.
//!
//! The CrowdFusion paper runs on gMission, a real crowdsourcing platform, but
//! *models* the crowd as a Bernoulli channel: "the probability that answer
//! given by the crowd is correct is `Pc ∈ [0.5, 1]`" with independent tasks
//! (Definition 2). Every algorithm in the system sees only `(task, answer)`
//! pairs, so a simulator drawing from the same channel exercises the exact
//! same code paths — this is the substitution documented in DESIGN.md.
//!
//! Components:
//!
//! * [`Task`] / [`TaskClass`] — a true/false judgment task about one fact;
//!   classes carry the paper's Section V-D error taxonomy (wrong order,
//!   additional information, misspelling), which degrade crowd accuracy;
//! * [`Worker`] / [`WorkerPool`] — individual workers with their own skill;
//! * [`AnswerModel`] implementations — [`UniformAccuracy`] (Definition 2)
//!   and [`ClassAccuracy`] (per-error-class correct rates measured in
//!   Section V-D, e.g. misspellings answered correctly less than half the
//!   time);
//! * [`CrowdPlatform`] — the gMission stand-in: publishes task batches,
//!   collects one answer per task, keeps a cost ledger; [`RoundBatch`] +
//!   [`AnswerStreams`] batch every entity's tasks of one global round into
//!   a single `publish_batch` round trip with per-entity deterministic
//!   answer streams;
//! * [`estimate_accuracy`] — the paper's "estimate the reliability by a
//!   pre-test with groundtruth" (Section V-C-3).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod accuracy;
pub mod answer;
pub mod error;
pub mod platform;
pub mod replay;
pub mod task;
pub mod worker;

pub use accuracy::{estimate_accuracy, AccuracyEstimate};
pub use answer::{Answer, AnswerModel, ClassAccuracy, UniformAccuracy};
pub use error::CrowdError;
pub use platform::{AnswerStreams, CostLedger, CrowdPlatform};
pub use replay::{dedup_answers, AnswerReplay};
pub use task::{BatchGroup, RoundBatch, Task, TaskClass, TaskId};
pub use worker::{Worker, WorkerId, WorkerPool};
