//! CrowdFusion — crowdsourced data fusion refinement (Chen, Chen & Zhang,
//! ICDE 2017).
//!
//! This crate implements the paper's primary contribution: given a joint
//! prior over boolean facts (from any machine-only fusion method) and a
//! noisy crowd with accuracy `Pc`, repeatedly select the size-`k` task set
//! maximising the entropy of the crowd-answer distribution (NP-hard;
//! Theorem 1), ask the crowd, and merge the answers with Bayes' rule until
//! the budget runs out (Figure 1).
//!
//! Layout:
//!
//! * [`model`] — fact triples and the [`model::FactSet`] container;
//! * [`answers`] — the answer distribution of Equation 2 (naive and
//!   butterfly evaluators, one pool-sharded body each), the preprocessed
//!   answer table and the Bayesian merge of Equation 3;
//! * [`selection`] — OPT, the `(1 − 1/e)` greedy (Algorithm 1), Theorem 3
//!   pruning, Algorithm 2 preprocessing and the random baseline;
//! * [`query`] — the query-based extension (Section IV);
//! * [`prior`] — lifting fusion marginals (+ correlation groups) into a
//!   joint prior;
//! * [`session`] — the select–collect–update round engine every driver
//!   steps, offline and served; [`shard`] — the registry of sessions;
//! * [`round`] / [`system`] — round vocabulary, the one-entity driver and
//!   multi-entity experiment orchestration (entity-sharded, batched);
//! * [`metrics`] — utility and F1 bookkeeping;
//! * [`pool`] — the fork–join worker pool every sharded computation runs
//!   on (greedy candidates, preprocessing, entity rounds);
//! * [`selection::engine`] — the cached-scatter incremental evaluator
//!   behind the fast greedy configurations;
//! * [`sched`] — the cross-session budget scheduler primitives (marginal
//!   gain, deterministic gain queue, budget ledger) the serving daemon's
//!   global budget mode is built on.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod allocation;
pub mod answers;
pub mod error;
pub mod hardness;
pub mod metrics;
pub mod model;
pub mod pool;
pub mod prior;
pub mod query;
pub mod round;
pub mod sched;
pub mod selection;
pub mod session;
pub mod shard;
pub mod system;

pub use allocation::{run_global, GlobalBudgetConfig};
pub use answers::{answer_distribution, answer_entropy, posterior, AnswerEvaluator};
pub use error::CoreError;
pub use metrics::{ConfusionCounts, QualityPoint};
pub use model::{Fact, FactSet};
pub use pool::Pool;
pub use query::{run_query_rounds, QueryCurvePoint, QueryGreedySelector};
pub use round::{EntityCase, EntityTrace, RoundConfig, RoundPoint};
pub use sched::{BudgetLedger, GainEntry, GainQueue};
pub use selection::{
    GreedySelector, OptSelector, PruneBound, RandomSelector, SelectorKind, TaskSelector,
};
pub use session::{
    AbsorbReport, EntitySpec, OpenedSession, PublishedRound, PublishedTask, RegistryMetrics,
    RegistrySnapshot, SelectOutcome, SessionSnapshot, SessionState,
};
pub use shard::ShardedRegistry;
pub use system::{assemble_trace, EntitySeries, Experiment, ExperimentTrace, RoundQuality};

/// Maximum number of facts per entity for which dense answer-space
/// operations are permitted (the same bound as
/// [`crowdfusion_jointdist::MAX_DENSE_VARS`]).
pub const MAX_DENSE_FACTS: usize = crowdfusion_jointdist::MAX_DENSE_VARS;

/// Validates a crowd accuracy against the paper's model range `[0.5, 1]`
/// (Definition 2).
pub fn validate_pc(pc: f64) -> Result<(), CoreError> {
    if (0.5..=1.0).contains(&pc) {
        Ok(())
    } else {
        Err(CoreError::InvalidAccuracy(pc))
    }
}

/// Thread-invariance tests of the pool-sharded Equation 2 bodies in
/// [`answers`].
#[cfg(test)]
mod parallel {
    mod tests;
}
