//! Task selection: choosing the size-`k` set of facts to ask the crowd.
//!
//! The objective is `T_best = argmax_T H(T)` over the answer distribution
//! (Equation 4). Finding the optimum is NP-hard (Theorem 1, reduction from
//! PARTITION), so the paper proposes a `(1 − 1/e)`-approximate greedy
//! (Algorithm 1) with two accelerations: upper-bound pruning (Theorem 3)
//! and answer-table preprocessing with memoised partition refinement
//! (Algorithm 2). This module implements all of them plus the exhaustive
//! OPT and the random baseline used in the evaluation.

pub mod engine;
mod greedy;
mod opt;
mod random;

pub use engine::ScatterCache;
pub use greedy::{GreedySelector, PruneBound};
pub use opt::OptSelector;
pub use random::RandomSelector;

use crate::answers::AnswerEvaluator;
use crate::error::CoreError;
use crowdfusion_jointdist::JointDist;
use rand::RngCore;

/// A strategy that picks up to `k` distinct facts to ask the crowd.
///
/// Implementations may return fewer than `k` tasks when no further task
/// improves the utility (the paper's `K* < k` early exit, Theorem 2 shows
/// this only happens when every remaining fact is certain and `Pc = 1`).
///
/// `Sync` is a supertrait so one selector can be shared by the
/// entity-sharded experiment runner's workers
/// ([`crate::system::Experiment::run_sharded`]); selectors are
/// configuration-only values, so this costs implementations nothing.
pub trait TaskSelector: Sync {
    /// Human-readable selector name for reports.
    fn name(&self) -> String;

    /// Selects up to `min(k, n)` distinct fact indices.
    fn select(
        &self,
        dist: &JointDist,
        pc: f64,
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, CoreError>;
}

/// The named selector configurations benchmarked in the paper's Table V,
/// plus our butterfly-evaluator variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// Exhaustive search over all C(n, k) task sets.
    Opt,
    /// Plain greedy with the paper's brute-force marginal computation.
    Approx,
    /// Greedy + Theorem 3 pruning (the paper's literal bound).
    ApproxPrune,
    /// Greedy + Algorithm 2 preprocessing.
    ApproxPre,
    /// Greedy + pruning + preprocessing.
    ApproxPrunePre,
    /// Greedy with the butterfly evaluator (our engineering improvement).
    ApproxFast,
    /// Uniform-random baseline.
    Random,
}

impl SelectorKind {
    /// All Table V configurations in presentation order.
    pub const TABLE_V: [SelectorKind; 5] = [
        SelectorKind::Opt,
        SelectorKind::Approx,
        SelectorKind::ApproxPrune,
        SelectorKind::ApproxPre,
        SelectorKind::ApproxPrunePre,
    ];

    /// Builds the corresponding selector object.
    pub fn build(self) -> Box<dyn TaskSelector> {
        match self {
            SelectorKind::Opt => Box::new(OptSelector::new(AnswerEvaluator::Naive)),
            SelectorKind::Approx => Box::new(GreedySelector::paper_approx()),
            // Dominance pruning is the only rule that reproduces the
            // paper's near-constant Approx.&Prune running time; the
            // literal Theorem 3 bound almost never fires (see greedy.rs).
            SelectorKind::ApproxPrune => {
                Box::new(GreedySelector::paper_approx().with_prune(PruneBound::Dominance))
            }
            // The preprocessing configurations build the answer table with
            // the butterfly transform (the paper treats that step as cheap,
            // offline and MapReduce-parallel); the selection itself uses
            // the paper's Algorithm 2 partition refinement.
            SelectorKind::ApproxPre => Box::new(
                GreedySelector::paper_approx()
                    .with_evaluator(AnswerEvaluator::Butterfly)
                    .with_preprocess(),
            ),
            SelectorKind::ApproxPrunePre => Box::new(
                GreedySelector::paper_approx()
                    .with_evaluator(AnswerEvaluator::Butterfly)
                    .with_prune(PruneBound::Dominance)
                    .with_preprocess(),
            ),
            SelectorKind::ApproxFast => Box::new(GreedySelector::fast()),
            SelectorKind::Random => Box::new(RandomSelector),
        }
    }

    /// The label used in Table V / figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SelectorKind::Opt => "OPT",
            SelectorKind::Approx => "Approx.",
            SelectorKind::ApproxPrune => "Approx.&Prune",
            SelectorKind::ApproxPre => "Approx.&Pre.",
            SelectorKind::ApproxPrunePre => "Approx.&Prune&Pre.",
            SelectorKind::ApproxFast => "Approx.(butterfly)",
            SelectorKind::Random => "Random",
        }
    }
}

/// Shared validation for selectors: checks `pc`, clamps `k` to `n`, rejects
/// oversized dense workloads. Returns the effective `k`.
pub(crate) fn validate_selection(dist: &JointDist, pc: f64, k: usize) -> Result<usize, CoreError> {
    crate::validate_pc(pc)?;
    let n = dist.num_vars();
    let k_eff = k.min(n);
    if k_eff > crate::MAX_DENSE_FACTS {
        return Err(CoreError::TooManyFacts {
            requested: k_eff,
            limit: crate::MAX_DENSE_FACTS,
        });
    }
    Ok(k_eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfusion_jointdist::presets::paper_running_example;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kinds_build_and_have_distinct_labels() {
        let mut labels = std::collections::HashSet::new();
        for kind in [
            SelectorKind::Opt,
            SelectorKind::Approx,
            SelectorKind::ApproxPrune,
            SelectorKind::ApproxPre,
            SelectorKind::ApproxPrunePre,
            SelectorKind::ApproxFast,
            SelectorKind::Random,
        ] {
            assert!(labels.insert(kind.label()));
            let selector = kind.build();
            let mut rng = StdRng::seed_from_u64(0);
            let tasks = selector
                .select(&paper_running_example(), 0.8, 2, &mut rng)
                .unwrap();
            assert_eq!(tasks.len(), 2, "{} returned {:?}", selector.name(), tasks);
        }
    }

    #[test]
    fn validate_selection_clamps_and_rejects() {
        let d = paper_running_example();
        assert_eq!(validate_selection(&d, 0.8, 10).unwrap(), 4);
        assert_eq!(validate_selection(&d, 0.8, 2).unwrap(), 2);
        assert!(matches!(
            validate_selection(&d, 0.2, 2),
            Err(CoreError::InvalidAccuracy(_))
        ));
    }
}
