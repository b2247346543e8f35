//! # CrowdFusion
//!
//! A Rust implementation of **CrowdFusion: A Crowdsourced Approach on Data
//! Fusion Refinement** (Chen, Chen & Zhang, ICDE 2017) — a crowd–machine
//! hybrid system that refines machine-only data-fusion output by asking a
//! noisy crowd the most informative true/false questions.
//!
//! The workspace is organised as one crate per subsystem; this facade
//! re-exports them under stable paths:
//!
//! * [`jointdist`] — joint distributions over Bernoulli facts (the paper's
//!   output sets), entropy, factor-graph priors (dense or importance-sampled
//!   sparse);
//! * [`fusion`] — truth-discovery substrate: claims datasets, majority
//!   voting, CRH (+ the paper's modified CRH), TruthFinder, ACCU,
//!   per-attribute conflict resolvers, the strategy registry every
//!   consumer resolves method names through, and run provenance/reports;
//! * [`crowd`] — the crowdsourcing substrate: workers, Bernoulli answer
//!   models, platform simulator, accuracy pre-tests;
//! * [`datagen`] — synthetic Book / country datasets with gold standards;
//! * [`core`] — the paper's contribution: Equation 2/3 machinery, NP-hard
//!   task selection with greedy/pruning/preprocessing, query-based mode,
//!   round driver and experiment orchestration;
//! * [`service`] — `crowdfusion-serve`: the long-lived multi-session
//!   refinement daemon (line-delimited JSON over TCP/stdio, streaming
//!   answer ingestion, snapshot/restore).
//!
//! ## Quickstart
//!
//! ```
//! use crowdfusion::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // The paper's running example: 4 facts about Hong Kong (Tables I-II).
//! let facts = FactSet::running_example();
//!
//! // Select the best 2 tasks for a crowd with accuracy 0.8 (Algorithm 1).
//! let selector = GreedySelector::fast();
//! let mut rng = StdRng::seed_from_u64(7);
//! let tasks = selector.select(facts.dist(), 0.8, 2, &mut rng).unwrap();
//! assert_eq!(tasks, vec![0, 3]); // f1 and f4, as in Section III-D
//!
//! // Merge a "yes" answer about f1 (Equation 3).
//! let posterior = posterior(facts.dist(), &[0], &[true], 0.8).unwrap();
//! assert!(posterior.marginal(0).unwrap() > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;
pub mod pipeline;

pub use crowdfusion_core as core;
pub use crowdfusion_crowd as crowd;
pub use crowdfusion_datagen as datagen;
pub use crowdfusion_fusion as fusion;
pub use crowdfusion_jointdist as jointdist;
pub use crowdfusion_service as service;

/// The most commonly used types and functions, for glob import.
pub mod prelude {
    pub use crowdfusion_core::allocation::{run_global, GlobalBudgetConfig};
    pub use crowdfusion_core::answers::{
        answer_distribution, answer_entropy, posterior, AnswerEvaluator,
    };
    pub use crowdfusion_core::metrics::{ConfusionCounts, QualityPoint};
    pub use crowdfusion_core::model::{Fact, FactSet};
    pub use crowdfusion_core::prior::{default_grouped_prior, grouped_prior, independent_prior};
    pub use crowdfusion_core::query::{
        query_utility, run_query_rounds, QueryCurvePoint, QueryGreedySelector,
    };
    pub use crowdfusion_core::round::{EntityCase, EntityTrace, RoundConfig};
    pub use crowdfusion_core::selection::{
        GreedySelector, OptSelector, PruneBound, RandomSelector, SelectorKind, TaskSelector,
    };
    pub use crowdfusion_core::system::{Experiment, ExperimentTrace};
    pub use crowdfusion_core::CoreError;
    pub use crowdfusion_crowd::{
        estimate_accuracy, ClassAccuracy, CrowdPlatform, Task, TaskClass, UniformAccuracy,
        WorkerPool,
    };
    pub use crowdfusion_datagen::{BookGenConfig, CountryGenConfig, GeneratedBooks};
    pub use crowdfusion_fusion::{
        AccuVote, Crh, DataFusionStrategy, Dataset, FusionMethod, FusionReport, FusionResult,
        MajorityVote, ModifiedCrh, ProvenanceLedger, StrategyRegistry, TruthFinder,
    };
    pub use crowdfusion_jointdist::{
        binary_entropy, Assignment, Factor, FactorGraphBuilder, JointDist, VarSet,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_working_api() {
        let fs = FactSet::running_example();
        assert_eq!(fs.len(), 4);
        let d = JointDist::uniform(2).unwrap();
        assert!((d.entropy() - 2.0).abs() < 1e-12);
    }
}
