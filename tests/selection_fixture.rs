//! The committed selection fixture: `Experiment::run_sharded` traces of
//! `GreedySelector::fast()` and `fast().with_preprocess()` on correlated
//! books of 10–16 statements plus one 32-statement book (sparse prior,
//! scored by the direct engine on both paths) must reproduce
//! `tests/fixtures/selection_traces.json` byte for byte.
//!
//! Every later round selects on a posterior, so the fixture pins the
//! greedy loop's picks on priors and posteriors, dense and sparse, for
//! both the direct and the preprocessed path. A diff here means a
//! selection changed; a selection-engine speedup must not move it.

use crowdfusion::core::pool::Pool;
use crowdfusion::core::round::{EntityCase, RoundConfig};
use crowdfusion::core::selection::GreedySelector;
use crowdfusion::core::system::{Experiment, ExperimentTrace};
use crowdfusion::crowd::{CrowdPlatform, UniformAccuracy, WorkerPool};
use crowdfusion::datagen::{book, BookGenConfig};
use crowdfusion::fusion::DEFAULT_METHOD;
use crowdfusion::pipeline::{entity_cases_from_books, fuse_books};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PC: f64 = 0.8;
const SEED: u64 = 16;

fn cases() -> Vec<EntityCase> {
    let datasets = [
        book::generate(BookGenConfig {
            n_books: 6,
            statements_per_book: (10, 16),
            authors_per_book: (3, 5),
            seed: SEED,
            ..BookGenConfig::default()
        }),
        book::generate(BookGenConfig {
            n_books: 1,
            seed: SEED ^ 0x5eed,
            ..BookGenConfig::large(32)
        }),
    ];
    let mut cases = Vec::new();
    for books in &datasets {
        let fusion = fuse_books(books, DEFAULT_METHOD).unwrap();
        cases.extend(entity_cases_from_books(books, &fusion).unwrap());
    }
    cases
}

fn trace(experiment: &Experiment, selector: &GreedySelector) -> ExperimentTrace {
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(30, PC).unwrap(),
        UniformAccuracy::new(PC),
        SEED,
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    experiment
        .run_sharded(selector, &mut platform, &mut rng, &Pool::new(2))
        .unwrap()
}

#[test]
fn greedy_traces_match_committed_fixture() {
    let experiment = Experiment::new(cases(), RoundConfig::new(4, 16, PC).unwrap()).unwrap();
    let traces = [
        trace(&experiment, &GreedySelector::fast()),
        trace(&experiment, &GreedySelector::fast().with_preprocess()),
    ];
    let fresh = serde_json::to_string_pretty(&traces).unwrap() + "\n";
    let committed = include_str!("fixtures/selection_traces.json");
    assert_eq!(
        fresh, committed,
        "run_sharded traces drifted from tests/fixtures/selection_traces.json"
    );
}
