//! Shared harness utilities for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). They accept `--quick` (or the
//! environment variable `CROWDFUSION_QUICK=1`) for a reduced-size smoke run
//! and otherwise print paper-style rows; EXPERIMENTS.md records the
//! full-size results next to the paper's numbers.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod gate;

use crowdfusion::pipeline::entity_cases_from_books;
use crowdfusion::prelude::*;
use crowdfusion_core::pool::Pool;
use crowdfusion_core::round::EntityCase;
use crowdfusion_core::system::ExperimentTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Whether the current invocation asked for a reduced-size run
/// (`--quick` argument or `CROWDFUSION_QUICK=1`).
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("CROWDFUSION_QUICK").is_ok_and(|v| v == "1")
}

/// Generates the standard evaluation dataset: `n_books` books with the
/// given statements-per-book range (the paper: 100 books, budget 60 each).
pub fn standard_books(n_books: usize, statements: (usize, usize), seed: u64) -> GeneratedBooks {
    crowdfusion::datagen::book::generate(BookGenConfig {
        n_books,
        statements_per_book: statements,
        seed,
        ..BookGenConfig::default()
    })
}

/// Builds the per-book entity cases with the paper's initialiser
/// (modified CRH).
pub fn standard_cases(books: &GeneratedBooks) -> Vec<EntityCase> {
    let fusion = ModifiedCrh::default()
        .fuse(&books.dataset)
        .expect("fusion succeeds on generated data");
    entity_cases_from_books(books, &fusion).expect("cases build")
}

/// Runs one experiment configuration: `k` tasks per round, budget `b` per
/// book, crowd accuracy `pc` (both simulated and assumed), given selector.
pub fn run_quality_experiment(
    cases: Vec<EntityCase>,
    selector: &dyn TaskSelector,
    k: usize,
    budget: usize,
    pc: f64,
    seed: u64,
) -> ExperimentTrace {
    let config = RoundConfig::new(k, budget, pc).expect("valid config");
    let experiment = Experiment::new(cases, config).expect("valid cases");
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(30, pc).expect("valid pc"),
        UniformAccuracy::new(pc),
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    experiment
        .run_sharded(selector, &mut platform, &mut rng, &Pool::serial())
        .expect("experiment runs")
}

/// Extracts `count + 1` approximately evenly spaced points (always
/// including the first and last) from a trace for compact printing.
pub fn sample_points(trace: &ExperimentTrace, count: usize) -> Vec<QualityPoint> {
    let pts = &trace.points;
    if pts.len() <= count + 1 {
        return pts.clone();
    }
    let mut out = Vec::with_capacity(count + 1);
    for i in 0..=count {
        let idx = i * (pts.len() - 1) / count;
        out.push(pts[idx]);
    }
    out.dedup_by_key(|p| p.cost);
    out
}

/// A single-entity joint prior with `n_facts` facts, produced through the
/// full dataset → modified-CRH → grouped-prior pipeline. Used by the
/// Table V timing harness so the measured distributions have realistic
/// correlation structure.
pub fn bench_prior(n_facts: usize, seed: u64) -> JointDist {
    let books = crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 1,
        statements_per_book: (n_facts, n_facts),
        authors_per_book: (3, 4),
        seed,
        ..BookGenConfig::default()
    });
    let cases = standard_cases(&books);
    cases.into_iter().next().expect("one book").prior
}

/// One large correlated-fact book (exactly `n_statements` candidate
/// author lists, shared-author correlation groups) as an [`EntityCase`],
/// plus the facts-of-interest set for query mode: the correlation group
/// holding the gold-true variants — the user cares about the true author
/// list, and every format variant of it is equally interesting.
///
/// Beyond `MAX_DENSE_FACTS` statements the returned case carries a
/// sparse-support prior, which the direct and the preprocessed greedy
/// both score through the engine's scatter cache.
pub fn large_book_case(n_statements: usize, seed: u64) -> (EntityCase, VarSet) {
    let books = crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 1,
        seed,
        ..BookGenConfig::large(n_statements)
    });
    let entity = books.dataset.entities()[0].id;
    let gold = books.gold_for(entity);
    let interest = books
        .correlation_groups(entity)
        .into_iter()
        .find(|group| group.iter().any(|&i| gold[i]))
        .expect("every book has a gold-true statement");
    let case = standard_cases(&books)
        .into_iter()
        .next()
        .expect("one book requested");
    (case, VarSet::from_vars(interest))
}

/// Measures the wall-clock time of `f` in seconds.
pub fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Measures the average wall-clock seconds of `f` over `repeats` runs
/// (the paper averages three runs per configuration).
pub fn time_avg_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..repeats {
        f();
    }
    start.elapsed().as_secs_f64() / repeats.max(1) as f64
}

/// Formats a duration in seconds with adaptive precision, matching the
/// paper's Table V style.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-4 {
        format!("{:.1}us", s * 1e6)
    } else if s < 0.1 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Prints a quality-vs-cost series with one row per sampled point.
pub fn print_series(label: &str, trace: &ExperimentTrace, samples: usize) {
    println!("  -- {label} --");
    println!(
        "  {:>8} {:>10} {:>8} {:>10} {:>8}",
        "cost", "utility", "F1", "precision", "recall"
    );
    for p in sample_points(trace, samples) {
        println!(
            "  {:>8} {:>10.2} {:>8.3} {:>10.3} {:>8.3}",
            p.cost, p.utility, p.f1, p.precision, p.recall
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfusion_core::selection::RandomSelector;

    #[test]
    fn bench_prior_has_requested_arity() {
        let p = bench_prior(6, 1);
        assert_eq!(p.num_vars(), 6);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_book_case_exercises_the_sparse_prior() {
        let (case, interest) = large_book_case(32, 9);
        assert_eq!(case.num_facts(), 32);
        case.validate().unwrap();
        assert!(!interest.is_empty());
        assert!(interest.iter().all(|f| f < 32));
        // Interest facts are the gold-true variants.
        assert!(interest.iter().all(|f| case.gold.get(f)));
    }

    #[test]
    fn quality_experiment_runs() {
        let books = standard_books(4, (3, 5), 2);
        let cases = standard_cases(&books);
        let trace = run_quality_experiment(cases, &RandomSelector, 2, 6, 0.8, 3);
        assert_eq!(trace.points[0].cost, 0);
        assert_eq!(trace.last().cost, 4 * 6);
    }

    #[test]
    fn sampling_keeps_endpoints() {
        let books = standard_books(3, (3, 4), 2);
        let cases = standard_cases(&books);
        let trace = run_quality_experiment(cases, &RandomSelector, 1, 8, 0.8, 3);
        let sampled = sample_points(&trace, 4);
        assert_eq!(sampled.first().unwrap().cost, 0);
        assert_eq!(sampled.last().unwrap().cost, trace.last().cost);
        assert!(sampled.len() <= 5);
    }

    #[test]
    fn formatting_is_adaptive() {
        assert!(fmt_secs(0.00001).ends_with("us"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }

    #[test]
    fn timers_measure_positive_durations() {
        let (v, t) = time_secs(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
        assert!(
            time_avg_secs(2, || {
                std::hint::black_box(1 + 1);
            }) >= 0.0
        );
    }
}
