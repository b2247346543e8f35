//! Integration test: the full dataset → fusion → CrowdFusion pipeline.

use crowdfusion::core::pool::Pool;
use crowdfusion::pipeline::entity_cases_from_books;
use crowdfusion::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn books() -> GeneratedBooks {
    crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 10,
        seed: 5,
        ..BookGenConfig::quick()
    })
}

fn run_pipeline(selector: &dyn TaskSelector, seed: u64) -> ExperimentTrace {
    let books = books();
    let fusion = ModifiedCrh::default().fuse(&books.dataset).unwrap();
    let cases = entity_cases_from_books(&books, &fusion).unwrap();
    let config = RoundConfig::new(2, 20, 0.8).unwrap();
    let experiment = Experiment::new(cases, config).unwrap();
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(12, 0.8).unwrap(),
        UniformAccuracy::new(0.8),
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    experiment
        .run_sharded(selector, &mut platform, &mut rng, &Pool::serial())
        .unwrap()
}

#[test]
fn pipeline_is_deterministic() {
    let a = run_pipeline(&GreedySelector::fast(), 3);
    let b = run_pipeline(&GreedySelector::fast(), 3);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_answers_not_structure() {
    let a = run_pipeline(&GreedySelector::fast(), 3);
    let b = run_pipeline(&GreedySelector::fast(), 4);
    assert_eq!(a.points[0], b.points[0], "prior point is seed-independent");
    assert_eq!(a.points.len(), b.points.len());
    assert_ne!(a, b);
}

#[test]
fn refinement_improves_utility_and_f1() {
    let trace = run_pipeline(&GreedySelector::fast(), 9);
    let first = &trace.points[0];
    let last = trace.last();
    assert!(
        last.utility > first.utility + 5.0,
        "utility {} -> {}",
        first.utility,
        last.utility
    );
    assert!(last.f1 > first.f1, "f1 {} -> {}", first.f1, last.f1);
    assert!(last.f1 > 0.8, "final f1 {}", last.f1);
}

#[test]
fn greedy_dominates_random_averaged_over_seeds() {
    let mut greedy = 0.0;
    let mut random = 0.0;
    for seed in 0..5 {
        greedy += run_pipeline(&GreedySelector::fast(), seed).last().utility;
        random += run_pipeline(&RandomSelector, seed).last().utility;
    }
    assert!(
        greedy > random,
        "greedy {greedy} should beat random {random}"
    );
}

#[test]
fn cost_accounting_matches_budget() {
    let books = books();
    let n_books = books.dataset.entities().len() as u64;
    let trace = run_pipeline(&GreedySelector::fast(), 1);
    assert_eq!(trace.last().cost, n_books * 20);
}

#[test]
fn accuracy_pretest_calibrates_pc() {
    // The paper estimates worker accuracy with gold sample tasks before
    // choosing the Pc parameter; wire that flow end to end.
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(15, 0.86).unwrap(),
        UniformAccuracy::new(0.86),
        77,
    );
    let sample_tasks: Vec<Task> = (0..2000).map(|i| Task::new(i, "pretest")).collect();
    let gold: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
    let estimate = estimate_accuracy(&mut platform, &sample_tasks, &gold).unwrap();
    assert!((estimate.pc - 0.86).abs() < 0.03);
    // The estimated Pc is a valid planning parameter.
    assert!(RoundConfig::new(2, 10, estimate.pc).is_ok());
}

#[test]
fn difficulty_aware_crowd_reduces_final_quality() {
    let books = books();
    let fusion = ModifiedCrh::default().fuse(&books.dataset).unwrap();
    let cases = entity_cases_from_books(&books, &fusion).unwrap();
    let config = RoundConfig::new(2, 20, 0.8).unwrap();
    let experiment = Experiment::new(cases, config).unwrap();

    let mut uniform_platform = CrowdPlatform::new(
        WorkerPool::uniform(12, 0.8).unwrap(),
        UniformAccuracy::new(0.8),
        13,
    );
    let mut rng = StdRng::seed_from_u64(13);
    let uniform_trace = experiment
        .run_sharded(
            &GreedySelector::fast(),
            &mut uniform_platform,
            &mut rng,
            &Pool::serial(),
        )
        .unwrap();

    let mut hard_platform = CrowdPlatform::new(
        WorkerPool::uniform(12, 0.8).unwrap(),
        ClassAccuracy::paper_defaults(0.8),
        13,
    );
    let mut rng = StdRng::seed_from_u64(13);
    let hard_trace = experiment
        .run_sharded(
            &GreedySelector::fast(),
            &mut hard_platform,
            &mut rng,
            &Pool::serial(),
        )
        .unwrap();

    assert!(
        hard_trace.last().f1 < uniform_trace.last().f1,
        "confusing statements should hurt final F1: {} vs {}",
        hard_trace.last().f1,
        uniform_trace.last().f1
    );
}
