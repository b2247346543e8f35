//! Integration tests for the beyond-the-paper extensions, exercised through
//! the public facade: global budget allocation (§V-D's suggested fix),
//! sampled selection past the dense limit, EM answer aggregation, and the
//! executable Theorem 1 reduction.

use crowdfusion::core::hardness::solve_partition;
use crowdfusion::core::pool::Pool;
use crowdfusion::crowd::aggregation::em_aggregate;
use crowdfusion::pipeline::entity_cases_from_books;
use crowdfusion::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn global_allocation_runs_on_the_book_pipeline() {
    let books = crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 8,
        statements_per_book: (3, 10),
        seed: 19,
        ..BookGenConfig::quick()
    });
    let fusion = ModifiedCrh::default().fuse(&books.dataset).unwrap();
    let cases = entity_cases_from_books(&books, &fusion).unwrap();
    let total = 64;
    let config = GlobalBudgetConfig::new(total, 8, 0.85).unwrap();
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(16, 0.85).unwrap(),
        UniformAccuracy::new(0.85),
        4,
    );
    let trace = run_global(&cases, config, &mut platform).unwrap();
    assert_eq!(trace.last().cost, total as u64);
    assert!(trace.last().utility > trace.points[0].utility);
    assert!(trace.selector.contains("global-budget"));
}

#[test]
fn sampled_selector_plugs_into_the_round_driver() {
    // The sampled selector is a drop-in TaskSelector: run it through the
    // same experiment machinery as the exact selectors.
    let books = crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 4,
        seed: 23,
        ..BookGenConfig::quick()
    });
    let fusion = ModifiedCrh::default().fuse(&books.dataset).unwrap();
    let cases = entity_cases_from_books(&books, &fusion).unwrap();
    let config = RoundConfig::new(2, 10, 0.8).unwrap();
    let experiment = Experiment::new(cases, config).unwrap();
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(10, 0.8).unwrap(),
        UniformAccuracy::new(0.8),
        6,
    );
    let mut rng = StdRng::seed_from_u64(6);
    let trace = experiment
        .run_sharded(
            &SampledGreedySelector::new(1_500, 2),
            &mut platform,
            &mut rng,
            &Pool::serial(),
        )
        .unwrap();
    assert_eq!(trace.last().cost, 4 * 10);
    assert!(trace.last().utility > trace.points[0].utility);
}

#[test]
fn em_aggregation_feeds_posterior_updates() {
    // Replicated crowd answers → EM aggregate → Bayesian merge: the
    // aggregated judgment behaves like a high-accuracy single answer.
    let facts = FactSet::running_example();
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(9, 0.75).unwrap(),
        UniformAccuracy::new(0.75),
        31,
    );
    // Ask f1 eleven times (truth: true).
    let tasks: Vec<Task> = (0..11).map(|i| Task::new(i, "Is f1 true?")).collect();
    let answers = platform.publish(&tasks, &[true; 11]).unwrap();
    // All raw answers concern the same logical fact; aggregate per-answer
    // (each task id is distinct, so aggregate by majority over values).
    let yes = answers.iter().filter(|a| a.value).count();
    let aggregated = 2 * yes >= answers.len();
    let post =
        crowdfusion::core::answers::posterior(facts.dist(), &[0], &[aggregated], 0.9).unwrap();
    assert!(post.marginal(0).unwrap() > 0.8);
    // And the EM machinery handles the same raw answers without panicking
    // (single-vote tasks: posteriors follow the votes).
    let est = em_aggregate(&answers, 0.5, 20, 1e-6).unwrap();
    assert_eq!(est.answers.len(), 11);
}

#[test]
fn partition_reduction_through_facade() {
    // Theorem 1 end to end: PARTITION instances solved by task selection.
    assert!(solve_partition(&[10, 10]).unwrap().is_some());
    assert!(solve_partition(&[7, 5, 2]).unwrap().is_some()); // {7} vs {5,2}
    assert!(solve_partition(&[9, 4, 2]).unwrap().is_none());
}

#[test]
fn sparse_prior_round_trip_through_refinement() {
    // independent_sparse prior + exact greedy on a mid-size entity: the
    // refinement loop accepts sparse supports transparently.
    let marginals: Vec<f64> = (0..12).map(|i| 0.25 + 0.04 * i as f64).collect();
    let mut rng = StdRng::seed_from_u64(2);
    let prior = JointDist::independent_sparse(&marginals, 2_000, &mut rng).unwrap();
    let gold = Assignment(0b1010_1010_1010 & ((1 << 12) - 1));
    let case = EntityCase::simple("sparse", prior, gold);
    let config = RoundConfig::new(3, 18, 0.85).unwrap();
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(12, 0.85).unwrap(),
        UniformAccuracy::new(0.85),
        9,
    );
    let mut seq = 0;
    let trace = crowdfusion::core::round::run_entity(
        &case,
        &GreedySelector::fast(),
        config,
        &mut platform,
        &mut rng,
        &mut seq,
    )
    .unwrap();
    assert_eq!(trace.total_cost(), 18);
    assert!(trace.final_utility() > trace.prior_utility);
}
