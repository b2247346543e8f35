//! Integration tests for the beyond-the-paper extensions, exercised through
//! the public facade: global budget allocation (§V-D's suggested fix), a
//! sparse prior through the refinement loop, and the executable Theorem 1
//! reduction.

use crowdfusion::core::hardness::solve_partition;
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
fn partition_reduction_through_facade() {
    // Theorem 1 end to end: PARTITION instances solved by task selection.
    assert!(solve_partition(&[10, 10]).unwrap().is_some());
    assert!(solve_partition(&[7, 5, 2]).unwrap().is_some()); // {7} vs {5,2}
    assert!(solve_partition(&[9, 4, 2]).unwrap().is_none());
}

#[test]
fn sparse_prior_round_trip_through_refinement() {
    // Importance-sampled sparse prior + exact greedy on a mid-size entity:
    // the refinement loop accepts sparse supports transparently.
    let marginals: Vec<f64> = (0..12).map(|i| 0.25 + 0.04 * i as f64).collect();
    let mut rng = StdRng::seed_from_u64(2);
    let prior = FactorGraphBuilder::new(marginals)
        .build_sparse(2_000, &mut rng)
        .unwrap();
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
