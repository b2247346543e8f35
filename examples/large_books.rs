//! Beyond the dense limit: CrowdFusion on a 32-statement book.
//!
//! The paper's efficiency experiments single out "books with facts more
//! than 20" — exactly where dense `2^n` answer tables stop being feasible.
//! This example refines a 32-statement book on the path `refine` runs for
//! it: the book's fusion marginals and correlation groups become a sparse
//! importance-sampled prior (`pipeline::entity_case_for_book`), and the
//! exact greedy selector scores candidates on that sparse support, so no
//! dense table is ever built.
//!
//! Run with: `cargo run --release --example large_books`

use crowdfusion::pipeline::entity_case_for_book;
use crowdfusion::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // One big book: 32 candidate author-list statements.
    let books = crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 1,
        statements_per_book: (32, 32),
        authors_per_book: (3, 4),
        seed: 5,
        ..BookGenConfig::default()
    });
    let entity = books.dataset.entities()[0].id;
    let n = books.dataset.statements_of(entity).len();
    println!(
        "book with {n} candidate statements (dense 2^{n} table would need ~{} GiB)",
        (1u128 << n) * 8 / (1 << 30)
    );

    // Machine prior: modified CRH marginals plus the book's correlation
    // groups, lifted into a sparse joint (the dense factor-graph path
    // stops at 26 facts).
    let fusion = ModifiedCrh::default().fuse(&books.dataset).unwrap();
    let case = entity_case_for_book(&books, &fusion, entity).unwrap();
    println!(
        "sparse prior: support {} of 2^{n} assignments, H = {:.2} bits",
        case.prior.support_size(),
        case.prior.entropy()
    );

    let pc = 0.8;
    let seeds = 5u64;
    let config = RoundConfig::new(4, 40, pc).unwrap();
    println!(
        "\nrefining with budget {} at Pc = {pc} ({seeds}-seed averages):",
        config.budget
    );
    for (label, selector) in [
        ("greedy", &GreedySelector::fast() as &dyn TaskSelector),
        ("random", &RandomSelector),
    ] {
        let mut utility = 0.0;
        let mut accuracy = 0.0;
        let mut f1 = 0.0;
        let mut prior_utility = 0.0;
        for seed in 0..seeds {
            let mut platform = CrowdPlatform::new(
                WorkerPool::uniform(20, pc).unwrap(),
                UniformAccuracy::new(pc),
                17 + seed,
            );
            let mut rng = StdRng::seed_from_u64(17 + seed);
            let mut seq = 0u64;
            let trace = crowdfusion::core::round::run_entity(
                &case,
                selector,
                config,
                &mut platform,
                &mut rng,
                &mut seq,
            )
            .unwrap();
            let mut counts = ConfusionCounts::default();
            counts.add_marginals(&trace.posterior.marginals(), case.gold);
            prior_utility = trace.prior_utility;
            utility += trace.final_utility() / seeds as f64;
            accuracy += counts.accuracy() / seeds as f64;
            f1 += counts.f1() / seeds as f64;
        }
        println!(
            "  {label:<16} utility {prior_utility:.2} -> {utility:.2}, \
             statement accuracy {accuracy:.3}, F1 {f1:.3}"
        );
    }
}
