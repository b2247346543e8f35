//! Initialiser-agnosticism: CrowdFusion on top of four fusion methods.
//!
//! "CrowdFusion can be initialized by any existing probability-based data
//! fusion method, or simply set to uniform distribution" (Section III).
//! This example fuses the same synthetic Book dataset with majority voting,
//! CRH, modified CRH, TruthFinder and ACCU, then runs identical CrowdFusion
//! refinement on each and reports machine-only vs refined F1.
//!
//! Run with: `cargo run --release --example compare_initializers`

use crowdfusion::core::pool::Pool;
use crowdfusion::pipeline::entity_cases_from_books;
use crowdfusion::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let books = crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 30,
        ..BookGenConfig::default()
    });
    let pc = 0.8;
    let methods: Vec<Box<dyn FusionMethod>> = vec![
        Box::new(MajorityVote),
        Box::new(Crh::default()),
        Box::new(ModifiedCrh::default()),
        Box::new(TruthFinder::default()),
        Box::new(AccuVote::default()),
    ];

    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>14}",
        "initialiser", "machine F1", "refined F1", "final util", "cost"
    );
    for method in methods {
        let fusion = match method.fuse(&books.dataset) {
            Ok(f) => f,
            Err(e) => {
                println!("{:<14} failed: {e}", method.name());
                continue;
            }
        };
        let cases = entity_cases_from_books(&books, &fusion).unwrap();
        let config = RoundConfig::new(2, 40, pc).unwrap();
        let experiment = Experiment::new(cases, config).unwrap();
        let mut platform = CrowdPlatform::new(
            WorkerPool::uniform(20, pc).unwrap(),
            UniformAccuracy::new(pc),
            11,
        );
        let mut rng = StdRng::seed_from_u64(11);
        let trace = experiment
            .run_sharded(
                &GreedySelector::fast(),
                &mut platform,
                &mut rng,
                &Pool::serial(),
            )
            .unwrap();
        let machine_f1 = trace.points[0].f1;
        let last = trace.last();
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.2} {:>14}",
            method.name(),
            machine_f1,
            last.f1,
            last.utility,
            last.cost
        );
    }

    println!("\nEvery initialiser is improved by the same crowd budget; better");
    println!("machine priors start higher but converge to similar refined quality —");
    println!("the behaviour the paper claims for probability-based initialisers.");
}
