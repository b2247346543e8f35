//! Error analysis (paper Section V-D): which statements stay wrong?
//!
//! The paper manually categorised the residual errors after crowdsourcing
//! into three confusion classes — wrong order (true but looks wrong),
//! additional information and misspelling (false but look right). This
//! example reproduces that analysis: it runs CrowdFusion with a
//! difficulty-aware crowd (per-class accuracies calibrated to the paper's
//! observations) and reports the residual error rate per class.
//!
//! Run with: `cargo run --release --example error_analysis`

use crowdfusion::core::pool::Pool;
use crowdfusion::pipeline::entity_cases_from_books;
use crowdfusion::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let books = crowdfusion::datagen::book::generate(BookGenConfig {
        n_books: 60,
        ..BookGenConfig::default()
    });
    let fusion = ModifiedCrh::default().fuse(&books.dataset).unwrap();
    let cases = entity_cases_from_books(&books, &fusion).unwrap();
    let pc = 0.86; // the paper's measured worker accuracy
    let config = RoundConfig::new(2, 60, pc).unwrap();
    let experiment = Experiment::new(cases.clone(), config).unwrap();

    // The difficulty-aware crowd: clean statements at Pc, confusing classes
    // degraded as observed in Section V-D (misspellings below chance).
    let model = ClassAccuracy::paper_defaults(pc);
    let mut platform = CrowdPlatform::new(WorkerPool::uniform(30, pc).unwrap(), model, 23);
    let mut rng = StdRng::seed_from_u64(23);
    let trace = experiment
        .run_sharded(
            &GreedySelector::fast(),
            &mut platform,
            &mut rng,
            &Pool::serial(),
        )
        .unwrap();
    println!(
        "refined overall F1 = {:.3} (machine-only was {:.3})",
        trace.last().f1,
        trace.points[0].f1
    );

    // Re-run entity by entity to recover per-statement predictions.
    let mut per_class: std::collections::HashMap<&str, (usize, usize)> = Default::default();
    let mut platform = CrowdPlatform::new(WorkerPool::uniform(30, pc).unwrap(), model, 23);
    let mut rng = StdRng::seed_from_u64(23);
    let mut seq = 0u64;
    let round_config = RoundConfig::new(2, 60, pc).unwrap();
    for case in &cases {
        let trace = crowdfusion::core::round::run_entity(
            case,
            &GreedySelector::fast(),
            round_config,
            &mut platform,
            &mut rng,
            &mut seq,
        )
        .unwrap();
        let predicted = trace.posterior.map_truth();
        for (i, class) in case.classes.iter().enumerate() {
            let entry = per_class.entry(class.label()).or_insert((0, 0));
            entry.1 += 1;
            if predicted.get(i) != case.gold.get(i) {
                entry.0 += 1;
            }
        }
    }

    println!("\n== residual errors by statement class (Section V-D) ==");
    println!(
        "{:<18} {:>8} {:>8} {:>12}",
        "class", "errors", "total", "error rate"
    );
    let mut classes: Vec<_> = per_class.iter().collect();
    classes.sort_by_key(|(label, _)| *label);
    for (label, (errors, total)) in classes {
        println!(
            "{label:<18} {errors:>8} {total:>8} {:>11.1}%",
            100.0 * *errors as f64 / (*total).max(1) as f64
        );
    }

    println!("\nAs in the paper, the confusing classes (wrong-order variants,");
    println!("added organisation info, misspellings) dominate the residual");
    println!("errors, while clean statements are resolved almost completely.");
    println!("The fix the paper suggests — worker guidance plus more budget —");
    println!("corresponds to raising the per-class accuracies above 0.5.");
}
