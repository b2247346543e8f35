//! Ablations for the design choices called out in DESIGN.md:
//!
//! 1. answer-distribution evaluator: paper-naive vs butterfly transform;
//! 2. pruning bound: none vs safe (lazy evaluation) vs paper-log vs
//!    dominance — time *and* selection-quality impact;
//! 3. preprocessing parallelism: serial vs pool-sharded (the paper's
//!    MapReduce claim);
//! 4. assumed-vs-true crowd accuracy mismatch (the risk Figure 4 hints at).
//!
//! Run with: `cargo run --release -p crowdfusion-bench --bin ablation [--quick]`

use crowdfusion::prelude::*;
use crowdfusion_bench::{
    bench_prior, fmt_secs, is_quick, run_quality_experiment, standard_books, standard_cases,
    time_avg_secs,
};
use crowdfusion_core::answers::{answer_entropy, full_answer_distribution, AnswerEvaluator};
use crowdfusion_core::pool::Pool;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = is_quick();
    let n = if quick { 10 } else { 14 };
    let repeats = if quick { 2 } else { 5 };
    let dist = bench_prior(n, 3);
    let pc = 0.8;

    println!("== Ablation 1: evaluator (one greedy selection, k = 6, n = {n}) ==");
    for (label, selector) in [
        ("naive (paper)", GreedySelector::paper_approx()),
        (
            "butterfly (ours)",
            GreedySelector::paper_approx().with_evaluator(AnswerEvaluator::Butterfly),
        ),
        (
            "preprocessed (Algorithm 2)",
            GreedySelector::paper_approx()
                .with_evaluator(AnswerEvaluator::Butterfly)
                .with_preprocess(),
        ),
    ] {
        let secs = time_avg_secs(repeats, || {
            let mut rng = StdRng::seed_from_u64(0);
            std::hint::black_box(selector.select(&dist, pc, 6, &mut rng).unwrap());
        });
        println!("  {label:<28} {:>12}", fmt_secs(secs));
    }

    println!("\n== Ablation 2: pruning bound (time + fidelity, k = 6) ==");
    let mut rng = StdRng::seed_from_u64(0);
    let reference = GreedySelector::paper_approx()
        .select(&dist, pc, 6, &mut rng)
        .unwrap();
    let h_of = |tasks: &[usize]| {
        answer_entropy(
            &dist,
            VarSet::from_vars(tasks.iter().copied()),
            pc,
            AnswerEvaluator::Butterfly,
        )
        .unwrap()
    };
    let h_ref = h_of(&reference);
    for (label, bound) in [
        ("safe (lazy, exact)", Some(PruneBound::Safe)),
        ("paper log2(k−|T|−1)", Some(PruneBound::PaperAggressive)),
        ("dominance (slack 0)", Some(PruneBound::Dominance)),
        ("no pruning", None),
    ] {
        let mut selector = GreedySelector::paper_approx();
        if let Some(b) = bound {
            selector = selector.with_prune(b);
        }
        let secs = time_avg_secs(repeats, || {
            let mut rng = StdRng::seed_from_u64(0);
            std::hint::black_box(selector.select(&dist, pc, 6, &mut rng).unwrap());
        });
        let mut rng = StdRng::seed_from_u64(0);
        let tasks = selector.select(&dist, pc, 6, &mut rng).unwrap();
        let same = tasks == reference;
        let h = h_of(&tasks);
        println!(
            "  {label:<22} {:>10}  identical: {:<5}  H(T) = {:.4} ({:+.4} vs unpruned)",
            fmt_secs(secs),
            same,
            h,
            h - h_ref
        );
    }

    println!("\n== Ablation 3: preprocessing parallelism (n = {n}) ==");
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::new(threads);
        let [naive, butterfly] = [AnswerEvaluator::Naive, AnswerEvaluator::Butterfly].map(|ev| {
            time_avg_secs(repeats, || {
                std::hint::black_box(full_answer_distribution(&dist, pc, ev, &pool).unwrap());
            })
        });
        println!(
            "  threads {threads}: naive O(|O|^2) = {:>10}, butterfly = {:>10}",
            fmt_secs(naive),
            fmt_secs(butterfly)
        );
    }

    println!("\n== Ablation 4: assumed Pc vs true crowd accuracy ==");
    let books = standard_books(if quick { 10 } else { 30 }, (3, 6), 8);
    let cases = standard_cases(&books);
    println!(
        "  {:>10} {:>10} {:>10} {:>10}",
        "true Pc", "assumed", "final F1", "final util"
    );
    for (true_pc, assumed) in [
        (0.85, 0.85),
        (0.85, 0.6),  // underestimate: slow, over-asks
        (0.85, 0.99), // overestimate: overconfident updates
        (0.7, 0.7),
        (0.7, 0.95),
    ] {
        // Build the platform at the true accuracy but plan/update with the
        // assumed one.
        let config = RoundConfig::new(2, 20, assumed).unwrap();
        let experiment = Experiment::new(cases.clone(), config).unwrap();
        let mut platform = CrowdPlatform::new(
            WorkerPool::uniform(20, true_pc).unwrap(),
            UniformAccuracy::new(true_pc),
            5,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let trace = experiment
            .run_sharded(
                &GreedySelector::fast(),
                &mut platform,
                &mut rng,
                &Pool::serial(),
            )
            .unwrap();
        println!(
            "  {true_pc:>10.2} {assumed:>10.2} {:>10.3} {:>10.2}",
            trace.last().f1,
            trace.last().utility
        );
    }
    println!("\n  Matching the paper's advice: estimate Pc with a gold pre-test —");
    println!("  both under- and over-estimating the crowd costs quality.");
    let _ = run_quality_experiment; // re-exported for other binaries
}
