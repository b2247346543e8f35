//! Figure 4: how the Pc setting affects F1-score and utility
//! (Approx. vs Random for Pc ∈ {0.7, 0.8, 0.9}), plus the large-n
//! query-mode workload past the dense `2^n` limit.
//!
//! Expected shape (paper Section V-C-3): higher Pc reaches higher utility
//! at equal cost; Pc = 0.8 and 0.9 achieve similar F1; underestimating
//! crowd reliability slows the procedure down.
//!
//! The second section exercises the paper's "books with facts more than
//! 20" regime: correlated-fact books with n = 32–40 statements
//! (shared-author correlation groups), selected both in query mode
//! (facts of interest = the gold-true variant group) and through the
//! direct and preprocessed greedy paths (past 26 facts both score the
//! sparse support through the direct engine; the `pre(sparse)` label
//! predates that), with pooled execution cross-checked to be
//! bit-identical across thread counts.
//!
//! Run with: `cargo run --release -p crowdfusion-bench --bin fig4 [--quick]`
//!
//! `--query-mode` switches to the budgeted quality curves: for each
//! large-n book the FOI-aware round driver
//! ([`crowdfusion_core::query::run_query_rounds`]) spends the budget
//! round by round and the binary emits a `n,cost,plan_q,entropy,accuracy`
//! CSV on stdout (planned utility asserted monotone — CI diffs the
//! artifact).

use crowdfusion::prelude::*;
use crowdfusion_bench::{
    fmt_secs, is_quick, large_book_case, print_series, run_quality_experiment, standard_books,
    standard_cases, time_secs,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pc_sweep(quick: bool) {
    let n_books = if quick { 20 } else { 100 };
    let budget = if quick { 20 } else { 60 };
    let k = 3;
    let books = standard_books(n_books, (3, 8), 77);
    let cases = standard_cases(&books);

    println!("Figure 4 reproduction: {n_books} books, k = {k}, budget {budget} per book");

    for (label, selector) in [
        ("Approx.", &GreedySelector::fast() as &dyn TaskSelector),
        ("Random", &RandomSelector),
    ] {
        println!("\n===== {label} =====");
        for pc in [0.7, 0.8, 0.9] {
            let trace = run_quality_experiment(cases.clone(), selector, k, budget, pc, 55);
            print_series(&format!("Pc = {pc}"), &trace, 6);
        }
    }

    println!("\nShape checks: for each selector the Pc = 0.9 curve dominates the");
    println!("Pc = 0.8 curve, which dominates Pc = 0.7, in utility at equal cost;");
    println!("Pc = 0.8 and 0.9 reach similar final F1 (paper Section V-C-3).");
}

fn large_n_query_mode(quick: bool) {
    let sizes: &[usize] = if quick { &[32] } else { &[32, 36, 40] };
    let (pc, k) = (0.8, 4);
    println!("\n===== Large-n query mode (sparse answer tables) =====");
    println!("correlated-fact books, k = {k}, Pc = {pc}; FOI = gold-true variant group");
    for &n in sizes {
        let (case, interest) = large_book_case(n, 101);
        let prior = &case.prior;
        let mut rng = StdRng::seed_from_u64(3);

        let (query_tasks, t_query) = time_secs(|| {
            QueryGreedySelector::new(interest)
                .select(prior, pc, k, &mut rng)
                .expect("query selection succeeds at large n")
        });
        let q_before = query_utility(prior, interest, VarSet::EMPTY, pc).unwrap();
        let q_after = query_utility(
            prior,
            interest,
            VarSet::from_vars(query_tasks.iter().copied()),
            pc,
        )
        .unwrap();

        let (direct, t_direct) = time_secs(|| {
            GreedySelector::fast()
                .select(prior, pc, k, &mut rng)
                .expect("direct selection succeeds at large n")
        });
        let (pre, t_pre) = time_secs(|| {
            GreedySelector::fast()
                .with_preprocess()
                .select(prior, pc, k, &mut rng)
                .expect("preprocessed selection succeeds at large n")
        });
        assert_eq!(
            direct, pre,
            "preprocessed selection diverged from the direct engine"
        );
        for threads in [2usize, 4] {
            let pooled = GreedySelector::engine(threads)
                .with_preprocess()
                .select(prior, pc, k, &mut rng)
                .expect("pooled selection succeeds at large n");
            assert_eq!(pooled, pre, "selection not thread-count invariant");
        }

        println!(
            "  n = {n:>2} (|O| = {:>4}): query {:?} (Q {q_before:.3} -> {q_after:.3}, {}) | \
             direct {:?} ({}) | pre(sparse) ({}) [thread-invariant OK]",
            prior.support_size(),
            query_tasks,
            fmt_secs(t_query),
            direct,
            fmt_secs(t_direct),
            fmt_secs(t_pre),
        );
    }
}

/// The budgeted quality curves behind the global scheduler: for each
/// large-n book, [`run_query_rounds`] drives the full FOI-aware
/// select–collect–update loop and records budget → quality points. The
/// planned-utility column must be monotone non-decreasing (information
/// never hurts under the corrected Equation 7) — asserted here so the CI
/// artifact can simply be diffed.
fn query_mode_curves(quick: bool) -> String {
    let sizes: &[usize] = if quick { &[32] } else { &[32, 36, 40] };
    let budget = if quick { 12 } else { 20 };
    let (pc, k) = (0.9, 4);
    let mut csv = String::from("n,cost,plan_q,entropy,accuracy\n");
    for &n in sizes {
        let (case, interest) = large_book_case(n, 101);
        let config = RoundConfig::new(k, budget, pc).expect("valid round config");
        let mut platform = CrowdPlatform::new(
            WorkerPool::uniform(30, pc).expect("valid pc"),
            UniformAccuracy::new(pc),
            909,
        );
        let mut rng = StdRng::seed_from_u64(17);
        let mut task_seq = 0;
        let curve = run_query_rounds(
            &case,
            interest,
            config,
            &mut platform,
            &mut rng,
            &mut task_seq,
        )
        .expect("query rounds run at large n");
        assert!(curve.len() >= 2, "the curve must move past the prior");
        for pair in curve.windows(2) {
            assert!(
                pair[1].cost > pair[0].cost,
                "curve points must spend strictly increasing budget"
            );
            assert!(
                pair[1].plan_utility >= pair[0].plan_utility - 1e-12,
                "planned utility regressed at n = {n}: {} -> {}",
                pair[0].plan_utility,
                pair[1].plan_utility
            );
        }
        for p in &curve {
            csv.push_str(&format!(
                "{n},{},{:.6},{:.6},{:.4}\n",
                p.cost, p.plan_utility, p.entropy, p.accuracy
            ));
        }
    }
    csv
}

fn main() {
    let quick = is_quick();
    // `--query-mode` prints ONLY the budget → quality CSV (stable across
    // runs; CI captures and diffs it).
    if std::env::args().any(|a| a == "--query-mode") {
        print!("{}", query_mode_curves(quick));
        return;
    }
    pc_sweep(quick);
    large_n_query_mode(quick);
}
