//! Property tests for the selection engine's determinism guarantees.
//!
//! The engine's contract is *bit-for-bit* reproducibility across thread
//! counts: (a) pooled greedy returns the identical selection to serial
//! greedy for every evaluator, every [`PruneBound`] and every preprocess
//! setting, because candidates are scored into per-index slots and
//! reduced serially in fact order; (b) [`Experiment::run_sharded`]
//! produces the identical trace for 1 and N threads from the same master
//! seed, because every entity's random streams are a pure function of the
//! entity index and the master RNG state on entry; (c) the lazy greedy
//! behind [`PruneBound::Safe`] returns the eager loop's selection bit for
//! bit on priors, posteriors, sparse supports and tie-heavy inputs.

use crowdfusion_core::answers::posterior_in_place;
use crowdfusion_core::pool::Pool;
use crowdfusion_core::prior::default_grouped_prior;
use crowdfusion_core::round::{EntityCase, RoundConfig};
use crowdfusion_core::selection::{GreedySelector, PruneBound, TaskSelector};
use crowdfusion_core::system::Experiment;
use crowdfusion_core::AnswerEvaluator;
use crowdfusion_crowd::{CrowdPlatform, UniformAccuracy, WorkerPool};
use crowdfusion_jointdist::{Assignment, JointDist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random dense distribution over 2..=6 variables.
fn arb_dist() -> impl Strategy<Value = JointDist> {
    (2usize..=6).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..1.0, 1usize << n).prop_filter_map(
            "positive mass",
            move |w| {
                JointDist::from_weights(
                    n,
                    w.iter()
                        .enumerate()
                        .map(|(a, &x)| (Assignment(a as u64), x)),
                )
                .ok()
            },
        )
    })
}

fn arb_pc() -> impl Strategy<Value = f64> {
    0.5f64..=1.0
}

/// Every greedy configuration axis: evaluator × prune bound × preprocess.
fn all_configs() -> Vec<GreedySelector> {
    let mut configs = Vec::new();
    for evaluator in [AnswerEvaluator::Naive, AnswerEvaluator::Butterfly] {
        for prune in [
            None,
            Some(PruneBound::Safe),
            Some(PruneBound::PaperAggressive),
            Some(PruneBound::Dominance),
        ] {
            for preprocess in [false, true] {
                let mut sel = GreedySelector::paper_approx().with_evaluator(evaluator);
                if let Some(bound) = prune {
                    sel = sel.with_prune(bound);
                }
                if preprocess {
                    sel = sel.with_preprocess();
                }
                configs.push(sel);
            }
        }
    }
    configs
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

/// Correlation groups of 1–4 consecutive facts covering `0..n`, as the
/// book pipeline groups a book's author-list variants.
fn book_groups(n: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut groups = Vec::new();
    let mut next = 0;
    while next < n {
        let size = rng.gen_range(1usize..=4).min(n - next);
        groups.push((next..next + size).collect());
        next += size;
    }
    groups
}

/// A book-style grouped prior over `n` facts (dense up to the dense
/// limit, importance-sampled sparse beyond it).
fn book_prior(n: usize, rng: &mut StdRng) -> JointDist {
    let marginals: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
    default_grouped_prior(&marginals, &book_groups(n, rng)).unwrap()
}

/// The inputs the lazy greedy must agree with the eager loop on, by
/// `family`: 0 a book prior of `n` facts; 1 that prior's posterior after
/// `rounds` rounds of four answers; 2 a 32-fact sparse book prior; 3 the
/// uniform prior; 4 equal independent marginals; 5 a grouped prior with
/// equal marginals. The last three are tie-heavy.
fn lazy_input(family: usize, n: usize, rounds: usize, seed: u64) -> JointDist {
    let mut rng = StdRng::seed_from_u64(seed);
    let marginal = [0.3, 0.5, 0.7, 0.9][rng.gen_range(0usize..4)];
    match family {
        0 => book_prior(n, &mut rng),
        1 => {
            let mut dist = book_prior(n, &mut rng);
            for _ in 0..rounds {
                let mut facts: Vec<usize> = (0..n).collect();
                for i in 0..4 {
                    let j = rng.gen_range(i..n);
                    facts.swap(i, j);
                }
                let answers: Vec<bool> = (0..4).map(|_| rng.gen_bool(0.5)).collect();
                posterior_in_place(&mut dist, &facts[..4], &answers, 0.8).unwrap();
            }
            dist
        }
        2 => book_prior(32, &mut rng),
        3 => JointDist::uniform(n).unwrap(),
        4 => JointDist::independent(&vec![marginal; n]).unwrap(),
        _ => default_grouped_prior(&vec![marginal; n], &book_groups(n, &mut rng)).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_greedy_is_bit_identical_to_serial((d, pc) in (arb_dist(), arb_pc())) {
        // (a) Across every configuration and thread count, the pooled
        // selection must equal the serial one exactly — same facts, same
        // order.
        let k = 3;
        for sel in all_configs() {
            let serial = sel.clone().with_threads(1).select(&d, pc, k, &mut rng()).unwrap();
            for threads in [2usize, 4, 7] {
                let pooled = sel.clone().with_threads(threads)
                    .select(&d, pc, k, &mut rng()).unwrap();
                prop_assert_eq!(
                    &pooled, &serial,
                    "{} diverged at {} threads", sel.name(), threads
                );
            }
        }
    }

    #[test]
    fn engine_matches_naive_reference((d, pc) in (arb_dist(), arb_pc())) {
        // The cached-scatter engine is a different floating-point route to
        // the same mathematics; on random (tie-free) distributions it must
        // pick the same facts as the paper's brute-force evaluation.
        let reference = GreedySelector::paper_approx()
            .select(&d, pc, 3, &mut rng()).unwrap();
        for threads in [1usize, 4] {
            let engine = GreedySelector::engine(threads)
                .select(&d, pc, 3, &mut rng()).unwrap();
            prop_assert_eq!(&engine, &reference, "threads = {}", threads);
        }
    }

    #[test]
    fn sharded_experiment_is_thread_count_invariant(
        (seed, pc) in (0u64..1000, 0.6f64..=0.95),
    ) {
        // (b) Same master seed ⇒ identical traces for 1 vs N threads.
        let mut gen = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let cases: Vec<EntityCase> = (0..4)
            .map(|e| {
                let n = 2 + (e + seed as usize) % 3;
                let marginals: Vec<f64> =
                    (0..n).map(|_| gen.gen_range(0.05..0.95)).collect();
                let gold = Assignment(gen.gen_range(0..(1u64 << n)));
                EntityCase::simple(
                    format!("e{e}"),
                    JointDist::independent(&marginals).unwrap(),
                    gold,
                )
            })
            .collect();
        let config = RoundConfig::new(2, 6, pc).unwrap();
        let exp = Experiment::new(cases, config).unwrap();
        let run = |threads: usize| {
            let mut platform = CrowdPlatform::new(
                WorkerPool::uniform(8, pc).unwrap(),
                UniformAccuracy::new(pc),
                seed,
            );
            let mut master = StdRng::seed_from_u64(seed ^ 0xdead_beef);
            let pool = Pool::new(threads);
            let trace = exp
                .run_sharded(
                    &GreedySelector::fast().with_pool(pool.clone()),
                    &mut platform,
                    &mut master,
                    &pool,
                )
                .unwrap();
            (trace, platform.ledger())
        };
        let (serial_trace, serial_ledger) = run(1);
        for threads in [2usize, 5] {
            let (trace, ledger) = run(threads);
            prop_assert_eq!(&trace.points, &serial_trace.points, "threads = {}", threads);
            prop_assert_eq!(ledger, serial_ledger);
        }
    }

    #[test]
    fn lazy_greedy_matches_the_eager_loop(
        (family, n, rounds, seed, pc, k) in (
            0usize..6, 8usize..=16, 1usize..=3, any::<u64>(),
            (0usize..4).prop_map(|i| [0.6, 0.8, 0.95, 1.0][i]), 1usize..=6,
        ),
    ) {
        // (c) `fast()` runs the lazy loop; the same scorer without a prune
        // bound runs the eager one. Both the direct path and the
        // preprocessed path (dense partition refinement) must agree, at 1
        // and 4 threads.
        let d = lazy_input(family, n, rounds, seed);
        let eager = GreedySelector::paper_approx().with_evaluator(AnswerEvaluator::Butterfly);
        let pairs = [
            (GreedySelector::fast(), eager.clone()),
            (GreedySelector::fast().with_preprocess(), eager.with_preprocess()),
        ];
        for (lazy, eager) in pairs {
            for threads in [1usize, 4] {
                let want = eager.clone().with_threads(threads).select(&d, pc, k, &mut rng()).unwrap();
                let got = lazy.clone().with_threads(threads).select(&d, pc, k, &mut rng()).unwrap();
                prop_assert_eq!(
                    &got, &want,
                    "{} vs {}: family {} n {} pc {} k {}",
                    lazy.name(), eager.name(), family, d.num_vars(), pc, k
                );
            }
        }
    }
}

/// Non-proptest sanity check: the engine at many threads still reproduces
/// the paper's running-example selection.
#[test]
fn engine_reproduces_running_example_at_any_thread_count() {
    let d = crowdfusion_jointdist::presets::paper_running_example();
    for threads in [1usize, 2, 4, 16] {
        let tasks = GreedySelector::engine(threads)
            .select(&d, 0.8, 2, &mut rng())
            .unwrap();
        assert_eq!(tasks, vec![0, 3], "threads = {threads}");
    }
}
