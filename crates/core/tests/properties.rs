//! Property-based tests for the CrowdFusion core algorithms.

use crowdfusion_core::answers::{
    answer_distribution, answer_entropy, full_answer_distribution, posterior, AnswerEvaluator,
};
use crowdfusion_core::pool::Pool;
use crowdfusion_core::query::{query_utility, truth_answer_joint_entropy};
use crowdfusion_core::selection::{
    GreedySelector, OptSelector, PruneBound, RandomSelector, ScatterCache, TaskSelector,
};
use crowdfusion_jointdist::{binary_entropy, entropy_of_probs, Assignment, JointDist, VarSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn answer_distribution_is_stochastic((d, pc) in (arb_dist(), arb_pc())) {
        let n = d.num_vars();
        for bits in 1u64..(1u64 << n) {
            let tasks = VarSet(bits);
            let a = answer_distribution(&d, tasks, pc, AnswerEvaluator::Butterfly).unwrap();
            prop_assert_eq!(a.len(), 1usize << tasks.len());
            let total: f64 = a.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(a.iter().all(|&p| p >= -1e-12));
        }
    }

    #[test]
    fn evaluators_agree((d, pc) in (arb_dist(), arb_pc())) {
        let n = d.num_vars();
        for bits in 1u64..(1u64 << n) {
            let tasks = VarSet(bits);
            let a = answer_distribution(&d, tasks, pc, AnswerEvaluator::Naive).unwrap();
            let b = answer_distribution(&d, tasks, pc, AnswerEvaluator::Butterfly).unwrap();
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn answer_entropy_bounds((d, pc) in (arb_dist(), arb_pc())) {
        // H(T) is between the channel noise floor |T|·H(Pc) … wait, the
        // floor only holds jointly; the safe bounds are 0 ≤ H(T) ≤ |T|.
        let n = d.num_vars();
        let tasks = VarSet::all(n);
        let h = answer_entropy(&d, tasks, pc, AnswerEvaluator::Butterfly).unwrap();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= n as f64 + 1e-9);
        // The answer channel can only *add* randomness on top of the fact
        // distribution pushed through it: H(T) >= H(facts)·(channel
        // data-processing direction) is not generally true, but
        // H(T) >= |T| · H(Pc) holds: conditioned on the truth the answers
        // are |T| independent Pc-coins.
        let floor = tasks.len() as f64 * binary_entropy(pc);
        prop_assert!(h >= floor - 1e-9, "H(T)={h} < noise floor {floor}");
    }

    #[test]
    fn answer_entropy_monotone_in_tasks((d, pc) in (arb_dist(), arb_pc())) {
        // Adding a task never decreases H(T) (Theorem 2's engine).
        let n = d.num_vars();
        let mut tasks = VarSet::EMPTY;
        let mut prev = 0.0;
        for v in 0..n {
            tasks = tasks.insert(v);
            let h = answer_entropy(&d, tasks, pc, AnswerEvaluator::Butterfly).unwrap();
            prop_assert!(h >= prev - 1e-9);
            prev = h;
        }
    }

    #[test]
    fn answer_entropy_submodular((d, pc) in (arb_dist(), arb_pc())) {
        // ρ_f(T) = H(T ∪ {f}) − H(T) shrinks as T grows — the property
        // behind the (1 − 1/e) guarantee.
        let n = d.num_vars();
        if n < 3 {
            return Ok(());
        }
        let small = VarSet::single(0);
        let large = VarSet::from_vars([0, 1]);
        let f = n - 1;
        let h = |t: VarSet| answer_entropy(&d, t, pc, AnswerEvaluator::Butterfly).unwrap();
        let gain_small = h(small.insert(f)) - h(small);
        let gain_large = h(large.insert(f)) - h(large);
        prop_assert!(gain_large <= gain_small + 1e-9,
            "submodularity violated: {gain_large} > {gain_small}");
    }

    #[test]
    fn posterior_is_normalised((d, pc) in (arb_dist(), 0.55f64..1.0)) {
        let n = d.num_vars();
        let tasks: Vec<usize> = (0..n.min(3)).collect();
        let answers: Vec<bool> = tasks.iter().map(|&t| t % 2 == 0).collect();
        let post = posterior(&d, &tasks, &answers, pc).unwrap();
        prop_assert!((post.total_mass() - 1.0).abs() < 1e-9);
        prop_assert!(post.support_size() <= d.support_size());
    }

    #[test]
    fn posterior_agrees_with_answer_distribution((d, pc) in (arb_dist(), 0.55f64..0.99)) {
        // Bayes consistency: P(o | ans) · P(ans) == P(o) · P(ans | o).
        let tasks = VarSet::single(0);
        let ans_dist = answer_distribution(&d, tasks, pc, AnswerEvaluator::Naive).unwrap();
        let post_true = posterior(&d, &[0], &[true], pc).unwrap();
        for (o, p) in d.iter() {
            let like = if o.get(0) { pc } else { 1.0 - pc };
            let lhs = post_true.prob(o) * ans_dist[1];
            let rhs = p * like;
            prop_assert!((lhs - rhs).abs() < 1e-9, "Bayes mismatch at {o:?}");
        }
    }

    #[test]
    fn greedy_variants_identical((d, pc) in (arb_dist(), arb_pc())) {
        let k = 3;
        let reference = GreedySelector::paper_approx()
            .select(&d, pc, k, &mut rng()).unwrap();
        for sel in [
            GreedySelector::paper_approx().with_prune(PruneBound::Safe),
            GreedySelector::paper_approx().with_preprocess(),
            GreedySelector::paper_approx().with_prune(PruneBound::Safe).with_preprocess(),
            GreedySelector::paper_approx().with_evaluator(AnswerEvaluator::Butterfly),
        ] {
            let got = sel.select(&d, pc, k, &mut rng()).unwrap();
            prop_assert_eq!(got, reference.clone(), "{} diverged", sel.name());
        }
    }

    #[test]
    fn greedy_respects_approximation_guarantee((d, pc) in (arb_dist(), arb_pc())) {
        // H(greedy) ≥ (1 − 1/e) · H(OPT) for k = 2. Entropy is
        // nonnegative, so the classical guarantee applies directly.
        let k = 2;
        let opt = OptSelector::new(AnswerEvaluator::Butterfly)
            .select(&d, pc, k, &mut rng()).unwrap();
        let greedy = GreedySelector::fast().select(&d, pc, k, &mut rng()).unwrap();
        if greedy.len() < k {
            // Early exit only happens when nothing improves utility.
            return Ok(());
        }
        let h = |t: &[usize]| {
            answer_entropy(&d, VarSet::from_vars(t.iter().copied()), pc,
                AnswerEvaluator::Butterfly).unwrap()
        };
        prop_assert!(h(&greedy) >= (1.0 - 1.0 / std::f64::consts::E) * h(&opt) - 1e-9);
        prop_assert!(h(&opt) >= h(&greedy) - 1e-9);
    }

    #[test]
    fn sparse_and_dense_answer_tables_agree((d, pc) in (arb_dist(), arb_pc())) {
        // The sparse form of the answer table is the support itself, which
        // the direct evaluators read. Marginalising the dense Table-IV
        // answer table onto any task set must give that set's answer
        // distribution (within PROB_EPSILON) and its entropy, for both
        // evaluators.
        let n = d.num_vars();
        for evaluator in [AnswerEvaluator::Naive, AnswerEvaluator::Butterfly] {
            let table = full_answer_distribution(&d, pc, evaluator, &Pool::serial()).unwrap();
            for bits in 0u64..(1u64 << n) {
                let tasks = VarSet(bits);
                let mut marginal = vec![0.0; 1usize << tasks.len()];
                for (pattern, &p) in table.iter().enumerate() {
                    marginal[Assignment(pattern as u64).extract(tasks) as usize] += p;
                }
                let direct = answer_distribution(&d, tasks, pc, evaluator).unwrap();
                prop_assert_eq!(marginal.len(), direct.len());
                for (x, y) in marginal.iter().zip(&direct) {
                    prop_assert!(
                        (x - y).abs() < crowdfusion_jointdist::PROB_EPSILON,
                        "{:?} diverged at {}: {} vs {}", evaluator, tasks, x, y
                    );
                }
                let want = answer_entropy(&d, tasks, pc, evaluator).unwrap();
                prop_assert!((entropy_of_probs(marginal) - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn sparse_tables_agree_with_the_direct_evaluators((d, pc) in (arb_dist(), arb_pc())) {
        // Past MAX_DENSE_FACTS the preprocessed path scores the support
        // through a ScatterCache. Extending the cache along any task set
        // must reproduce that set's answer entropy.
        let n = d.num_vars();
        let mut scratch = Vec::new();
        for bits in 1u64..(1u64 << n) {
            let tasks = VarSet(bits);
            let facts: Vec<usize> = (0..n).filter(|&f| tasks.contains(f)).collect();
            let (&last, committed) = facts.split_last().unwrap();
            let mut cache = ScatterCache::new(&d);
            for &f in committed {
                cache.extend(f, pc);
            }
            let h = cache.candidate_entropy(last, pc, &mut scratch);
            for evaluator in [AnswerEvaluator::Naive, AnswerEvaluator::Butterfly] {
                let want = answer_entropy(&d, tasks, pc, evaluator).unwrap();
                prop_assert!((h - want).abs() < 1e-10,
                    "{:?} diverged at {}: {} vs {}", evaluator, tasks, h, want);
            }
        }
    }

    #[test]
    fn preprocessed_greedy_matches_the_direct_engine((d, pc) in (arb_dist(), 0.55f64..=1.0)) {
        // The preprocessed path's dense partition refinement must not
        // change any selection of the direct engine, which is what the
        // preprocessed path runs past MAX_DENSE_FACTS. (At exactly
        // Pc = 0.5 every candidate ties at H = |T| bits and the two
        // paths' different floating-point routes may break the tie
        // differently — a pure-noise crowd carries no signal, so the
        // degenerate point is excluded.)
        let k = 3;
        for (preprocessed, direct) in [
            (GreedySelector::fast().with_preprocess(), GreedySelector::fast()),
            (
                GreedySelector::paper_approx().with_preprocess(),
                GreedySelector::paper_approx().with_evaluator(AnswerEvaluator::Butterfly),
            ),
        ] {
            let want = direct.select(&d, pc, k, &mut rng()).unwrap();
            let got = preprocessed.select(&d, pc, k, &mut rng()).unwrap();
            prop_assert_eq!(&got, &want,
                "{} picked {:?}, {} picked {:?}", preprocessed.name(), got, direct.name(), want);
        }
    }

    #[test]
    fn random_selector_valid((d, pc) in (arb_dist(), arb_pc())) {
        let n = d.num_vars();
        let tasks = RandomSelector.select(&d, pc, n + 2, &mut rng()).unwrap();
        prop_assert_eq!(tasks.len(), n);
        let mut sorted = tasks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n);
    }

    #[test]
    fn query_utility_monotone_and_bounded((d, pc) in (arb_dist(), arb_pc())) {
        let n = d.num_vars();
        let interest = VarSet::single(0);
        let h_i = d.restrict(interest).unwrap().entropy();
        let mut tasks = VarSet::EMPTY;
        let mut prev = query_utility(&d, interest, tasks, pc).unwrap();
        prop_assert!((prev + h_i).abs() < 1e-9, "Q(I|∅) must be −H(I)");
        for v in (0..n).rev() {
            tasks = tasks.insert(v);
            let q = query_utility(&d, interest, tasks, pc).unwrap();
            prop_assert!(q >= prev - 1e-9, "query utility decreased");
            prop_assert!(q <= 1e-9, "query utility must stay ≤ 0, got {q}");
            prev = q;
        }
    }

    #[test]
    fn joint_entropy_chain_consistency((d, pc) in (arb_dist(), arb_pc())) {
        // H(I, T) = H(T) + H(I | Ans_T) ≥ H(T); and with I = all facts,
        // H(F, T) = H(F) + |T| H(Pc).
        let n = d.num_vars();
        let interest = VarSet::all(n);
        let tasks = VarSet::single(n - 1);
        let h_it = truth_answer_joint_entropy(&d, interest, tasks, pc).unwrap();
        let expected = d.entropy() + binary_entropy(pc);
        prop_assert!((h_it - expected).abs() < 1e-9);
    }
}

/// Non-proptest determinism check: selection is a pure function of its
/// inputs (no hidden global state).
#[test]
fn selection_is_deterministic() {
    let d = crowdfusion_jointdist::presets::paper_running_example();
    let a = GreedySelector::fast()
        .select(&d, 0.8, 3, &mut rng())
        .unwrap();
    let b = GreedySelector::fast()
        .select(&d, 0.8, 3, &mut rng())
        .unwrap();
    assert_eq!(a, b);
}
