//! Property-based tests for the probability substrate.

use crowdfusion_jointdist::{
    binary_entropy, entropy_of_weights, Assignment, Factor, FactorGraphBuilder, JointDist, VarSet,
};
use proptest::prelude::*;

/// Strategy: a small random joint distribution with 1..=6 variables.
fn arb_dist() -> impl Strategy<Value = JointDist> {
    (1usize..=6).prop_flat_map(|n| {
        let count = 1usize << n;
        proptest::collection::vec(0.0f64..1.0, count).prop_filter_map(
            "needs positive mass",
            move |weights| {
                let entries = weights
                    .iter()
                    .enumerate()
                    .map(|(a, &w)| (Assignment(a as u64), w));
                JointDist::from_weights(n, entries).ok()
            },
        )
    })
}

/// Strategy: a distribution plus a non-empty subset of its variables.
fn dist_and_subset() -> impl Strategy<Value = (JointDist, VarSet)> {
    arb_dist().prop_flat_map(|d| {
        let n = d.num_vars();
        (Just(d), 1u64..(1u64 << n)).prop_map(|(d, bits)| (d, VarSet(bits)))
    })
}

proptest! {
    #[test]
    fn mass_is_one(d in arb_dist()) {
        prop_assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_within_bounds(d in arb_dist()) {
        let h = d.entropy();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= d.num_vars() as f64 + 1e-9);
    }

    #[test]
    fn marginals_in_unit_interval(d in arb_dist()) {
        for m in d.marginals() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&m));
        }
    }

    #[test]
    fn restriction_preserves_mass_and_marginals((d, vars) in dist_and_subset()) {
        let r = d.restrict(vars).unwrap();
        prop_assert_eq!(r.num_vars(), vars.len());
        prop_assert!((r.total_mass() - 1.0).abs() < 1e-9);
        // Marginal of the j-th smallest member must be preserved.
        for (j, v) in vars.iter().enumerate() {
            let orig = d.marginal(v).unwrap();
            let proj = r.marginal(j).unwrap();
            prop_assert!((orig - proj).abs() < 1e-9, "var {} marginal {} vs {}", v, orig, proj);
        }
    }

    #[test]
    fn subset_entropy_monotone((d, vars) in dist_and_subset()) {
        // H(subset) <= H(full set): entropy is monotone over variable sets.
        let hs = d.restrict(vars).unwrap().entropy();
        let hf = d.entropy();
        prop_assert!(hs <= hf + 1e-9, "H(subset)={} > H(full)={}", hs, hf);
    }

    #[test]
    fn conditioning_never_increases_support(d in arb_dist()) {
        for v in 0..d.num_vars() {
            let p = d.marginal(v).unwrap();
            if p > 1e-9 {
                let c = d.condition(v, true).unwrap();
                prop_assert!(c.support_size() <= d.support_size());
                prop_assert!((c.marginal(v).unwrap() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn chain_rule_entropy((d, vars) in dist_and_subset()) {
        // H(full) = H(vars) + H(rest | vars) >= H(vars); verify the
        // decomposition numerically via conditional expansion.
        let rest = VarSet::all(d.num_vars()).difference(vars);
        if rest.is_empty() {
            return Ok(());
        }
        let h_vars = d.restrict(vars).unwrap().entropy();
        let marg = d.restrict(vars).unwrap();
        // H(rest | vars) computed by summing per-assignment entropies.
        let mut h_cond = 0.0;
        for (compact, p) in marg.iter() {
            let full_pattern = Assignment::deposit(compact.0, vars);
            let conditioned = d
                .reweight(|a| if Assignment(a.0 & vars.0) == full_pattern { 1.0 } else { 0.0 })
                .unwrap();
            h_cond += p * conditioned.restrict(rest).unwrap().entropy();
        }
        let total = d.entropy();
        prop_assert!((h_vars + h_cond - total).abs() < 1e-6,
            "chain rule violated: {} + {} != {}", h_vars, h_cond, total);
    }

    #[test]
    fn mutual_information_nonnegative((d, vars) in dist_and_subset()) {
        let rest = VarSet::all(d.num_vars()).difference(vars);
        if rest.is_empty() {
            return Ok(());
        }
        let mi = d.mutual_information(vars, rest).unwrap();
        prop_assert!(mi >= -1e-9);
        // I(A;B) <= min(H(A), H(B)).
        let ha = d.restrict(vars).unwrap().entropy();
        let hb = d.restrict(rest).unwrap().entropy();
        prop_assert!(mi <= ha.min(hb) + 1e-9);
    }

    #[test]
    fn kl_divergence_nonnegative(d in arb_dist(), e in arb_dist()) {
        if d.num_vars() == e.num_vars() {
            let kl = d.kl_divergence(&e).unwrap();
            prop_assert!(kl >= 0.0);
        }
    }

    #[test]
    fn reweight_uniform_factor_is_identity(d in arb_dist(), c in 0.1f64..10.0) {
        let r = d.reweight(|_| c).unwrap();
        for (a, p) in d.iter() {
            prop_assert!((r.prob(a) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn extract_deposit_roundtrip(bits in any::<u64>(), vars_bits in any::<u64>()) {
        let vars = VarSet(vars_bits);
        let a = Assignment(bits);
        let compact = a.extract(vars);
        prop_assert!(vars.len() == 64 || compact < (1u64 << vars.len()));
        let back = Assignment::deposit(compact, vars);
        prop_assert_eq!(Assignment(back.0 & vars.0), Assignment(a.0 & vars.0));
    }

    #[test]
    fn entropy_of_weights_scale_invariant(
        w in proptest::collection::vec(0.0f64..100.0, 1..32),
        s in 0.001f64..1000.0,
    ) {
        let h1 = entropy_of_weights(w.iter().copied());
        let h2 = entropy_of_weights(w.iter().map(|x| x * s));
        prop_assert!((h1 - h2).abs() < 1e-6);
    }

    #[test]
    fn binary_entropy_concave_symmetric(p in 0.0f64..=1.0) {
        let h = binary_entropy(p);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&h));
        prop_assert!((h - binary_entropy(1.0 - p)).abs() < 1e-9);
    }

    #[test]
    fn factor_graph_hard_constraints_hold(
        m in proptest::collection::vec(0.05f64..0.95, 3..=5),
    ) {
        let n = m.len();
        let d = FactorGraphBuilder::new(m)
            .factor(Factor::AtMostOne { vars: VarSet::from_vars([0, 1]), penalty: 0.0 })
            .factor(Factor::Implies { premise: 2, conclusion: 0, penalty: 0.0 })
            .build();
        if let Ok(d) = d {
            for (a, p) in d.iter() {
                prop_assert!(p > 0.0);
                prop_assert!(!(a.get(0) && a.get(1)), "AtMostOne violated");
                prop_assert!(!a.get(2) || a.get(0), "Implies violated");
            }
            prop_assert_eq!(d.num_vars(), n);
        }
    }
}
