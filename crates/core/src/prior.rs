//! Lifting machine-fusion output into a joint prior distribution.
//!
//! "Many existing data fusion methods can be applied to CrowdFusion by
//! considering their result confidence distribution as an input … their
//! result is a (marginal) probability distribution and can be extended to
//! the joint distribution as required" (paper Section VII). This module
//! performs that extension: from per-fact marginals alone (independence) or
//! together with *correlation groups* — sets of statements that are format
//! variants of one another (equivalent) while different groups name
//! conflicting values.

use crate::error::CoreError;
use crowdfusion_jointdist::{Factor, FactorGraphBuilder, JointDist, VarSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default penalty for two equivalent statements disagreeing.
pub const DEFAULT_EQUIV_PENALTY: f64 = 0.35;
/// Default penalty per extra true statement among conflicting groups.
pub const DEFAULT_CONFLICT_PENALTY: f64 = 0.75;

/// Maximum importance-sampling draws for sparse priors beyond the dense
/// limit (reached by maximally hard entities; easier entities draw less,
/// see [`adaptive_sparse_draws`]).
pub const SPARSE_PRIOR_DRAWS: usize = 8_192;

/// Minimum importance-sampling draws for sparse priors: even a trivially
/// easy entity keeps enough support to represent its residual uncertainty.
pub const SPARSE_PRIOR_MIN_DRAWS: usize = 1_024;

/// Draw budget for one entity's sparse prior, scaled by
/// [`crate::hardness::factor_hardness`]: a near-settled entity draws
/// [`SPARSE_PRIOR_MIN_DRAWS`] samples (its posterior mass concentrates on
/// a handful of assignments anyway), a maximally uncertain one the full
/// [`SPARSE_PRIOR_DRAWS`]. Entities whose marginals all sit at 0.5 — the
/// regime every stress test and the paper's large-book experiments use —
/// score hardness 1.0 exactly, so their priors are bit-identical to the
/// historical fixed-cap behaviour.
pub fn adaptive_sparse_draws(marginals: &[f64], groups: &[Vec<usize>]) -> usize {
    let hardness = crate::hardness::factor_hardness(marginals, groups);
    let span = (SPARSE_PRIOR_DRAWS - SPARSE_PRIOR_MIN_DRAWS) as f64;
    SPARSE_PRIOR_MIN_DRAWS + (hardness * span).round() as usize
}

/// Fixed base seed for sparse prior materialisation; combined with the
/// entity's fact count so priors stay a pure function of their inputs
/// (reproducible byte for byte across runs and thread counts).
const SPARSE_PRIOR_SEED: u64 = 0x0043_524F_5746_5553; // "CROWFUS"

/// Builds an independent joint prior from per-fact marginals.
pub fn independent_prior(marginals: &[f64]) -> Result<JointDist, CoreError> {
    Ok(JointDist::independent(marginals)?)
}

/// Builds a correlated joint prior from marginals plus equivalence groups.
///
/// `groups` partitions `0..marginals.len()` (indices not mentioned are
/// implicitly singletons): statements inside one group are softly tied
/// together ([`Factor::Equivalent`], penalty `equiv_penalty` per
/// disagreeing member), while the *representatives* (first members) of
/// different groups are softly mutually exclusive ([`Factor::AtMostOne`],
/// penalty `conflict_penalty` per extra truth) — two different author sets
/// cannot both be the book's author list.
///
/// Up to [`crate::MAX_DENSE_FACTS`] facts the factor graph is
/// materialised exactly by dense enumeration; beyond that (the book
/// entities with 26+ facts the paper's efficiency experiments single
/// out) it switches to the deterministic sparse importance sampler
/// ([`FactorGraphBuilder::build_sparse`], [`adaptive_sparse_draws`] draws
/// from a fixed seed — hardness-scaled between [`SPARSE_PRIOR_MIN_DRAWS`]
/// and [`SPARSE_PRIOR_DRAWS`]), so large entities get a sparse-support
/// prior instead of a hard `TooManyVariables` failure.
pub fn grouped_prior(
    marginals: &[f64],
    groups: &[Vec<usize>],
    equiv_penalty: f64,
    conflict_penalty: f64,
) -> Result<JointDist, CoreError> {
    let n = marginals.len();
    check_groups(groups, n)?;
    let mut builder = FactorGraphBuilder::new(marginals.to_vec());
    let mut representatives = Vec::new();
    for group in groups {
        match group.as_slice() {
            [] => continue,
            [single] => representatives.push(*single),
            members => {
                builder = builder.factor(Factor::Equivalent {
                    vars: VarSet::from_vars(members.iter().copied()),
                    penalty: equiv_penalty,
                });
                representatives.push(members[0]);
            }
        }
    }
    if representatives.len() >= 2 {
        builder = builder.factor(Factor::AtMostOne {
            vars: VarSet::from_vars(representatives),
            penalty: conflict_penalty,
        });
    }
    if n <= crate::MAX_DENSE_FACTS {
        Ok(builder.build()?)
    } else {
        let draws = adaptive_sparse_draws(marginals, groups);
        let mut rng = StdRng::seed_from_u64(SPARSE_PRIOR_SEED ^ n as u64);
        let prior = builder.build_sparse(draws, &mut rng)?;
        // Growth control: the sampler dedups its draws, so today the
        // support cannot exceed the draw budget — but richer generators
        // (merged priors, future samplers) can. The within-budget guard
        // skips `thin_to`'s defensive clone on the common path.
        if prior.support_size() <= draws {
            Ok(prior)
        } else {
            Ok(prior.thin_to(draws)?)
        }
    }
}

/// Checks that `groups` name each fact of `0..n` at most once — the
/// partition [`grouped_prior`] requires — failing with
/// [`CoreError::TaskOutOfRange`] or [`CoreError::DuplicateTask`] for the
/// first index that breaks it. [`crate::session::EntitySpec::validate`]
/// runs the same check, so a spec that validates always builds a prior.
pub(crate) fn check_groups(groups: &[Vec<usize>], n: usize) -> Result<(), CoreError> {
    let mut seen = vec![false; n];
    for &idx in groups.iter().flatten() {
        match seen.get_mut(idx) {
            None => return Err(CoreError::TaskOutOfRange { index: idx, n }),
            Some(true) => return Err(CoreError::DuplicateTask(idx)),
            Some(listed) => *listed = true,
        }
    }
    Ok(())
}

/// Convenience wrapper using the default penalties.
pub fn default_grouped_prior(
    marginals: &[f64],
    groups: &[Vec<usize>],
) -> Result<JointDist, CoreError> {
    grouped_prior(
        marginals,
        groups,
        DEFAULT_EQUIV_PENALTY,
        DEFAULT_CONFLICT_PENALTY,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_prior_keeps_marginals() {
        let p = independent_prior(&[0.2, 0.9]).unwrap();
        assert!((p.marginal(0).unwrap() - 0.2).abs() < 1e-12);
        assert!((p.marginal(1).unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn grouped_prior_ties_variants_together() {
        // Statements 0 and 1 are variants of each other; 2 conflicts.
        let p = grouped_prior(&[0.6, 0.55, 0.5], &[vec![0, 1], vec![2]], 0.1, 0.1).unwrap();
        // Conditioning on statement 0 true must raise statement 1 and
        // lower statement 2.
        let given_true = p.condition(0, true).unwrap();
        let given_false = p.condition(0, false).unwrap();
        assert!(given_true.marginal(1).unwrap() > given_false.marginal(1).unwrap() + 0.2);
        assert!(given_true.marginal(2).unwrap() < given_false.marginal(2).unwrap());
    }

    #[test]
    fn singleton_groups_reduce_to_conflict_only() {
        let p = grouped_prior(&[0.5, 0.5], &[vec![0], vec![1]], 0.25, 0.0).unwrap();
        // Hard conflict: both true impossible.
        assert_eq!(p.prob(crowdfusion_jointdist::Assignment(0b11)), 0.0);
    }

    #[test]
    fn empty_groups_are_ignored() {
        let p = grouped_prior(&[0.5, 0.5], &[vec![], vec![0, 1]], 0.2, 0.3).unwrap();
        assert_eq!(p.num_vars(), 2);
    }

    #[test]
    fn out_of_range_group_rejected() {
        assert!(matches!(
            grouped_prior(&[0.5], &[vec![0, 3]], 0.2, 0.3),
            Err(CoreError::TaskOutOfRange { .. })
        ));
    }

    #[test]
    fn repeated_group_members_rejected() {
        for groups in [vec![vec![1, 1]], vec![vec![0, 1], vec![1, 2]]] {
            assert_eq!(
                grouped_prior(&[0.5; 3], &groups, 0.2, 0.3),
                Err(CoreError::DuplicateTask(1))
            );
        }
    }

    #[test]
    fn defaults_build() {
        let p = default_grouped_prior(&[0.5, 0.5, 0.5], &[vec![0, 1], vec![2]]).unwrap();
        assert_eq!(p.num_vars(), 3);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_entities_get_a_sparse_prior() {
        // 32 facts in four 8-member equivalence groups: dense enumeration
        // is impossible, the sparse importance sampler takes over — and
        // still reflects the correlation structure.
        let n = 32usize;
        let marginals = vec![0.5; n];
        let groups: Vec<Vec<usize>> = (0..4).map(|g| (g * 8..(g + 1) * 8).collect()).collect();
        let p = default_grouped_prior(&marginals, &groups).unwrap();
        assert_eq!(p.num_vars(), n);
        assert!(p.support_size() <= SPARSE_PRIOR_DRAWS);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
        // Group members are positively tied.
        let given_true = p.condition(0, true).unwrap();
        let given_false = p.condition(0, false).unwrap();
        assert!(given_true.marginal(1).unwrap() > given_false.marginal(1).unwrap() + 0.1);
        // Deterministic: same inputs, same prior, byte for byte.
        let again = default_grouped_prior(&marginals, &groups).unwrap();
        assert_eq!(p, again);
    }

    #[test]
    fn sparse_prior_growth_control_thins_to_the_draw_budget() {
        // The routed thinning is the identity while the sampler stays
        // within budget (pinned bit-for-bit above in
        // `large_entities_get_a_sparse_prior`); this exercises the
        // control itself on an overshooting support.
        // Concentrated marginals: the support has a heavy head and a long
        // low-mass tail — the shape growth control exists for.
        let n = 32usize;
        let marginals: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.95 } else { 0.05 })
            .collect();
        let prior = default_grouped_prior(&marginals, &[]).unwrap();
        assert!(prior.support_size() <= SPARSE_PRIOR_DRAWS);
        let over = prior.support_size() / 2;
        let thinned = prior.thin_to(over).unwrap();
        assert_eq!(thinned.support_size(), over);
        assert!((thinned.total_mass() - 1.0).abs() < 1e-9);
        // Trimming the tail moves marginals by less than the sampler's
        // own Monte-Carlo noise floor.
        for (a, b) in prior.marginals().iter().zip(thinned.marginals()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn adaptive_draws_scale_with_hardness() {
        // Easy (near-certain) entities draw fewer samples than hard
        // (maximally uncertain) ones, monotonically, inside the bounds.
        let n = 30usize;
        let easy = adaptive_sparse_draws(&vec![0.02; n], &[]);
        let medium = adaptive_sparse_draws(&vec![0.2; n], &[]);
        let hard = adaptive_sparse_draws(&vec![0.5; n], &[]);
        assert!(easy < medium, "{easy} < {medium}");
        assert!(medium < hard, "{medium} < {hard}");
        assert!(easy >= SPARSE_PRIOR_MIN_DRAWS);
        assert_eq!(
            hard, SPARSE_PRIOR_DRAWS,
            "0.5-marginal entities keep the historical fixed cap"
        );
        // Certain facts need only the floor.
        let certain = adaptive_sparse_draws(&vec![0.0; n], &[]);
        assert_eq!(certain, SPARSE_PRIOR_MIN_DRAWS);
        // Correlation groups make an entity draw more.
        let flat = adaptive_sparse_draws(&vec![0.3; n], &[]);
        let grouped = adaptive_sparse_draws(&vec![0.3; n], &[vec![0, 1, 2]]);
        assert!(flat < grouped, "{flat} < {grouped}");
    }

    #[test]
    fn adaptive_prior_matches_fixed_cap_reference_within_epsilon() {
        use crowdfusion_jointdist::PROB_EPSILON;
        // A hard-0/1 entity collapses to a single support point whatever
        // the draw count, so the adaptive prior must match a reference
        // built with the historical fixed cap to within PROB_EPSILON.
        let n = 30usize;
        let mut marginals = vec![0.0; n];
        marginals[7] = 1.0;
        marginals[19] = 1.0;
        assert_eq!(
            adaptive_sparse_draws(&marginals, &[]),
            SPARSE_PRIOR_MIN_DRAWS
        );
        let adaptive = grouped_prior(&marginals, &[], 0.3, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(SPARSE_PRIOR_SEED ^ n as u64);
        let reference = FactorGraphBuilder::new(marginals.clone())
            .build_sparse(SPARSE_PRIOR_DRAWS, &mut rng)
            .unwrap();
        assert_eq!(adaptive.support_size(), 1);
        assert_eq!(reference.support_size(), 1);
        for (a, r) in adaptive.marginals().iter().zip(reference.marginals()) {
            assert!((a - r).abs() <= PROB_EPSILON, "{a} vs {r}");
        }
        // And the maximally hard regime *is* the fixed cap: bit-identical.
        let marginals = vec![0.5; n];
        let adaptive = grouped_prior(&marginals, &[], 0.3, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(SPARSE_PRIOR_SEED ^ n as u64);
        let reference = FactorGraphBuilder::new(marginals)
            .build_sparse(SPARSE_PRIOR_DRAWS, &mut rng)
            .unwrap();
        assert_eq!(adaptive, reference);
    }

    #[test]
    fn boundary_between_dense_and_sparse_priors() {
        use crate::MAX_DENSE_FACTS;
        // n == MAX_DENSE_FACTS still builds densely. Hard 0/1 marginals
        // keep the check cheap: the enumeration's zero-weight early exit
        // discards almost every assignment after one factor, collapsing
        // the support to a single point mass.
        let mut marginals = vec![0.0; MAX_DENSE_FACTS];
        marginals[3] = 1.0;
        let p = grouped_prior(&marginals, &[], 0.3, 0.7).unwrap();
        assert_eq!(p.num_vars(), MAX_DENSE_FACTS);
        assert_eq!(p.support_size(), 1);
        // n == MAX_DENSE_FACTS + 1 routes to the sparse sampler instead
        // of failing.
        let marginals = vec![0.5; MAX_DENSE_FACTS + 1];
        let p = grouped_prior(&marginals, &[vec![0, 1]], 0.3, 0.7).unwrap();
        assert_eq!(p.num_vars(), MAX_DENSE_FACTS + 1);
        assert!(p.support_size() <= SPARSE_PRIOR_DRAWS);
    }
}
