//! The [`JointDist`] type: a normalised sparse joint distribution.

use crate::entropy::entropy_of_probs;
use crate::error::JointError;
use crate::factor::FactorGraphBuilder;
use crate::mask::{Assignment, VarSet};
use crate::{MAX_DENSE_VARS, PROB_EPSILON};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A normalised joint probability distribution over `n` Bernoulli variables,
/// stored sparsely as `(assignment, probability)` pairs sorted by assignment.
///
/// This corresponds to the paper's *output set* `O` with probabilities
/// `P(o_i)` (Section II-A, Table II). The support contains only assignments
/// with strictly positive probability; entries are unique and sorted, and the
/// probabilities sum to 1 (up to floating-point round-off; every constructor
/// renormalises).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointDist {
    n: usize,
    entries: Vec<(Assignment, f64)>,
}

impl JointDist {
    /// Builds a distribution from raw `(assignment, weight)` pairs.
    ///
    /// Weights must be finite and non-negative; duplicates are merged; zero
    /// weights are dropped; the result is normalised. Assignment bits at or
    /// above `n` must be zero.
    pub fn from_weights(
        n: usize,
        weights: impl IntoIterator<Item = (Assignment, f64)>,
    ) -> Result<JointDist, JointError> {
        check_var_count(n)?;
        let mut merged: BTreeMap<Assignment, f64> = BTreeMap::new();
        for (a, w) in weights {
            check_entry(n, a, w)?;
            if w > 0.0 {
                *merged.entry(a).or_insert(0.0) += w;
            }
        }
        JointDist::normalised(n, merged.into_iter().collect())
    }

    /// [`JointDist::from_weights`] for weights whose assignments are
    /// already strictly increasing — a dense enumeration, a `BTreeMap`
    /// histogram, or a reweighted support — so no merge is needed. Keeps
    /// `from_weights`' contract (non-finite or negative weights and bits at
    /// or above `n` are rejected, zeros dropped) and rejects unsorted or
    /// duplicate assignments instead of merging them.
    pub(crate) fn from_sorted_weights(
        n: usize,
        mut entries: Vec<(Assignment, f64)>,
    ) -> Result<JointDist, JointError> {
        check_sorted_entries(n, &entries)?;
        entries.retain(|&(_, w)| w > 0.0);
        JointDist::normalised(n, entries)
    }

    /// Checks the invariants every constructor establishes, for a
    /// distribution that arrived some other way (deserialised from a
    /// snapshot): the support checks of the sorted-weights constructor
    /// (at most 64 variables, strictly increasing assignments on no
    /// variable at or above `n`, finite non-negative probabilities), a
    /// non-empty support, and a total mass within [`PROB_EPSILON`] of 1.
    ///
    /// Never renormalises: a distribution that passes is used bit for bit,
    /// and one that fails is an error rather than a repaired guess.
    pub fn validate(&self) -> Result<(), JointError> {
        check_sorted_entries(self.n, &self.entries)?;
        if self.entries.is_empty() {
            return Err(JointError::EmptySupport);
        }
        // Entries are finite, so the mass is a number (at worst +inf).
        let mass = self.total_mass();
        if (mass - 1.0).abs() > PROB_EPSILON {
            return Err(JointError::NotNormalised(mass));
        }
        Ok(())
    }

    /// Normalises sorted, duplicate-free, strictly positive weights.
    fn normalised(n: usize, mut entries: Vec<(Assignment, f64)>) -> Result<JointDist, JointError> {
        if entries.is_empty() {
            return Err(JointError::EmptySupport);
        }
        let total: f64 = entries.iter().map(|&(_, w)| w).sum();
        normalise(&mut entries, total)?;
        Ok(JointDist { n, entries })
    }

    /// The uniform distribution over all `2^n` assignments (the paper's
    /// "simply set to uniform distribution" initialisation, Section III).
    pub fn uniform(n: usize) -> Result<JointDist, JointError> {
        if n > MAX_DENSE_VARS {
            return Err(JointError::TooManyVariables {
                requested: n,
                limit: MAX_DENSE_VARS,
            });
        }
        let count = 1u64 << n;
        let p = 1.0 / count as f64;
        Ok(JointDist {
            n,
            entries: (0..count).map(|a| (Assignment(a), p)).collect(),
        })
    }

    /// A product distribution from independent per-variable marginals
    /// `P(f_i = true)`: the factor graph with no factors.
    pub fn independent(marginals: &[f64]) -> Result<JointDist, JointError> {
        FactorGraphBuilder::new(marginals.to_vec()).build()
    }

    /// A point-mass distribution on a single assignment.
    pub fn certain(n: usize, truth: Assignment) -> Result<JointDist, JointError> {
        JointDist::from_weights(n, [(truth, 1.0)])
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of assignments with positive probability.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Iterates `(assignment, probability)` pairs in assignment order.
    pub fn iter(&self) -> impl Iterator<Item = (Assignment, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The sorted support entries as a slice.
    pub fn entries(&self) -> &[(Assignment, f64)] {
        &self.entries
    }

    /// Probability of an exact assignment (0 if outside the support).
    pub fn prob(&self, a: Assignment) -> f64 {
        match self.entries.binary_search_by_key(&a, |&(e, _)| e) {
            Ok(idx) => self.entries[idx].1,
            Err(_) => 0.0,
        }
    }

    /// Marginal probability `P(f_var = true)` — the paper's `P(f_k)`
    /// (`= Σ_{o_i ∈ O_k} P(o_i)`, Section II-A).
    pub fn marginal(&self, var: usize) -> Result<f64, JointError> {
        if var >= self.n {
            return Err(JointError::VariableOutOfRange { var, n: self.n });
        }
        Ok(self
            .entries
            .iter()
            .filter(|(a, _)| a.get(var))
            .map(|(_, p)| p)
            .sum())
    }

    /// All per-variable marginals.
    ///
    /// Iterates only the *set* bits of each support assignment
    /// (`O(|O| · popcount)` rather than `O(|O| · n)`): a variable
    /// contributes to `P(f_v = true)` only through assignments where its
    /// bit is set, so the cleared bits never need visiting.
    pub fn marginals(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.n];
        for &(a, p) in &self.entries {
            let mut bits = a.0;
            while bits != 0 {
                m[bits.trailing_zeros() as usize] += p;
                bits &= bits - 1;
            }
        }
        m
    }

    /// Projects (marginalises) the distribution onto the variables in `vars`,
    /// re-indexing them compactly in increasing original order.
    ///
    /// The result has `vars.len()` variables; variable `j` of the result is
    /// the `j`-th smallest member of `vars`.
    pub fn restrict(&self, vars: VarSet) -> Result<JointDist, JointError> {
        let valid = VarSet::all(self.n);
        if vars.difference(valid) != VarSet::EMPTY {
            let bad = vars.difference(valid).iter().next().unwrap_or(self.n);
            return Err(JointError::VariableOutOfRange {
                var: bad,
                n: self.n,
            });
        }
        let mut merged: BTreeMap<Assignment, f64> = BTreeMap::new();
        for &(a, p) in &self.entries {
            *merged.entry(Assignment(a.extract(vars))).or_insert(0.0) += p;
        }
        JointDist::from_sorted_weights(vars.len(), merged.into_iter().collect())
    }

    /// Shannon entropy `H` of the joint distribution, in bits.
    ///
    /// The paper's utility (Definition 1) is `Q(F) = −H(F)`; see
    /// [`JointDist::utility`].
    pub fn entropy(&self) -> f64 {
        entropy_of_probs(self.entries.iter().map(|&(_, p)| p))
    }

    /// The PWS-quality utility `Q(F) = −H(F)` (Definition 1).
    pub fn utility(&self) -> f64 {
        -self.entropy()
    }

    /// Reweights every support entry by `factor(assignment)` and
    /// renormalises — the generic Bayesian-update primitive. `factor` must
    /// return finite non-negative likelihoods.
    pub fn reweight(
        &self,
        mut factor: impl FnMut(Assignment) -> f64,
    ) -> Result<JointDist, JointError> {
        JointDist::from_sorted_weights(
            self.n,
            self.entries
                .iter()
                .map(|&(a, p)| (a, p * factor(a)))
                .collect(),
        )
        .map_err(|e| match e {
            JointError::EmptySupport => JointError::ZeroMass,
            other => other,
        })
    }

    /// In-place [`JointDist::reweight`]: multiplies each entry by
    /// `factor(assignment)`, drops entries whose renormalised probability
    /// falls below the support threshold, and renormalises — reusing the
    /// sorted entry vector, which reweighting keeps sorted and
    /// duplicate-free.
    ///
    /// This is the per-round Bayesian-update fast path: the merge of
    /// Equation 3 runs every round on every entity. Produces bit-identical
    /// results to `reweight` (the arithmetic sequence is the same).
    ///
    /// On `Err` the distribution may hold partially reweighted,
    /// unnormalised entries and must not be used further; clone first if
    /// the pre-update state matters (as [`JointDist::reweight`] does).
    pub fn reweight_in_place(
        &mut self,
        mut factor: impl FnMut(Assignment) -> f64,
    ) -> Result<(), JointError> {
        let mut total = 0.0f64;
        for (a, p) in self.entries.iter_mut() {
            let w = *p * factor(*a);
            if !w.is_finite() || w < 0.0 {
                return Err(JointError::InvalidProbability(w));
            }
            *p = w;
            total += w;
        }
        normalise(&mut self.entries, total)
    }

    /// Conditions on `f_var = value`, renormalising over the surviving
    /// assignments.
    pub fn condition(&self, var: usize, value: bool) -> Result<JointDist, JointError> {
        if var >= self.n {
            return Err(JointError::VariableOutOfRange { var, n: self.n });
        }
        self.reweight(|a| if a.get(var) == value { 1.0 } else { 0.0 })
    }

    /// Mutual information `I(A; B)` in bits between two disjoint variable
    /// sets.
    pub fn mutual_information(&self, a: VarSet, b: VarSet) -> Result<f64, JointError> {
        if a.intersect(b) != VarSet::EMPTY {
            return Err(JointError::DegenerateFactor(
                "mutual information requires disjoint variable sets",
            ));
        }
        let ha = self.restrict(a)?.entropy();
        let hb = self.restrict(b)?.entropy();
        let hab = self.restrict(a.union(b))?.entropy();
        Ok((ha + hb - hab).max(0.0))
    }

    /// Kullback–Leibler divergence `D(self ‖ other)` in bits. Returns
    /// `f64::INFINITY` when `self` puts mass where `other` has none.
    pub fn kl_divergence(&self, other: &JointDist) -> Result<f64, JointError> {
        if self.n != other.n {
            return Err(JointError::VariableOutOfRange {
                var: other.n,
                n: self.n,
            });
        }
        let mut kl = 0.0;
        for &(a, p) in &self.entries {
            let q = other.prob(a);
            if q <= 0.0 {
                return Ok(f64::INFINITY);
            }
            kl += p * (p / q).log2();
        }
        Ok(kl.max(0.0))
    }

    /// Total probability mass (should always be ≈ 1; exposed for tests and
    /// diagnostics).
    pub fn total_mass(&self) -> f64 {
        self.entries.iter().map(|&(_, p)| p).sum()
    }

    /// Predicted truth assignment by thresholding each marginal at `0.5`.
    pub fn map_truth(&self) -> Assignment {
        let mut a = Assignment::ALL_FALSE;
        for (v, m) in self.marginals().into_iter().enumerate() {
            if m >= 0.5 {
                a = a.with(v, true);
            }
        }
        a
    }

    /// The single most probable assignment (maximum a posteriori over the
    /// joint, not the marginals).
    pub fn mode(&self) -> Assignment {
        self.entries
            .iter()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|&(a, _)| a)
            .unwrap_or(Assignment::ALL_FALSE)
    }
}

/// Assignments are `u64` bitmasks: at most 64 variables.
fn check_var_count(n: usize) -> Result<(), JointError> {
    if n > 64 {
        return Err(JointError::TooManyVariables {
            requested: n,
            limit: 64,
        });
    }
    Ok(())
}

/// The support checks of [`JointDist::from_sorted_weights`]: a valid
/// variable count, then every entry valid and strictly above the last.
fn check_sorted_entries(n: usize, entries: &[(Assignment, f64)]) -> Result<(), JointError> {
    check_var_count(n)?;
    let mut previous = None;
    for &(a, w) in entries {
        check_entry(n, a, w)?;
        if previous.is_some_and(|p| p >= a) {
            return Err(JointError::UnsortedSupport);
        }
        previous = Some(a);
    }
    Ok(())
}

/// One raw weight of [`JointDist::from_weights`]: finite, non-negative, and
/// on no variable at or above `n`.
fn check_entry(n: usize, a: Assignment, w: f64) -> Result<(), JointError> {
    if !w.is_finite() || w < 0.0 {
        return Err(JointError::InvalidProbability(w));
    }
    let stray = a.0 & !VarSet::all(n).0;
    if stray != 0 {
        return Err(JointError::VariableOutOfRange {
            var: (63 - stray.leading_zeros()) as usize,
            n,
        });
    }
    Ok(())
}

/// The normalise–trim–renormalise sequence every constructor and update
/// ends with: divide each weight by `total` (the weights' sum, in entry
/// order), drop the entries at or below [`PROB_EPSILON`], and renormalise
/// the survivors so they sum to 1. Keeping it in one place keeps every
/// path rounding identically.
///
/// Fails with [`JointError::ZeroMass`] when `total` is not a positive
/// finite number or every entry is trimmed.
///
/// Always inlined: as a call, the per-round update (`reweight_in_place`,
/// behind every round close) measured ~7% slower at round close.
#[inline(always)]
fn normalise(entries: &mut Vec<(Assignment, f64)>, total: f64) -> Result<(), JointError> {
    if total <= 0.0 || !total.is_finite() {
        return Err(JointError::ZeroMass);
    }
    entries.retain_mut(|(_, p)| {
        *p /= total;
        *p > PROB_EPSILON
    });
    if entries.is_empty() {
        return Err(JointError::ZeroMass);
    }
    let total: f64 = entries.iter().map(|&(_, p)| p).sum();
    for (_, p) in entries.iter_mut() {
        *p /= total;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// The running example of the paper, Table II (f1..f4 = vars 0..3).
    fn running_example() -> JointDist {
        crate::presets::paper_running_example()
    }

    #[test]
    fn running_example_marginals_match_table_one() {
        let d = running_example();
        assert!(close(d.marginal(0).unwrap(), 0.50)); // f1 Continent Asia
        assert!(close(d.marginal(1).unwrap(), 0.63)); // f2 Population
        assert!(close(d.marginal(2).unwrap(), 0.58)); // f3 Ethnic group
        assert!(close(d.marginal(3).unwrap(), 0.49)); // f4 Continent Europe
        let m = d.marginals();
        assert!(close(m[0], 0.50) && close(m[3], 0.49));
    }

    #[test]
    fn from_weights_normalises_and_merges() {
        let d = JointDist::from_weights(
            2,
            [
                (Assignment(0), 1.0),
                (Assignment(1), 2.0),
                (Assignment(1), 1.0),
            ],
        )
        .unwrap();
        assert_eq!(d.support_size(), 2);
        assert!(close(d.prob(Assignment(0)), 0.25));
        assert!(close(d.prob(Assignment(1)), 0.75));
        assert!(close(d.total_mass(), 1.0));
    }

    #[test]
    fn from_weights_rejects_bad_input() {
        assert!(matches!(
            JointDist::from_weights(2, [(Assignment(0), -1.0)]),
            Err(JointError::InvalidProbability(_))
        ));
        assert!(matches!(
            JointDist::from_weights(2, [(Assignment(0), f64::NAN)]),
            Err(JointError::InvalidProbability(_))
        ));
        assert!(matches!(
            JointDist::from_weights(2, std::iter::empty()),
            Err(JointError::EmptySupport)
        ));
        assert!(matches!(
            JointDist::from_weights(2, [(Assignment(0b100), 1.0)]),
            Err(JointError::VariableOutOfRange { .. })
        ));
        assert!(matches!(
            JointDist::from_weights(65, [(Assignment(0), 1.0)]),
            Err(JointError::TooManyVariables { .. })
        ));
        assert!(matches!(
            JointDist::from_weights(2, [(Assignment(0), 0.0)]),
            Err(JointError::EmptySupport)
        ));
    }

    #[test]
    fn from_sorted_weights_keeps_the_from_weights_contract() {
        let sorted = |entries: &[(u64, f64)]| {
            JointDist::from_sorted_weights(
                2,
                entries.iter().map(|&(a, w)| (Assignment(a), w)).collect(),
            )
        };
        // Zeros are dropped and the rest normalised exactly like the merge.
        let raw = [(0, 1.0), (1, 0.0), (2, 3.0), (3, 1e-14)];
        let d = sorted(&raw).unwrap();
        assert_eq!(d.support_size(), 2);
        assert_eq!(
            d,
            JointDist::from_weights(2, raw.map(|(a, w)| (Assignment(a), w))).unwrap()
        );
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                sorted(&[(0, 1.0), (1, bad)]),
                Err(JointError::InvalidProbability(_))
            ));
        }
        assert_eq!(
            sorted(&[(0, 1.0), (0b100, 1.0)]),
            Err(JointError::VariableOutOfRange { var: 2, n: 2 })
        );
        assert_eq!(sorted(&[(1, 0.0)]), Err(JointError::EmptySupport));
        assert!(matches!(
            JointDist::from_sorted_weights(65, vec![(Assignment(0), 1.0)]),
            Err(JointError::TooManyVariables { .. })
        ));
        // Unsorted or duplicate assignments are an error, never merged.
        for unsorted in [[(1, 1.0), (0, 1.0)], [(1, 1.0), (1, 2.0)]] {
            assert_eq!(sorted(&unsorted), Err(JointError::UnsortedSupport));
        }
    }

    #[test]
    fn uniform_entropy_is_n_bits() {
        let d = JointDist::uniform(5).unwrap();
        assert_eq!(d.support_size(), 32);
        assert!(close(d.entropy(), 5.0));
        assert!(close(d.utility(), -5.0));
        assert!(JointDist::uniform(MAX_DENSE_VARS + 1).is_err());
    }

    #[test]
    fn independent_matches_product() {
        let d = JointDist::independent(&[0.5, 0.9]).unwrap();
        // var0 bit0, var1 bit1
        assert!(close(d.prob(Assignment(0b00)), 0.5 * 0.1));
        assert!(close(d.prob(Assignment(0b01)), 0.5 * 0.1));
        assert!(close(d.prob(Assignment(0b10)), 0.5 * 0.9));
        assert!(close(d.prob(Assignment(0b11)), 0.5 * 0.9));
        assert!(close(d.marginal(0).unwrap(), 0.5));
        assert!(close(d.marginal(1).unwrap(), 0.9));
    }

    #[test]
    fn independent_rejects_bad_marginals() {
        assert!(matches!(
            JointDist::independent(&[0.5, 1.5]),
            Err(JointError::MarginalOutOfRange { var: 1, .. })
        ));
        assert!(JointDist::independent(&vec![0.5; MAX_DENSE_VARS + 1]).is_err());
    }

    #[test]
    fn independent_degenerate_marginals_shrink_support() {
        let d = JointDist::independent(&[1.0, 0.5, 0.0]).unwrap();
        assert_eq!(d.support_size(), 2);
        assert!(close(d.marginal(0).unwrap(), 1.0));
        assert!(close(d.marginal(2).unwrap(), 0.0));
    }

    #[test]
    fn certain_has_zero_entropy() {
        let d = JointDist::certain(3, Assignment(0b101)).unwrap();
        assert_eq!(d.support_size(), 1);
        assert!(close(d.entropy(), 0.0));
        assert_eq!(d.mode(), Assignment(0b101));
        assert_eq!(d.map_truth(), Assignment(0b101));
    }

    #[test]
    fn restrict_projects_and_reindexes() {
        let d = running_example();
        // Restrict to {f2, f4} = vars {1, 3} -> new vars (0 = f2, 1 = f4).
        let r = d.restrict(VarSet::from_vars([1, 3])).unwrap();
        assert_eq!(r.num_vars(), 2);
        assert!(close(r.marginal(0).unwrap(), 0.63));
        assert!(close(r.marginal(1).unwrap(), 0.49));
        assert!(close(r.total_mass(), 1.0));
        assert!(d.restrict(VarSet::from_vars([7])).is_err());
    }

    #[test]
    fn restrict_to_all_is_identity() {
        let d = running_example();
        let r = d.restrict(VarSet::all(4)).unwrap();
        assert_eq!(r, d);
    }

    #[test]
    fn condition_running_example() {
        let d = running_example();
        // Conditioning on f1 = true: mass 0.5, o9 (TFFF) had 0.04 -> 0.08.
        let c = d.condition(0, true).unwrap();
        assert!(close(c.marginal(0).unwrap(), 1.0));
        assert!(close(c.prob(Assignment(0b0001)), 0.08));
        assert!(c.support_size() <= 8);
        assert!(d.condition(9, true).is_err());
    }

    #[test]
    fn reweight_zero_mass_fails() {
        let d = JointDist::uniform(2).unwrap();
        assert!(matches!(d.reweight(|_| 0.0), Err(JointError::ZeroMass)));
        let mut m = d.clone();
        assert!(matches!(
            m.reweight_in_place(|_| 0.0),
            Err(JointError::ZeroMass)
        ));
        let mut m = d;
        assert!(matches!(
            m.reweight_in_place(|_| f64::NAN),
            Err(JointError::InvalidProbability(_))
        ));
    }

    #[test]
    fn reweight_in_place_matches_reweight_exactly() {
        // The fast path must be bit-identical to the merge-based one on
        // every entry, including the support trimming behaviour.
        let d = running_example();
        let factors: [fn(Assignment) -> f64; 3] = [
            |a| if a.get(0) { 0.8 } else { 0.2 },
            |a| (a.count_true() as f64 + 0.5) * 0.125,
            // Drives most entries under the support threshold.
            |a| if a.0 == 0b0001 { 1.0 } else { 1e-15 },
        ];
        for factor in factors {
            let merged = d.reweight(factor).unwrap();
            let mut fast = d.clone();
            fast.reweight_in_place(factor).unwrap();
            assert_eq!(merged, fast);
        }
    }

    #[test]
    fn marginals_match_per_variable_queries() {
        let d = running_example();
        for (v, &mv) in d.marginals().iter().enumerate() {
            assert!(close(mv, d.marginal(v).unwrap()));
        }
        // All-false support entries exercise the zero-popcount path.
        let p =
            JointDist::from_weights(3, [(Assignment(0), 1.0), (Assignment(0b110), 1.0)]).unwrap();
        let m = p.marginals();
        assert!(close(m[0], 0.0) && close(m[1], 0.5) && close(m[2], 0.5));
    }

    #[test]
    fn reweight_bayes_matches_manual() {
        let d = running_example();
        // Ask f1, answer "true" with Pc = 0.8 (paper Section III-A).
        let pc = 0.8;
        let posterior = d
            .reweight(|a| if a.get(0) { pc } else { 1.0 - pc })
            .unwrap();
        // P(o1 | e) = 0.03 * 0.2 / 0.5 = 0.012
        assert!(close(posterior.prob(Assignment(0b0000)), 0.012));
        // P(o9 | e) = 0.04 * 0.8 / 0.5 = 0.064
        assert!(close(posterior.prob(Assignment(0b0001)), 0.064));
    }

    #[test]
    fn mutual_information_nonnegative_and_zero_for_independent() {
        let d = JointDist::independent(&[0.3, 0.7, 0.5]).unwrap();
        let mi = d
            .mutual_information(VarSet::single(0), VarSet::from_vars([1, 2]))
            .unwrap();
        assert!(close(mi, 0.0));
        let e = running_example();
        let mi = e
            .mutual_information(VarSet::single(0), VarSet::single(3))
            .unwrap();
        assert!(mi >= 0.0);
        assert!(e
            .mutual_information(VarSet::single(0), VarSet::from_vars([0, 1]))
            .is_err());
    }

    #[test]
    fn kl_divergence_properties() {
        let d = running_example();
        assert!(close(d.kl_divergence(&d).unwrap(), 0.0));
        let u = JointDist::uniform(4).unwrap();
        let kl = d.kl_divergence(&u).unwrap();
        assert!(kl > 0.0 && kl.is_finite());
        let point = JointDist::certain(4, Assignment(0)).unwrap();
        assert_eq!(d.kl_divergence(&point).unwrap(), f64::INFINITY);
        let other_n = JointDist::uniform(3).unwrap();
        assert!(d.kl_divergence(&other_n).is_err());
    }

    #[test]
    fn prob_outside_support_is_zero() {
        let d = JointDist::certain(3, Assignment(0b001)).unwrap();
        assert_eq!(d.prob(Assignment(0b010)), 0.0);
    }

    #[test]
    fn validate_accepts_constructed_and_rejects_broken_supports() {
        for d in [
            running_example(),
            JointDist::uniform(5).unwrap(),
            JointDist::certain(3, Assignment(0b101)).unwrap(),
            JointDist::independent(&[0.9, 0.5, 0.1, 0.7]).unwrap(),
        ] {
            assert_eq!(d.validate(), Ok(()));
        }
        let broken = |entries: &[(u64, f64)]| JointDist {
            n: 3,
            entries: entries.iter().map(|&(a, p)| (Assignment(a), p)).collect(),
        };
        assert_eq!(
            broken(&[(3, 0.5), (1, 0.5)]).validate(),
            Err(JointError::UnsortedSupport)
        );
        assert_eq!(
            broken(&[(1, 0.5), (1, 0.5)]).validate(),
            Err(JointError::UnsortedSupport)
        );
        assert_eq!(
            broken(&[(0, 0.5), (8, 0.5)]).validate(),
            Err(JointError::VariableOutOfRange { var: 3, n: 3 })
        );
        assert_eq!(
            broken(&[(0, 4.0), (1, 4.0)]).validate(),
            Err(JointError::NotNormalised(8.0))
        );
        assert_eq!(
            broken(&[(0, 1.5), (1, -0.5)]).validate(),
            Err(JointError::InvalidProbability(-0.5))
        );
        assert_eq!(broken(&[]).validate(), Err(JointError::EmptySupport));
        // Round-off within PROB_EPSILON is a distribution; more is not.
        assert_eq!(broken(&[(0, 0.5), (1, 0.5 + 1e-13)]).validate(), Ok(()));
        assert!(broken(&[(0, 0.5), (1, 0.5 + 1e-11)]).validate().is_err());
    }
}
