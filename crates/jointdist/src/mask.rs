//! Bitmask types for truth assignments and variable subsets.
//!
//! Both types wrap a `u64`, supporting up to 64 variables. The distinction
//! between *assignments* (bit `i` is the truth value of variable `i`) and
//! *variable sets* (bit `i` means variable `i` is a member) is kept at the
//! type level because mixing them up is an easy and silent bug.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A truth assignment to variables `0..n`: bit `i` set means variable `i` is
/// judged *true*. This is what the paper calls an *output* `o_i` (Table II)
/// and, for selected tasks, an *answer set* `Ans_i` (Table IV).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Assignment(pub u64);

/// A set of variable indices: bit `i` set means variable `i` is a member.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct VarSet(pub u64);

impl Assignment {
    /// The all-false assignment.
    pub const ALL_FALSE: Assignment = Assignment(0);

    /// Returns the truth value assigned to variable `var`.
    #[inline]
    pub fn get(self, var: usize) -> bool {
        debug_assert!(var < 64);
        (self.0 >> var) & 1 == 1
    }

    /// Returns a copy with variable `var` set to `value`.
    #[inline]
    #[must_use]
    pub fn with(self, var: usize, value: bool) -> Assignment {
        debug_assert!(var < 64);
        if value {
            Assignment(self.0 | (1 << var))
        } else {
            Assignment(self.0 & !(1 << var))
        }
    }

    /// Number of variables assigned true.
    #[inline]
    pub fn count_true(self) -> u32 {
        self.0.count_ones()
    }

    /// Hamming distance to another assignment, restricted to `vars`.
    ///
    /// This is the `#Diff` count of Equation 2 in the paper: the number of
    /// selected facts on which two judgments disagree.
    #[inline]
    pub fn hamming_on(self, other: Assignment, vars: VarSet) -> u32 {
        ((self.0 ^ other.0) & vars.0).count_ones()
    }

    /// Restricts the assignment to the variables in `vars`, compacting the
    /// surviving bits into the low-order positions (in increasing variable
    /// order). The result indexes a dense table of size `2^|vars|`.
    ///
    /// This is a software `PEXT` (parallel bit extract). A low run of
    /// variables (`0..t`, including the full set) is already compact, so
    /// its restriction is the plain mask.
    #[inline]
    pub fn extract(self, vars: VarSet) -> u64 {
        if vars.0 & vars.0.wrapping_add(1) == 0 {
            return self.0 & vars.0;
        }
        pext(self.0, vars.0)
    }

    /// Inverse of [`Assignment::extract`]: scatters the low `|vars|` bits of
    /// `compact` into the positions selected by `vars` (software `PDEP`).
    #[inline]
    pub fn deposit(compact: u64, vars: VarSet) -> Assignment {
        let mut mask = vars.0;
        let mut out = 0u64;
        let mut in_bit = 0u32;
        while mask != 0 {
            let low = mask & mask.wrapping_neg();
            if (compact >> in_bit) & 1 == 1 {
                out |= low;
            }
            mask &= !low;
            in_bit += 1;
        }
        Assignment(out)
    }

    /// Renders the assignment as a `T`/`F` string over `n` variables,
    /// variable 0 first — the row format of the paper's Tables II and IV.
    pub fn display(self, n: usize) -> String {
        (0..n)
            .map(|i| if self.get(i) { 'T' } else { 'F' })
            .collect()
    }
}

impl VarSet {
    /// The empty variable set.
    pub const EMPTY: VarSet = VarSet(0);

    /// A set containing all of `0..n`.
    #[inline]
    pub fn all(n: usize) -> VarSet {
        debug_assert!(n <= 64);
        if n == 64 {
            VarSet(u64::MAX)
        } else {
            VarSet((1u64 << n) - 1)
        }
    }

    /// A singleton set.
    #[inline]
    pub fn single(var: usize) -> VarSet {
        debug_assert!(var < 64);
        VarSet(1 << var)
    }

    /// Builds a set from an iterator of variable indices.
    pub fn from_vars<I: IntoIterator<Item = usize>>(vars: I) -> VarSet {
        let mut bits = 0u64;
        for v in vars {
            debug_assert!(v < 64);
            bits |= 1 << v;
        }
        VarSet(bits)
    }

    /// Number of member variables.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, var: usize) -> bool {
        debug_assert!(var < 64);
        (self.0 >> var) & 1 == 1
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub fn intersect(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    #[must_use]
    pub fn difference(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// Inserts a variable, returning the extended set.
    #[inline]
    #[must_use]
    pub fn insert(self, var: usize) -> VarSet {
        debug_assert!(var < 64);
        VarSet(self.0 | (1 << var))
    }

    /// Removes a variable, returning the shrunk set.
    #[inline]
    #[must_use]
    pub fn remove(self, var: usize) -> VarSet {
        debug_assert!(var < 64);
        VarSet(self.0 & !(1 << var))
    }

    /// Iterates member variable indices in increasing order.
    pub fn iter(self) -> VarSetIter {
        VarSetIter(self.0)
    }

    /// Collects member variable indices in increasing order.
    pub fn to_vec(self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "f{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for VarSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        VarSet::from_vars(iter)
    }
}

/// Iterator over the member variables of a [`VarSet`].
#[derive(Debug, Clone)]
pub struct VarSetIter(u64);

impl Iterator for VarSetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let v = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(v)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for VarSetIter {}

/// The bit-by-bit parallel extract behind [`Assignment::extract`]: the
/// bits of `src` under `mask`, compacted into the low positions.
#[inline]
fn pext(src: u64, mask: u64) -> u64 {
    let mut src = src & mask;
    let mut mask = mask;
    let mut out = 0u64;
    let mut out_bit = 0u32;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        if src & low != 0 {
            out |= 1 << out_bit;
        }
        src &= !low;
        mask &= !low;
        out_bit += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_get_with_roundtrip() {
        let a = Assignment::ALL_FALSE.with(3, true).with(0, true);
        assert!(a.get(0));
        assert!(!a.get(1));
        assert!(a.get(3));
        assert_eq!(a.count_true(), 2);
        let b = a.with(3, false);
        assert!(!b.get(3));
        assert_eq!(b.count_true(), 1);
    }

    #[test]
    fn hamming_restricted_counts_only_selected() {
        let a = Assignment(0b1010);
        let b = Assignment(0b0110);
        // Differ in bits 2 and 3.
        assert_eq!(a.hamming_on(b, VarSet::all(4)), 2);
        assert_eq!(a.hamming_on(b, VarSet::from_vars([2])), 1);
        assert_eq!(a.hamming_on(b, VarSet::from_vars([0, 1])), 0);
    }

    #[test]
    fn extract_compacts_bits_in_order() {
        // vars {1, 3}: assignment bits (b3, b1) -> compact (bit1=b3, bit0=b1)
        let vars = VarSet::from_vars([1, 3]);
        assert_eq!(Assignment(0b1010).extract(vars), 0b11);
        assert_eq!(Assignment(0b1000).extract(vars), 0b10);
        assert_eq!(Assignment(0b0010).extract(vars), 0b01);
        assert_eq!(Assignment(0b0101).extract(vars), 0b00);
    }

    #[test]
    fn extract_of_a_low_run_matches_the_pext_loop() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in 0..=64 {
            let vars = VarSet::all(n);
            for a in [0, 1, 0b1011, u64::MAX, x, !x] {
                assert_eq!(
                    Assignment(a).extract(vars),
                    pext(a, vars.0),
                    "{a:#x} on 0..{n}"
                );
            }
            x = x.rotate_left(7) ^ (x >> 3);
        }
    }

    #[test]
    fn deposit_inverts_extract() {
        let vars = VarSet::from_vars([0, 2, 5]);
        for compact in 0..8u64 {
            let scattered = Assignment::deposit(compact, vars);
            assert_eq!(scattered.extract(vars), compact);
            // No stray bits outside the set.
            assert_eq!(scattered.0 & !vars.0, 0);
        }
    }

    #[test]
    fn varset_all_and_membership() {
        let s = VarSet::all(5);
        assert_eq!(s.len(), 5);
        assert!(s.contains(0) && s.contains(4));
        assert!(!s.contains(5));
        assert_eq!(VarSet::all(64).len(), 64);
    }

    #[test]
    fn varset_algebra() {
        let a = VarSet::from_vars([0, 1, 2]);
        let b = VarSet::from_vars([2, 3]);
        assert_eq!(a.union(b), VarSet::from_vars([0, 1, 2, 3]));
        assert_eq!(a.intersect(b), VarSet::from_vars([2]));
        assert_eq!(a.difference(b), VarSet::from_vars([0, 1]));
        assert_eq!(a.insert(5).len(), 4);
        assert_eq!(a.remove(0).len(), 2);
        assert!(VarSet::EMPTY.is_empty());
    }

    #[test]
    fn varset_iteration_in_order() {
        let s = VarSet::from_vars([7, 1, 4]);
        assert_eq!(s.to_vec(), vec![1, 4, 7]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Assignment(0b0101).display(4), "TFTF");
        assert_eq!(VarSet::from_vars([0, 2]).to_string(), "{f0, f2}");
    }
}
