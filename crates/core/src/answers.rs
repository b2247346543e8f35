//! The crowd-answer distribution (Equation 2) and Bayesian merge
//! (Equation 3).
//!
//! For a task set `T` and crowd accuracy `Pc`, the probability of receiving
//! a specific answer set is
//!
//! ```text
//! P(Ans_T) = Σ_j P(o_j) · Pc^#Same · (1 − Pc)^#Diff          (Equation 2)
//! ```
//!
//! where `#Same`/`#Diff` count agreements/disagreements between the output's
//! judgments and the answers on the selected facts. Two evaluators compute
//! the full vector over all `2^|T|` answer patterns:
//!
//! * [`AnswerEvaluator::Naive`] — the paper's direct evaluation
//!   (`O(2^|T| · |O|)` once each output is restricted to `T`), used by the
//!   Table V "Approx." and "OPT" configurations;
//! * [`AnswerEvaluator::Butterfly`] — our engineering improvement: scatter
//!   the output distribution onto the `2^|T|` pattern lattice, then apply a
//!   per-bit binary-symmetric-channel butterfly (`O(|O| + |T|·2^|T|)`),
//!   analogous to a Walsh–Hadamard transform. Cross-validated against the
//!   naive evaluator by unit and property tests.
//!
//! Each evaluator has one body. It runs over any `(pattern, probability)`
//! support — a [`JointDist`], a sparse [`AnswerTable`]'s entries, or a
//! dense table read as a pattern-indexed support — and is sharded on a
//! [`Pool`]: the naive sum by contiguous answer-pattern ranges, the
//! butterfly by whole transform blocks per stage (Section III-F notes the
//! step "can be solved by parallel computing or the MapReduce framework").
//! Every slot sees the same arithmetic in the same order at any thread
//! count, so results are bit-identical to [`Pool::serial`]'s.
//!
//! After answers arrive, the posterior over outputs is (Equation 3)
//!
//! ```text
//! P(o_i | Ans) = P(o_i) · Pc^#Same (1 − Pc)^#Diff / P(Ans).
//! ```

use crate::error::CoreError;
use crate::pool::Pool;
use crate::{validate_pc, MAX_DENSE_FACTS};
use crowdfusion_jointdist::{entropy_of_probs, Assignment, JointDist, VarSet};
use serde::{Deserialize, Serialize};

/// Which algorithm computes answer distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AnswerEvaluator {
    /// The paper's direct evaluation of Equation 2.
    Naive,
    /// The binary-symmetric-channel butterfly transform (ours; default).
    #[default]
    Butterfly,
}

/// Which representation backs the preprocessed answer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TableBackend {
    /// Dense for `n ≤` [`MAX_DENSE_FACTS`], sparse beyond — the default.
    #[default]
    Auto,
    /// Force the dense `2^n` table (errors beyond the dense limit).
    Dense,
    /// Force the sparse support-backed table at any `n`.
    Sparse,
}

/// The preprocessed answer joint distribution (the paper's Table IV
/// artefact) in dense or sparse form.
///
/// The dense variant is the paper's literal table: `probs[pattern]` is
/// `P(Ans = pattern)` with the crowd channel already applied, `2^n`
/// entries. The sparse variant lifts the dense `2^n` ceiling: it stores
/// the output distribution's own sorted `(pattern, probability)` support
/// together with the channel accuracy `pc` to apply at evaluation time
/// ([`AnswerTable::sparse`]). Because the per-fact binary symmetric
/// channel commutes with marginalisation, the answer distribution of any
/// task set `T` is recovered exactly from the sparse form by scattering
/// the support onto the `2^|T|` lattice and applying the `|T|`-stage
/// channel butterfly — `O(|O| + |T|·2^|T|)` instead of `O(2^n)`.
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerTable {
    /// Dense channel-applied probabilities over all `2^n` patterns.
    Dense {
        /// Number of facts.
        n: usize,
        /// `probs[pattern]` = P(Ans = pattern); length `2^n`.
        probs: Vec<f64>,
    },
    /// Sorted sparse `(pattern, probability)` support plus the channel
    /// accuracy to apply at evaluation time.
    Sparse {
        /// Number of facts.
        n: usize,
        /// Per-fact crowd accuracy `Pc`, applied to the support at
        /// evaluation time.
        pc: f64,
        /// Sorted (judgment pattern, probability) pairs.
        entries: Vec<(u64, f64)>,
    },
}

impl AnswerTable {
    /// The preprocessed table for `backend`. A dense table is
    /// [`full_answer_distribution`] on `pool` (bit-identical at any
    /// thread count); a sparse one is [`AnswerTable::sparse`].
    /// [`TableBackend::Auto`] picks dense up to [`MAX_DENSE_FACTS`] facts
    /// and sparse beyond — the routing that lifts the dense `2^n` ceiling
    /// from the preprocessed selection path — while a forced
    /// [`TableBackend::Dense`] errors beyond the limit.
    pub fn build(
        dist: &JointDist,
        pc: f64,
        evaluator: AnswerEvaluator,
        backend: TableBackend,
        pool: &Pool,
    ) -> Result<AnswerTable, CoreError> {
        let dense = match backend {
            TableBackend::Auto => dist.num_vars() <= MAX_DENSE_FACTS,
            TableBackend::Dense => true,
            TableBackend::Sparse => false,
        };
        if !dense {
            return AnswerTable::sparse(dist, pc);
        }
        Ok(AnswerTable::Dense {
            n: dist.num_vars(),
            probs: full_answer_distribution(dist, pc, evaluator, pool)?,
        })
    }

    /// The **exact** sparse table: the output distribution's own sorted
    /// support with the channel `pc` kept residual. Works at any `n` the
    /// substrate supports (up to 64 facts).
    pub fn sparse(dist: &JointDist, pc: f64) -> Result<AnswerTable, CoreError> {
        validate_pc(pc)?;
        Ok(AnswerTable::Sparse {
            n: dist.num_vars(),
            pc,
            entries: dist.iter().map(|(a, p)| (a.0, p)).collect(),
        })
    }

    /// Number of facts the table covers.
    pub fn num_facts(&self) -> usize {
        match *self {
            AnswerTable::Dense { n, .. } | AnswerTable::Sparse { n, .. } => n,
        }
    }

    /// Number of stored entries (`2^n` dense, support size sparse).
    pub fn len(&self) -> usize {
        match self {
            AnswerTable::Dense { probs, .. } => probs.len(),
            AnswerTable::Sparse { entries, .. } => entries.len(),
        }
    }

    /// Whether the table stores no entries (never true for valid tables).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The answer distribution of `tasks` as a dense `2^|tasks|` vector —
    /// entry `a` is the probability of the answer pattern whose bit `j`
    /// is the judgment of the `j`-th smallest member of `tasks`: the
    /// butterfly body on the table's own entries, serially. Exact for
    /// both backends; `|tasks|` is bounded by [`MAX_DENSE_FACTS`].
    pub fn distribution(&self, tasks: VarSet) -> Result<Vec<f64>, CoreError> {
        let serial = &Pool::serial();
        match self {
            // The channel is already applied: the dense table is a
            // pattern-indexed support behind the identity channel.
            AnswerTable::Dense { n, probs } => equation2(
                *n,
                (0..).map(Assignment).zip(probs.iter().copied()),
                tasks,
                1.0,
                AnswerEvaluator::Butterfly,
                serial,
            ),
            AnswerTable::Sparse { n, pc, entries } => equation2(
                *n,
                entries.iter().map(|&(pattern, p)| (Assignment(pattern), p)),
                tasks,
                *pc,
                AnswerEvaluator::Butterfly,
                serial,
            ),
        }
    }

    /// Entropy `H(T)` in bits of [`AnswerTable::distribution`].
    pub fn entropy(&self, tasks: VarSet) -> Result<f64, CoreError> {
        Ok(entropy_of_probs(self.distribution(tasks)?))
    }
}

/// Computes the answer distribution for `tasks` with the requested
/// evaluator, serially. The result is a dense vector of length
/// `2^|tasks|`; entry `a` is the probability of the answer pattern whose
/// bit `j` is the judgment of the `j`-th smallest member of `tasks`. An
/// empty task set yields `[1.0]`.
pub fn answer_distribution(
    dist: &JointDist,
    tasks: VarSet,
    pc: f64,
    evaluator: AnswerEvaluator,
) -> Result<Vec<f64>, CoreError> {
    equation2(
        dist.num_vars(),
        dist.iter(),
        tasks,
        pc,
        evaluator,
        &Pool::serial(),
    )
}

/// Equation 2 for `tasks` over a `(pattern, probability)` support of
/// `n`-fact judgment patterns, on `pool`. The one check of every answer
/// distribution: `pc` in the model range, `tasks` inside `0..n` and at
/// most [`MAX_DENSE_FACTS`] wide. Each support entry is restricted to
/// `tasks` once, then the evaluator's body runs.
fn equation2(
    n: usize,
    support: impl Iterator<Item = (Assignment, f64)>,
    tasks: VarSet,
    pc: f64,
    evaluator: AnswerEvaluator,
    pool: &Pool,
) -> Result<Vec<f64>, CoreError> {
    validate_pc(pc)?;
    if let Some(bad) = tasks.difference(VarSet::all(n)).iter().next() {
        return Err(CoreError::TaskOutOfRange { index: bad, n });
    }
    let t = tasks.len();
    if t > MAX_DENSE_FACTS {
        return Err(CoreError::TooManyFacts {
            requested: t,
            limit: MAX_DENSE_FACTS,
        });
    }
    let restricted = support.map(|(o, p)| (o.extract(tasks), p));
    Ok(match evaluator {
        AnswerEvaluator::Naive => naive(&restricted.collect::<Vec<_>>(), t, pc, pool),
        AnswerEvaluator::Butterfly => butterfly(restricted, t, pc, pool),
    })
}

/// The paper's direct Equation 2: every answer pattern scans the whole
/// restricted support counting `#Diff`. Sharded by contiguous
/// answer-pattern ranges — each sub-program is "responsible for one
/// single counting and calculation of `Pc^#Same (1 − Pc)^#Diff`".
fn naive(restricted: &[(u64, f64)], t: usize, pc: f64, pool: &Pool) -> Vec<f64> {
    let patterns = 1usize << t;
    let mut out = vec![0.0f64; patterns];
    // Precompute pc^s (1-pc)^d for s + d = t.
    let weights: Vec<f64> = (0..=t)
        .map(|d| pc.powi((t - d) as i32) * (1.0 - pc).powi(d as i32))
        .collect();
    pool.for_each_chunk(&mut out, pool.chunk_size(patterns), |base, chunk| {
        for (offset, slot) in chunk.iter_mut().enumerate() {
            let answer = (base + offset) as u64;
            let mut total = 0.0;
            for &(o, p) in restricted {
                total += p * weights[(o ^ answer).count_ones() as usize];
            }
            *slot = total;
        }
    });
    out
}

/// Butterfly evaluation: scatter the restricted support onto the pattern
/// lattice, then per bit apply the binary symmetric channel
/// `[[pc, 1−pc], [1−pc, pc]]`. A stage's blocks of `2^(bit+1)` patterns
/// are independent, so each stage is sharded on whole blocks.
fn butterfly(
    restricted: impl Iterator<Item = (u64, f64)>,
    t: usize,
    pc: f64,
    pool: &Pool,
) -> Vec<f64> {
    let mut w = vec![0.0f64; 1usize << t];
    for (o, p) in restricted {
        w[o as usize] += p;
    }
    if pc == 1.0 {
        return w; // identity channel
    }
    for bit in 0..t {
        let block = 2usize << bit;
        let blocks_per_chunk = (w.len() / block).div_ceil(pool.threads());
        pool.for_each_chunk(&mut w, blocks_per_chunk * block, |_, chunk| {
            bsc_stage(chunk, bit, pc)
        });
    }
    w
}

/// Applies the per-bit binary-symmetric-channel transform to a dense vector
/// over `t`-bit patterns, in place. Serial: the greedy engine calls it for
/// every candidate it scores.
pub(crate) fn bsc_transform_in_place(w: &mut [f64], t: usize, pc: f64) {
    debug_assert_eq!(w.len(), 1usize << t);
    if pc == 1.0 {
        return; // identity channel
    }
    for bit in 0..t {
        bsc_stage(w, bit, pc);
    }
}

/// One channel stage: mixes every pattern pair that differs only in `bit`.
/// `w` holds whole blocks of `2^(bit+1)` patterns.
#[inline]
fn bsc_stage(w: &mut [f64], bit: usize, pc: f64) {
    let q = 1.0 - pc;
    let stride = 1usize << bit;
    for block in w.chunks_exact_mut(stride << 1) {
        let (lo, hi) = block.split_at_mut(stride);
        for (l, h) in lo.iter_mut().zip(hi) {
            let (a, b) = (*l, *h);
            *l = pc * a + q * b;
            *h = q * a + pc * b;
        }
    }
}

/// Entropy `H(T)` of the answer distribution for `tasks`, in bits — the
/// paper's optimisation objective (Equation 4).
pub fn answer_entropy(
    dist: &JointDist,
    tasks: VarSet,
    pc: f64,
    evaluator: AnswerEvaluator,
) -> Result<f64, CoreError> {
    Ok(entropy_of_probs(answer_distribution(
        dist, tasks, pc, evaluator,
    )?))
}

/// The full answer joint distribution over *all* `n` facts — the paper's
/// preprocessing artefact (Table IV), computed on `pool`. Dense vector of
/// length `2^n` indexed by answer pattern (bit `i` = judgment of fact
/// `i`); errors beyond [`MAX_DENSE_FACTS`].
pub fn full_answer_distribution(
    dist: &JointDist,
    pc: f64,
    evaluator: AnswerEvaluator,
    pool: &Pool,
) -> Result<Vec<f64>, CoreError> {
    let n = dist.num_vars();
    equation2(n, dist.iter(), VarSet::all(n), pc, evaluator, pool)
}

/// Bayesian merge of crowd answers (Equation 3): multiplies each output's
/// probability by `Pc^#Same (1 − Pc)^#Diff` and renormalises.
///
/// `tasks` and `answers` are parallel: `answers[j]` is the crowd judgment of
/// fact `tasks[j]`. Duplicate task indices within one batch are rejected.
pub fn posterior(
    dist: &JointDist,
    tasks: &[usize],
    answers: &[bool],
    pc: f64,
) -> Result<JointDist, CoreError> {
    let mut updated = dist.clone();
    posterior_in_place(&mut updated, tasks, answers, pc)?;
    Ok(updated)
}

/// [`posterior`] without the clone: updates `dist` through the in-place
/// reweight fast path ([`JointDist::reweight_in_place`]), which reuses the
/// sorted support vector instead of re-merging every entry through a
/// `BTreeMap`. This is the round driver's per-round merge.
///
/// Validation happens before any mutation, so argument errors leave `dist`
/// untouched. A [`CoreError::Joint`]-wrapped zero-mass error (all
/// likelihoods underflowed — unreachable for `Pc ∈ [0.5, 1]` on a
/// normalised prior) may leave `dist` unnormalised; callers must treat the
/// distribution as poisoned on error, as the round drivers do by aborting
/// the run.
pub fn posterior_in_place(
    dist: &mut JointDist,
    tasks: &[usize],
    answers: &[bool],
    pc: f64,
) -> Result<(), CoreError> {
    validate_pc(pc)?;
    if tasks.len() != answers.len() {
        return Err(CoreError::AnswerLengthMismatch {
            tasks: tasks.len(),
            answers: answers.len(),
        });
    }
    if tasks.is_empty() {
        return Ok(());
    }
    let mut seen = VarSet::EMPTY;
    let mut answer_bits = Assignment::ALL_FALSE;
    for (&task, &ans) in tasks.iter().zip(answers) {
        if task >= dist.num_vars() {
            return Err(CoreError::TaskOutOfRange {
                index: task,
                n: dist.num_vars(),
            });
        }
        if seen.contains(task) {
            return Err(CoreError::DuplicateTask(task));
        }
        seen = seen.insert(task);
        answer_bits = answer_bits.with(task, ans);
    }
    if pc == 0.5 {
        // Pure-noise answers carry no information; skip the reweight, which
        // would multiply every output by the same constant.
        return Ok(());
    }
    let q = 1.0 - pc;
    let t = tasks.len() as u32;
    dist.reweight_in_place(|o| {
        let diff = o.hamming_on(answer_bits, seen);
        pc.powi((t - diff) as i32) * q.powi(diff as i32)
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfusion_jointdist::presets::paper_running_example;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 5e-4 // paper reports 3 decimals
    }

    fn random_dist(n: usize, seed: u64) -> JointDist {
        let mut rng = StdRng::seed_from_u64(seed);
        JointDist::from_weights(
            n,
            (0..(1u64 << n)).map(|a| (Assignment(a), rng.gen_range(0.0..1.0))),
        )
        .unwrap()
    }

    fn dense_table(d: &JointDist, pc: f64) -> AnswerTable {
        AnswerTable::build(
            d,
            pc,
            AnswerEvaluator::Butterfly,
            TableBackend::Dense,
            &Pool::serial(),
        )
        .unwrap()
    }

    /// Table IV of the paper: the answer joint distribution for the running
    /// example with Pc = 0.8, rows a1..a16 in (f1, f2, f3, f4) order with f4
    /// varying fastest.
    const TABLE_IV: [f64; 16] = [
        0.049, 0.050, 0.063, 0.055, 0.071, 0.049, 0.087, 0.077, 0.047, 0.051, 0.052, 0.056, 0.065,
        0.071, 0.073, 0.085,
    ];

    fn table_iv_index(row: usize) -> usize {
        // Row bit 3 -> f1 (var 0) ... bit 0 -> f4 (var 3); our pattern index
        // has bit v = fact v.
        let mut idx = 0usize;
        for v in 0..4 {
            if (row >> (3 - v)) & 1 == 1 {
                idx |= 1 << v;
            }
        }
        idx
    }

    #[test]
    fn full_answer_distribution_matches_table_iv() {
        let d = paper_running_example();
        for ev in [AnswerEvaluator::Naive, AnswerEvaluator::Butterfly] {
            let ans = full_answer_distribution(&d, 0.8, ev, &Pool::serial()).unwrap();
            assert_eq!(ans.len(), 16);
            for (row, &expected) in TABLE_IV.iter().enumerate() {
                let got = ans[table_iv_index(row)];
                assert!(
                    close(got, expected),
                    "{ev:?} a{} = {got:.4}, paper says {expected}",
                    row + 1
                );
            }
            let total: f64 = ans.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn evaluators_agree_on_running_example() {
        let d = paper_running_example();
        for bits in 1u64..16 {
            let tasks = VarSet(bits);
            let a = answer_distribution(&d, tasks, 0.8, AnswerEvaluator::Naive).unwrap();
            let b = answer_distribution(&d, tasks, 0.8, AnswerEvaluator::Butterfly).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "mismatch for tasks {tasks}");
            }
        }
    }

    #[test]
    fn empty_task_set_is_trivial() {
        let d = paper_running_example();
        let a = answer_distribution(&d, VarSet::EMPTY, 0.8, AnswerEvaluator::Butterfly).unwrap();
        assert_eq!(a.len(), 1);
        assert!((a[0] - 1.0).abs() < 1e-9);
        let h = answer_entropy(&d, VarSet::EMPTY, 0.8, AnswerEvaluator::Naive).unwrap();
        assert!(h.abs() < 1e-9);
    }

    #[test]
    fn single_task_entropy_is_one_bit_for_f1() {
        // Paper Section III-D: H({Ans_{f1}}) = 1 (P(f1) = 0.5 stays 0.5
        // through the symmetric channel).
        let d = paper_running_example();
        let h = answer_entropy(&d, VarSet::single(0), 0.8, AnswerEvaluator::Naive).unwrap();
        assert!((h - 1.0).abs() < 1e-9);
    }

    // NOTE on Table III row labels: the paper's Table III is internally
    // inconsistent with Tables I/II. Under the Table I/II fact order (which
    // our presets reproduce exactly, including all four marginals and the
    // Section III-A worked numbers), the Table III values are recovered by
    // relabelling f1 ↔ f4 and f2 ↔ f3 in its first column. The affected
    // rows swap pairwise ({f1,f2} ↔ {f3,f4}, {f1,f3} ↔ {f2,f4}); {f1,f4}
    // and {f2,f3} are invariant — in particular the paper's conclusions
    // (best task set {f1,f4} at Pc = 0.8) are unaffected. The tests below
    // encode the permuted (self-consistent) labelling.

    #[test]
    fn table_iii_task_entropies() {
        // Paper Table III: H(T) for all 2-subsets at Pc = 0.8, with the
        // label permutation documented above.
        let d = paper_running_example();
        let cases = [
            (VarSet::from_vars([0, 1]), 1.982), // paper row {f3, f4}
            (VarSet::from_vars([0, 2]), 1.993), // paper row {f2, f4}
            (VarSet::from_vars([0, 3]), 1.997), // paper row {f1, f4}
            (VarSet::from_vars([1, 2]), 1.975), // paper row {f2, f3}
            (VarSet::from_vars([1, 3]), 1.982), // paper row {f1, f3}
            (VarSet::from_vars([2, 3]), 1.993), // paper row {f1, f2}
        ];
        for (tasks, expected) in cases {
            let h = answer_entropy(&d, tasks, 0.8, AnswerEvaluator::Butterfly).unwrap();
            assert!(
                (h - expected).abs() < 5e-4,
                "H({tasks}) = {h:.4}, paper says {expected}"
            );
        }
    }

    #[test]
    fn table_iii_fact_entropies() {
        // Paper Table III column H({f_i | f_i ∈ T}) — the entropy of the
        // facts themselves (equivalently the Pc = 1 answer channel) — with
        // the label permutation documented above.
        let d = paper_running_example();
        let cases = [
            (VarSet::from_vars([0, 1]), 1.948), // paper row {f3, f4}
            (VarSet::from_vars([0, 2]), 1.977), // paper row {f2, f4}
            (VarSet::from_vars([0, 3]), 1.976), // paper row {f1, f4}
            (VarSet::from_vars([1, 2]), 1.929), // paper row {f2, f3}
            (VarSet::from_vars([1, 3]), 1.949), // paper row {f1, f3}
            (VarSet::from_vars([2, 3]), 1.981), // paper row {f1, f2}
        ];
        for (tasks, expected) in cases {
            let h = answer_entropy(&d, tasks, 1.0, AnswerEvaluator::Naive).unwrap();
            assert!(
                (h - expected).abs() < 5e-4,
                "H(facts {tasks}) = {h:.4}, paper says {expected}"
            );
        }
    }

    #[test]
    fn posterior_matches_paper_worked_example() {
        // Ask f1, receive "true", Pc = 0.8 (paper Section III-A):
        // P(o1 | e) = 0.012, P(o9 | e) = 0.064.
        let d = paper_running_example();
        let post = posterior(&d, &[0], &[true], 0.8).unwrap();
        assert!(close(post.prob(Assignment(0b0000)), 0.012));
        assert!(close(post.prob(Assignment(0b0001)), 0.064));
        assert!((post.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn posterior_in_place_matches_posterior_exactly() {
        let d = paper_running_example();
        for (tasks, answers, pc) in [
            (vec![0usize], vec![true], 0.8),
            (vec![1, 3], vec![false, true], 0.9),
            (vec![0, 1, 2, 3], vec![true, true, false, true], 0.55),
            (vec![2], vec![false], 1.0),
            (vec![0, 2], vec![true, false], 0.5),
            (vec![], vec![], 0.8),
        ] {
            let merged = posterior(&d, &tasks, &answers, pc).unwrap();
            let mut fast = d.clone();
            posterior_in_place(&mut fast, &tasks, &answers, pc).unwrap();
            assert_eq!(merged, fast, "tasks {tasks:?} pc {pc}");
        }
    }

    #[test]
    fn posterior_in_place_validation_leaves_dist_untouched() {
        let d = paper_running_example();
        let mut m = d.clone();
        assert!(posterior_in_place(&mut m, &[9], &[true], 0.8).is_err());
        assert!(posterior_in_place(&mut m, &[0], &[true, false], 0.8).is_err());
        assert!(posterior_in_place(&mut m, &[1, 1], &[true, true], 0.8).is_err());
        assert!(posterior_in_place(&mut m, &[0], &[true], 0.2).is_err());
        assert_eq!(m, d);
    }

    #[test]
    fn posterior_with_noise_pc_is_identity() {
        let d = paper_running_example();
        let post = posterior(&d, &[0, 2], &[true, false], 0.5).unwrap();
        assert_eq!(post, d);
    }

    #[test]
    fn posterior_with_perfect_crowd_conditions() {
        let d = paper_running_example();
        let post = posterior(&d, &[0], &[true], 1.0).unwrap();
        let cond = d.condition(0, true).unwrap();
        for (a, p) in cond.iter() {
            assert!((post.prob(a) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn posterior_validation() {
        let d = paper_running_example();
        assert!(matches!(
            posterior(&d, &[0], &[true, false], 0.8),
            Err(CoreError::AnswerLengthMismatch { .. })
        ));
        assert!(matches!(
            posterior(&d, &[9], &[true], 0.8),
            Err(CoreError::TaskOutOfRange { .. })
        ));
        assert!(matches!(
            posterior(&d, &[1, 1], &[true, true], 0.8),
            Err(CoreError::DuplicateTask(1))
        ));
        assert!(matches!(
            posterior(&d, &[0], &[true], 0.3),
            Err(CoreError::InvalidAccuracy(_))
        ));
        let same = posterior(&d, &[], &[], 0.8).unwrap();
        assert_eq!(same, d);
    }

    #[test]
    fn answer_distribution_validation() {
        let d = paper_running_example();
        assert!(matches!(
            answer_distribution(&d, VarSet::from_vars([5]), 0.8, AnswerEvaluator::Naive),
            Err(CoreError::TaskOutOfRange { .. })
        ));
        assert!(matches!(
            answer_distribution(&d, VarSet::single(0), 1.2, AnswerEvaluator::Naive),
            Err(CoreError::InvalidAccuracy(_))
        ));
    }

    #[test]
    fn repeated_posteriors_converge_to_truth() {
        // Asking the same fact many times with informative answers should
        // drive its marginal toward certainty.
        let d = paper_running_example();
        let mut cur = d;
        for _ in 0..40 {
            cur = posterior(&cur, &[3], &[true], 0.8).unwrap();
        }
        assert!(cur.marginal(3).unwrap() > 0.999);
    }

    #[test]
    fn answer_table_backends_agree_on_running_example() {
        let d = paper_running_example();
        let dense = dense_table(&d, 0.8);
        let sparse = AnswerTable::sparse(&d, 0.8).unwrap();
        assert_eq!(dense.num_facts(), 4);
        assert_eq!(dense.len(), 16);
        assert_eq!(sparse.num_facts(), 4);
        assert!(!sparse.is_empty());
        for bits in 0u64..16 {
            let tasks = VarSet(bits);
            let a = dense.distribution(tasks).unwrap();
            let b = sparse.distribution(tasks).unwrap();
            let c = if tasks == VarSet::EMPTY {
                vec![1.0]
            } else {
                answer_distribution(&d, tasks, 0.8, AnswerEvaluator::Butterfly).unwrap()
            };
            for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                assert!((x - y).abs() < 1e-12, "dense vs sparse at {tasks}");
                assert!((y - z).abs() < 1e-12, "sparse vs evaluator at {tasks}");
            }
            assert!((dense.entropy(tasks).unwrap() - sparse.entropy(tasks).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn answer_table_validation() {
        let d = paper_running_example();
        assert!(matches!(
            AnswerTable::sparse(&d, 1.2),
            Err(CoreError::InvalidAccuracy(_))
        ));
        let t = AnswerTable::sparse(&d, 0.8).unwrap();
        assert!(matches!(
            t.distribution(VarSet::from_vars([9])),
            Err(CoreError::TaskOutOfRange { .. })
        ));
    }

    #[test]
    fn dense_boundary_accepts_max_dense_facts() {
        // n == MAX_DENSE_FACTS is the last size the dense paths accept.
        // Pc = 1 keeps the check cheap (the channel is the identity, so
        // the dense table is just the scattered support).
        use crate::MAX_DENSE_FACTS;
        let truth = Assignment(0b1011);
        let d = JointDist::certain(MAX_DENSE_FACTS, truth).unwrap();
        let table =
            full_answer_distribution(&d, 1.0, AnswerEvaluator::Butterfly, &Pool::serial()).unwrap();
        assert_eq!(table.len(), 1usize << MAX_DENSE_FACTS);
        assert_eq!(table[truth.0 as usize], 1.0);
        drop(table);
        let tasks = VarSet::all(MAX_DENSE_FACTS);
        assert!(answer_distribution(&d, tasks, 1.0, AnswerEvaluator::Butterfly).is_ok());
    }

    #[test]
    fn dense_boundary_rejects_one_past_the_limit_where_sparse_takes_over() {
        // n == MAX_DENSE_FACTS + 1 must fail in every *dense* entry point
        // (the validation fires before any allocation) while the sparse
        // table accepts the same distribution.
        use crate::MAX_DENSE_FACTS;
        let n = MAX_DENSE_FACTS + 1;
        let d = JointDist::certain(n, Assignment(0b111)).unwrap();
        assert!(matches!(
            full_answer_distribution(&d, 0.8, AnswerEvaluator::Naive, &Pool::serial()),
            Err(CoreError::TooManyFacts { requested, limit })
                if requested == n && limit == MAX_DENSE_FACTS
        ));
        assert!(matches!(
            full_answer_distribution(&d, 0.8, AnswerEvaluator::Butterfly, &Pool::serial()),
            Err(CoreError::TooManyFacts { .. })
        ));
        assert!(matches!(
            answer_distribution(&d, VarSet::all(n), 0.8, AnswerEvaluator::Butterfly),
            Err(CoreError::TooManyFacts { .. })
        ));
        assert!(matches!(
            AnswerTable::build(
                &d,
                0.8,
                AnswerEvaluator::Butterfly,
                TableBackend::Dense,
                &Pool::serial()
            ),
            Err(CoreError::TooManyFacts { .. })
        ));
        // Small task sets on the oversized entity remain legal: the limit
        // is about task-set width, not entity width.
        let small = VarSet::from_vars([0, n - 1]);
        let a = answer_distribution(&d, small, 0.8, AnswerEvaluator::Butterfly).unwrap();
        assert_eq!(a.len(), 4);
        // And the sparse table covers the full entity exactly.
        let sparse = AnswerTable::sparse(&d, 0.8).unwrap();
        assert_eq!(sparse.num_facts(), n);
        let b = sparse.distribution(small).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn bsc_transform_preserves_mass_and_is_identity_at_pc1() {
        let mut w = vec![0.1, 0.2, 0.3, 0.4];
        bsc_transform_in_place(&mut w, 2, 1.0);
        assert_eq!(w, vec![0.1, 0.2, 0.3, 0.4]);
        bsc_transform_in_place(&mut w, 2, 0.7);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Pc = 0.5 collapses everything to uniform.
        let mut w = vec![1.0, 0.0, 0.0, 0.0];
        bsc_transform_in_place(&mut w, 2, 0.5);
        for x in w {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn table_backend_routing() {
        let d = random_dist(5, 21);
        let pool = Pool::new(2);
        let build = |backend| {
            AnswerTable::build(&d, 0.8, AnswerEvaluator::Butterfly, backend, &pool).unwrap()
        };
        let auto = build(TableBackend::Auto);
        assert!(matches!(auto, AnswerTable::Dense { .. }));
        assert_eq!(auto, build(TableBackend::Dense));
        let sparse = build(TableBackend::Sparse);
        assert_eq!(sparse, AnswerTable::sparse(&d, 0.8).unwrap());
        // Both backends agree on every task-set distribution.
        for bits in 0u64..(1 << 5) {
            let tasks = VarSet(bits);
            let a = auto.distribution(tasks).unwrap();
            let b = sparse.distribution(tasks).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "backend mismatch at {tasks}");
            }
        }
    }

    #[test]
    fn table_boundary_auto_switches_at_the_dense_limit() {
        // n == MAX_DENSE_FACTS stays dense (checked at Pc = 1 so the
        // 2^26 table is a cheap identity scatter); n == MAX_DENSE_FACTS+1
        // flips Auto to sparse, while forcing Dense reproduces the old
        // hard failure.
        let pool = Pool::serial();
        let build = |d: &JointDist, pc: f64, backend| {
            AnswerTable::build(d, pc, AnswerEvaluator::Butterfly, backend, &pool)
        };
        let at_limit = JointDist::certain(MAX_DENSE_FACTS, Assignment(0b101)).unwrap();
        let table = build(&at_limit, 1.0, TableBackend::Auto).unwrap();
        assert!(matches!(table, AnswerTable::Dense { .. }));
        assert_eq!(table.len(), 1usize << MAX_DENSE_FACTS);
        drop(table);

        let past = JointDist::certain(MAX_DENSE_FACTS + 1, Assignment(0b101)).unwrap();
        let table = build(&past, 0.8, TableBackend::Auto).unwrap();
        assert!(matches!(table, AnswerTable::Sparse { .. }));
        assert_eq!(table.num_facts(), MAX_DENSE_FACTS + 1);
        assert!(matches!(
            build(&past, 0.8, TableBackend::Dense),
            Err(CoreError::TooManyFacts { requested, limit })
                if requested == MAX_DENSE_FACTS + 1 && limit == MAX_DENSE_FACTS
        ));
        assert!(matches!(
            full_answer_distribution(&past, 0.8, AnswerEvaluator::Naive, &pool),
            Err(CoreError::TooManyFacts { .. })
        ));
    }
}
