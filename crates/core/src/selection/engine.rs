//! The incremental evaluation core of the greedy selection engine.
//!
//! Direct greedy (Algorithm 1) evaluates `H(T ∪ {f})` for every remaining
//! candidate `f` in every round. Rebuilding that answer distribution from
//! scratch costs `O(|O| · |T|)` for the restriction alone (the software
//! `PEXT` in [`crowdfusion_jointdist::Assignment::extract`] walks the task
//! bits of every support entry) plus a `(|T|+1)`-stage butterfly — and the
//! restriction work is identical across rounds except for the one new bit.
//!
//! [`ScatterCache`] memoises exactly that shared work for the current
//! selected set `T`:
//!
//! * `pat[i]` — support entry `i`'s judgment pattern restricted to `T`,
//!   with bit `j` = the `j`-th *selected* fact (selection order; answer
//!   entropy is invariant under bit permutations);
//! * `y` — the binary-symmetric-channel transform of the answer
//!   distribution over `T` (length `2^|T|`).
//!
//! Evaluating a candidate `f` then costs one `O(|O| + 2^|T|)` bucket
//! split (scatter the mass of the outputs judging `f` *true* over the
//! cached patterns), one `|T|`-stage butterfly on that *half-size* vector,
//! and a single-bit BSC combine against the cached `y` — by linearity of
//! the transform, `y = B_T w0 + B_T w1`, so the `f = false` half is a
//! subtraction, never recomputed. Against the full rebuild this removes
//! the per-round `O(|O| · |T|)` re-restriction entirely and halves the
//! butterfly, which measured ≈ 3× on the `selection` bench at `n = 16`
//! before any threads are added (see EXPERIMENTS.md).
//!
//! Every method is `&self` except [`ScatterCache::extend`], so candidate
//! evaluations shard freely across a [`crate::pool::Pool`]; each worker
//! brings its own scratch buffer.

use crate::answers::bsc_transform_in_place;
use crowdfusion_jointdist::{entropy_of_probs, JointDist};

/// Cached restricted scatter of the output distribution for the greedy
/// loop's current selected set `T`. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct ScatterCache {
    /// Raw support assignments (`o.0` for each output in support order).
    bits: Vec<u64>,
    /// Support probabilities, parallel to `bits`.
    probs: Vec<f64>,
    /// Judgment pattern of each support entry on `T`, in selection order.
    pat: Vec<u32>,
    /// BSC-transformed answer distribution over `T` (length `2^|T|`).
    y: Vec<f64>,
    /// `|T|`.
    depth: usize,
}

impl ScatterCache {
    /// An empty-`T` cache over the distribution's support.
    pub fn new(dist: &JointDist) -> ScatterCache {
        let m = dist.support_size();
        let mut bits = Vec::with_capacity(m);
        let mut probs = Vec::with_capacity(m);
        for (a, p) in dist.iter() {
            bits.push(a.0);
            probs.push(p);
        }
        ScatterCache {
            bits,
            probs,
            pat: vec![0; m],
            y: vec![1.0],
            depth: 0,
        }
    }

    /// Current `|T|`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Scatters the mass of the support entries that judge fact `f` *true*
    /// over the cached patterns and BSC-transforms it in `scratch` —
    /// producing `y1 = B_T w1`, the `f = true` half of the extended answer
    /// distribution before the final single-bit channel stage.
    fn split_true_half(&self, f: usize, pc: f64, scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(1usize << self.depth, 0.0);
        for ((&b, &p), &pat) in self.bits.iter().zip(&self.probs).zip(&self.pat) {
            if (b >> f) & 1 == 1 {
                scratch[pat as usize] += p;
            }
        }
        bsc_transform_in_place(scratch, self.depth, pc);
    }

    /// `H(T ∪ {f})` in bits, without materialising the `2^(|T|+1)` vector.
    ///
    /// `scratch` is caller-provided so pooled workers reuse one buffer
    /// across candidates; its contents are irrelevant on entry.
    pub fn candidate_entropy(&self, f: usize, pc: f64, scratch: &mut Vec<f64>) -> f64 {
        self.split_true_half(f, pc, scratch);
        extended_entropy(scratch, &self.y, pc)
    }

    /// `H({f})` for every `f < num_facts` of an empty-`T` cache, from one
    /// pass over the support: bit for bit the depth-0
    /// [`ScatterCache::candidate_entropy`] of each fact, at the cost of
    /// one of them. See [`single_task_entropies`].
    pub(crate) fn single_task_entropies(&self, num_facts: usize, pc: f64) -> Vec<f64> {
        debug_assert_eq!(self.depth, 0, "single-task entropies need an empty T");
        single_task_entropies(
            self.bits.iter().copied().zip(self.probs.iter().copied()),
            num_facts,
            pc,
        )
    }

    /// Commits fact `f` as the round's winner: extends the cached
    /// patterns by `f`'s judgment bit and the cached transform by the
    /// single-bit channel stage. `O(|O| + 2^|T|)`.
    pub fn extend(&mut self, f: usize, pc: f64) {
        debug_assert!(self.depth < 32, "ScatterCache patterns are u32");
        let patterns = 1usize << self.depth;
        let mut y1 = vec![0.0; patterns];
        self.split_true_half(f, pc, &mut y1);
        let q = 1.0 - pc;
        let mut next = vec![0.0; patterns << 1];
        for (a, &y1a) in y1.iter().enumerate() {
            let y0 = self.y[a] - y1a;
            next[a] = pc * y0 + q * y1a;
            next[a | patterns] = q * y0 + pc * y1a;
        }
        self.y = next;
        for (&b, pat) in self.bits.iter().zip(self.pat.iter_mut()) {
            *pat |= (((b >> f) & 1) as u32) << self.depth;
        }
        self.depth += 1;
    }
}

/// `H({f})` in bits for every `f < num_facts`, from one pass over a
/// support of `(assignment bits, probability)` pairs.
///
/// The true-mass sum of each fact collects the same additions, in the
/// same support order and from the same `0.0`, as the depth-0 bucket
/// split of [`ScatterCache::candidate_entropy`], and goes through the same
/// channel combine — so each entropy is bit-identical to scoring that
/// fact alone, while the support is walked once instead of once per fact.
pub(crate) fn single_task_entropies(
    support: impl IntoIterator<Item = (u64, f64)>,
    num_facts: usize,
    pc: f64,
) -> Vec<f64> {
    let mut true_mass = [0.0f64; 64];
    for (bits, p) in support {
        let mut rest = bits;
        while rest != 0 {
            true_mass[rest.trailing_zeros() as usize] += p;
            rest &= rest - 1;
        }
    }
    true_mass[..num_facts]
        .iter()
        .map(|&y1| extended_entropy(&[y1], &[1.0], pc))
        .collect()
}

/// The single-bit channel combine that finishes a candidate: the entropy
/// of the answer distribution over `T ∪ {f}`, from `y1 = B_T w1` (the
/// `f = true` half) and the committed transform `y` — by linearity of the
/// transform the `f = false` half is `y − y1`, never recomputed.
fn extended_entropy(y1: &[f64], y: &[f64], pc: f64) -> f64 {
    let q = 1.0 - pc;
    entropy_of_probs(y1.iter().zip(y).flat_map(|(&y1, &yt)| {
        // Tiny negative round-off from the subtraction is clamped by the
        // 0·log 0 convention inside `entropy_of_probs`.
        let y0 = yt - y1;
        [pc * y0 + q * y1, q * y0 + pc * y1]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::{answer_entropy, AnswerEvaluator};
    use crowdfusion_jointdist::presets::paper_running_example;
    use crowdfusion_jointdist::{Assignment, JointDist, VarSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dist(n: usize, seed: u64) -> JointDist {
        let mut rng = StdRng::seed_from_u64(seed);
        JointDist::from_weights(
            n,
            (0..(1u64 << n)).map(|a| (Assignment(a), rng.gen_range(0.0..1.0))),
        )
        .unwrap()
    }

    #[test]
    fn matches_full_evaluation_along_a_greedy_path() {
        // Extend the cache fact by fact; at every step each candidate's
        // incremental entropy must match the from-scratch evaluators.
        for (n, seed, pc) in [(4usize, 1u64, 0.8), (6, 2, 0.7), (5, 3, 1.0)] {
            let d = random_dist(n, seed);
            let mut cache = ScatterCache::new(&d);
            let mut tasks = VarSet::EMPTY;
            let mut scratch = Vec::new();
            for step in 0..n {
                for f in 0..n {
                    if tasks.contains(f) {
                        continue;
                    }
                    let got = cache.candidate_entropy(f, pc, &mut scratch);
                    let want = answer_entropy(&d, tasks.insert(f), pc, AnswerEvaluator::Butterfly)
                        .unwrap();
                    assert!(
                        (got - want).abs() < 1e-10,
                        "n={n} step={step} f={f}: {got} vs {want}"
                    );
                }
                // Extend by an arbitrary (varying) member.
                let f = (step * 2 + seed as usize) % n;
                let f = (f..n).chain(0..f).find(|&v| !tasks.contains(v)).unwrap();
                cache.extend(f, pc);
                tasks = tasks.insert(f);
                assert_eq!(cache.depth(), step + 1);
            }
        }
    }

    #[test]
    fn running_example_first_round_entropies() {
        // Depth 0: candidate entropy is the single-task H of Section III-D
        // (H({f1}) = 1 bit at Pc = 0.8).
        let d = paper_running_example();
        let cache = ScatterCache::new(&d);
        let mut scratch = Vec::new();
        assert!((cache.candidate_entropy(0, 0.8, &mut scratch) - 1.0).abs() < 1e-9);
        for f in 0..4 {
            let got = cache.candidate_entropy(f, 0.8, &mut scratch);
            let want = answer_entropy(&d, VarSet::single(f), 0.8, AnswerEvaluator::Naive).unwrap();
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn one_pass_entropies_are_depth_zero_candidate_entropies_bit_for_bit() {
        let sparse32 = JointDist::from_weights(
            32,
            (0..64u64).map(|i| {
                (
                    Assignment(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xFFFF_FFFF),
                    1.0 + (i % 7) as f64,
                )
            }),
        )
        .unwrap();
        for d in [
            paper_running_example(),
            random_dist(6, 9),
            random_dist(10, 11),
            sparse32,
        ] {
            let n = d.num_vars();
            let cache = ScatterCache::new(&d);
            let mut scratch = Vec::new();
            for pc in [0.6, 0.8, 0.95, 1.0] {
                let one_pass = cache.single_task_entropies(n, pc);
                assert_eq!(one_pass.len(), n);
                for (f, h) in one_pass.into_iter().enumerate() {
                    let want = cache.candidate_entropy(f, pc, &mut scratch);
                    assert_eq!(h.to_bits(), want.to_bits(), "n {n} pc {pc} fact {f}");
                }
            }
        }
    }

    #[test]
    fn perfect_crowd_channel_is_identity() {
        let d = paper_running_example();
        let mut cache = ScatterCache::new(&d);
        cache.extend(1, 1.0);
        cache.extend(3, 1.0);
        let mut scratch = Vec::new();
        let got = cache.candidate_entropy(0, 1.0, &mut scratch);
        let want = answer_entropy(
            &d,
            VarSet::from_vars([0, 1, 3]),
            1.0,
            AnswerEvaluator::Naive,
        )
        .unwrap();
        assert!((got - want).abs() < 1e-10);
    }
}
