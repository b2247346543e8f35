//! Algorithm 1: the `(1 − 1/e)`-approximate greedy task selector, with
//! Theorem 3 pruning, Algorithm 2 preprocessing (the dense Table-IV
//! answer table), and the selection engine's cached-scatter + pooled
//! evaluation fast path.
//!
//! Every configuration runs one of two pooled greedy loops parameterised
//! by a [`CandidateScorer`]: the paper's eager loop (no prune bound, or
//! an unsound Table V bound) or the exact lazy loop ([`PruneBound::Safe`]).
//! The paper's brute-force per-candidate evaluation, the engine's
//! incremental scatter cache (which also serves the preprocessed path
//! past [`crate::MAX_DENSE_FACTS`] facts, where no `2^n` table fits), and
//! the dense Table-IV partition refinement are three scorers behind the
//! same round/prune/early-exit bookkeeping.

use crate::answers::{answer_entropy, full_answer_distribution, AnswerEvaluator};
use crate::error::CoreError;
use crate::pool::Pool;
use crate::selection::engine::ScatterCache;
use crate::selection::{validate_selection, TaskSelector};
use crowdfusion_jointdist::{entropy_of_probs, JointDist, VarSet};
use rand::RngCore;

/// Gains below this threshold terminate the greedy loop early (the paper's
/// `ρ ≤ 0` exit with floating-point slack).
const GAIN_EPSILON: f64 = 1e-12;

/// How far, in bits, the lazy loop's best fresh gain must clear every
/// remaining stale bound before it stops re-scoring. Far above the float
/// round-off by which a fresh gain can exceed its stale bound (at most
/// 2.4e-12 bits measured on 65 536-entry supports, where a gain that is
/// constant in exact arithmetic drifts with summation order), so a
/// candidate left stale can neither beat nor tie the winner — see
/// [`GreedySelector::lazy_loop`].
const TIE_WINDOW: f64 = 1e-9;

/// Pruning rule of the greedy loop.
///
/// The two unsound Table V bounds prune a fact `f` for the rest of the
/// selection once a round is evaluated and `H(T ∪ {f}) + slack < max_t
/// H(T ∪ {t})`, where `slack` is the bound's guess at the entropy the
/// `k − |T| − 1` future picks can add. Pruning compares against the
/// round's final maximum (not a running best), so the pruned set is
/// independent of candidate evaluation order — the invariant that lets the
/// engine shard candidates across threads and still return bit-identical
/// selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneBound {
    /// Exact lazy evaluation (Minoux's accelerated greedy). Answer
    /// entropy is submodular, so a candidate's gain at an earlier step
    /// bounds its gain now: each step re-scores candidates in stale-gain
    /// order and stops once the best fresh gain clears every remaining
    /// bound by a 1e-9-bit tie window. Selections are bit-identical to
    /// unpruned greedy, including the lowest-index tie rule and the
    /// Theorem 2 early exit. See DESIGN.md §3.
    Safe,
    /// The paper's literal bound `log₂(k − |T| − 1)`. It under-estimates
    /// the possible future gain so selections may differ from unpruned
    /// greedy — yet in practice it rarely fires at all: candidate
    /// entropies differ by well under one bit while the slack is
    /// `log₂(remaining) ≥ 1` until the final rounds. See DESIGN.md.
    PaperAggressive,
    /// Pure per-round dominance: zero slack, i.e. every candidate that is
    /// not the current round's best is pruned for the rest of the
    /// selection. This is the only rule that reproduces the *near-constant
    /// running time* the paper reports for Approx.&Prune in Table V; its
    /// quality cost is measured by the ablation harness.
    Dominance,
}

/// One greedy configuration's per-candidate scoring strategy.
///
/// [`GreedySelector`]'s loops own the round bookkeeping (pooled candidate
/// scans, lazy re-scoring, Theorem 3 pruning, forced fills, the Theorem 2
/// early exit); implementations own how `H(T ∪ {f})` is computed and what
/// state to memoise when a candidate is committed. `score` is `&self` so
/// candidates shard freely across the pool; `commit` runs serially
/// between rounds.
trait CandidateScorer: Sync {
    /// `H(T ∪ {f})` in bits for the current selected set `T`. `scratch`
    /// is a per-worker buffer reused across candidates.
    fn score(&self, f: usize, scratch: &mut Vec<f64>) -> f64;

    /// Commits fact `f` as the round's winner (memoise `T ← T ∪ {f}`).
    fn commit(&mut self, f: usize);

    /// `H({f})` of every fact `f < n` at once, bit-identical to
    /// [`CandidateScorer::score`] on an empty `T`, for scorers with a
    /// cheaper route than `n` separate scores. Only the lazy loop asks.
    fn single_task_entropies(&self, _n: usize) -> Option<Vec<f64>> {
        None
    }
}

/// The paper's brute-force evaluation: rebuild the answer distribution of
/// `T ∪ {f}` from the output support every time.
struct NaiveScorer<'a> {
    dist: &'a JointDist,
    pc: f64,
    evaluator: AnswerEvaluator,
    selected: VarSet,
}

impl CandidateScorer for NaiveScorer<'_> {
    fn score(&self, f: usize, _scratch: &mut Vec<f64>) -> f64 {
        answer_entropy(self.dist, self.selected.insert(f), self.pc, self.evaluator)
            .expect("validated before the greedy loop")
    }

    fn commit(&mut self, f: usize) {
        self.selected = self.selected.insert(f);
    }
}

/// The engine's incremental evaluation: one cached-scatter bucket split
/// plus a half-size butterfly per candidate, over the output support.
/// Serves the direct butterfly path and, past [`crate::MAX_DENSE_FACTS`]
/// facts, the preprocessed path of either evaluator.
struct EngineScorer {
    cache: ScatterCache,
    pc: f64,
}

impl CandidateScorer for EngineScorer {
    fn score(&self, f: usize, scratch: &mut Vec<f64>) -> f64 {
        self.cache.candidate_entropy(f, self.pc, scratch)
    }

    fn commit(&mut self, f: usize) {
        self.cache.extend(f, self.pc);
    }

    fn single_task_entropies(&self, n: usize) -> Option<Vec<f64>> {
        Some(self.cache.single_task_entropies(n, self.pc))
    }
}

/// Algorithm 2 over the dense Table-IV answer table: each candidate
/// refines the memoised partition of answer patterns by its judgment bit.
struct PartitionScorer<'a> {
    table: &'a [f64],
    part: Vec<u32>,
    num_parts: usize,
}

impl<'a> PartitionScorer<'a> {
    fn new(table: &'a [f64]) -> PartitionScorer<'a> {
        PartitionScorer {
            part: vec![0; table.len()],
            num_parts: 1,
            table,
        }
    }
}

impl CandidateScorer for PartitionScorer<'_> {
    fn score(&self, f: usize, acc: &mut Vec<f64>) -> f64 {
        // Refine the memoised partition by fact f's judgment bit and
        // compute the resulting answer-marginal entropy.
        acc.clear();
        acc.resize(self.num_parts << 1, 0.0);
        for (idx, &p) in self.table.iter().enumerate() {
            let bucket = ((self.part[idx] as usize) << 1) | ((idx >> f) & 1);
            acc[bucket] += p;
        }
        entropy_of_probs(acc.iter().copied())
    }

    fn commit(&mut self, f: usize) {
        // Memoise the separation of the chosen fact.
        for (idx, bucket) in self.part.iter_mut().enumerate() {
            *bucket = (*bucket << 1) | ((idx >> f) & 1) as u32;
        }
        self.num_parts <<= 1;
    }
}

/// The greedy selector (Algorithm 1) in its four paper configurations plus
/// the engine-backed fast variants (cached scatter, pooled candidates).
#[derive(Debug, Clone)]
pub struct GreedySelector {
    evaluator: AnswerEvaluator,
    prune: Option<PruneBound>,
    preprocess: bool,
    pool: Pool,
}

impl GreedySelector {
    /// The paper's plain "Approx." configuration: brute-force marginal
    /// computation per candidate, no pruning, no preprocessing.
    pub fn paper_approx() -> GreedySelector {
        GreedySelector {
            evaluator: AnswerEvaluator::Naive,
            prune: None,
            preprocess: false,
            pool: Pool::serial(),
        }
    }

    /// Our fast configuration: cached-scatter butterfly evaluation, safe
    /// pruning, serial. Identical selections to [`GreedySelector::engine`]
    /// at any thread count.
    pub fn fast() -> GreedySelector {
        GreedySelector {
            evaluator: AnswerEvaluator::Butterfly,
            prune: Some(PruneBound::Safe),
            preprocess: false,
            pool: Pool::serial(),
        }
    }

    /// The engine-backed fast configuration: [`GreedySelector::fast`] with
    /// candidate evaluation sharded over `threads` workers.
    pub fn engine(threads: usize) -> GreedySelector {
        GreedySelector::fast().with_threads(threads)
    }

    /// Enables Theorem 3 pruning with the given bound.
    #[must_use]
    pub fn with_prune(mut self, bound: PruneBound) -> GreedySelector {
        self.prune = Some(bound);
        self
    }

    /// Enables Algorithm 2 preprocessing: answer-table partition
    /// refinement with memoised separations, up to
    /// [`crate::MAX_DENSE_FACTS`] facts. Past that limit no `2^n` table
    /// fits, and candidates score through the engine's scatter cache, as
    /// on the direct path.
    #[must_use]
    pub fn with_preprocess(mut self) -> GreedySelector {
        self.preprocess = true;
        self
    }

    /// Uses the given evaluator for per-candidate entropy computations.
    /// The butterfly evaluator runs through the engine's scatter cache in
    /// the direct path; with preprocessing it builds the answer table.
    #[must_use]
    pub fn with_evaluator(mut self, evaluator: AnswerEvaluator) -> GreedySelector {
        self.evaluator = evaluator;
        self
    }

    /// Shards candidate evaluation (and answer-table preprocessing) over
    /// `threads` workers. Selections are bit-identical for every thread
    /// count: candidates are scored into per-index slots and reduced
    /// serially in fact order.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> GreedySelector {
        self.pool = Pool::new(threads);
        self
    }

    /// Shards work over an existing [`Pool`].
    #[must_use]
    pub fn with_pool(mut self, pool: Pool) -> GreedySelector {
        self.pool = pool;
        self
    }

    /// Scores every candidate `f` with `skip(f)` false into `scores[f]`
    /// (`NEG_INFINITY` for the skipped), sharded over the pool.
    fn scan<S: CandidateScorer>(
        &self,
        scorer: &S,
        scores: &mut [f64],
        skip: impl Fn(usize) -> bool + Sync,
    ) {
        scores.fill(f64::NEG_INFINITY);
        let chunk = self.pool.chunk_size(scores.len());
        self.pool.for_each_chunk(scores, chunk, |base, chunk| {
            let mut scratch = Vec::new();
            for (offset, slot) in chunk.iter_mut().enumerate() {
                let f = base + offset;
                if !skip(f) {
                    *slot = scorer.score(f, &mut scratch);
                }
            }
        });
    }

    /// One eager round's bookkeeping: records evaluated scores into
    /// `last_h`, reduces to the best `(fact, entropy)` (ties to the lowest
    /// fact index), and applies the end-of-round Theorem 3 pruning rule
    /// with the given `slack`.
    ///
    /// `scores[f]` is `NEG_INFINITY` for facts not evaluated this round
    /// (already selected or pruned). Returns `(best, forced)`; `forced`
    /// marks a fill from stale scores after an unsound bound (paper /
    /// dominance) pruned the whole pool even though slots remain — what
    /// keeps the pruned configuration's running time flat in `k`,
    /// matching the paper's Table V. Stale scores under-estimate the true
    /// `H(T ∪ {f})` (they were measured against a smaller `T`), so the
    /// Theorem 2 early exit does not apply to forced fills.
    fn reduce_round(
        scores: &[f64],
        selected_set: VarSet,
        pruned: &mut [bool],
        last_h: &mut [f64],
        slack: Option<f64>,
    ) -> (Option<(usize, f64)>, bool) {
        let mut best: Option<(usize, f64)> = None;
        for (f, &h) in scores.iter().enumerate() {
            if h.is_finite() {
                last_h[f] = h;
                match best {
                    Some((_, best_h)) if h <= best_h => {}
                    _ => best = Some((f, h)),
                }
            }
        }
        if let (Some(slack), Some((_, best_h))) = (slack, best) {
            // Theorem 3 against the round's final maximum. The best fact
            // itself never satisfies `best_h + slack < best_h`.
            for (f, &h) in scores.iter().enumerate() {
                if h.is_finite() && h + slack < best_h {
                    pruned[f] = true;
                }
            }
        }
        if best.is_some() {
            return (best, false);
        }
        let filled = (0..scores.len())
            .filter(|&f| !selected_set.contains(f) && last_h[f].is_finite())
            .map(|f| (f, last_h[f]))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        (filled, true)
    }

    /// The greedy loop every configuration runs: lazy for
    /// [`PruneBound::Safe`], eager otherwise.
    fn greedy_loop<S: CandidateScorer>(&self, n: usize, k_eff: usize, scorer: S) -> Vec<usize> {
        let slack: Option<fn(usize) -> f64> = match self.prune {
            Some(PruneBound::Safe) => return self.lazy_loop(n, k_eff, scorer),
            Some(PruneBound::PaperAggressive) => Some(|remaining| {
                if remaining >= 2 {
                    (remaining as f64).log2()
                } else {
                    0.0
                }
            }),
            Some(PruneBound::Dominance) => Some(|_| 0.0),
            None => None,
        };
        self.eager_loop(n, k_eff, scorer, slack)
    }

    /// The paper's Algorithm 1 as written: every round scores every
    /// candidate left (pooled), then applies end-of-round pruning with
    /// `slack(k − |T| − 1)`, forced fills and the Theorem 2 early exit.
    /// Selections are bit-identical for every thread count: candidates
    /// are scored into per-index slots and reduced serially in fact
    /// order.
    fn eager_loop<S: CandidateScorer>(
        &self,
        n: usize,
        k_eff: usize,
        mut scorer: S,
        slack: Option<fn(usize) -> f64>,
    ) -> Vec<usize> {
        let mut selected = Vec::with_capacity(k_eff);
        let mut selected_set = VarSet::EMPTY;
        let mut pruned = vec![false; n];
        let mut last_h = vec![f64::NEG_INFINITY; n];
        let mut h_current = 0.0f64;
        let mut scores = vec![f64::NEG_INFINITY; n];

        for round in 0..k_eff {
            self.scan(&scorer, &mut scores, |f| {
                selected_set.contains(f) || pruned[f]
            });
            let remaining_after = k_eff - round - 1;
            let (best, forced) = GreedySelector::reduce_round(
                &scores,
                selected_set,
                &mut pruned,
                &mut last_h,
                slack.map(|slack| slack(remaining_after)),
            );
            let Some((f, h)) = best else { break };
            if !forced && h - h_current <= GAIN_EPSILON {
                break; // K* < k: no further utility gain (Theorem 2 boundary)
            }
            selected.push(f);
            if remaining_after == 0 {
                break; // nothing reads the last pick's memoised state
            }
            selected_set = selected_set.insert(f);
            scorer.commit(f);
            if !forced {
                h_current = h;
            }
        }
        selected
    }

    /// Lazy greedy (Minoux's accelerated greedy), exact.
    ///
    /// Step 0 scores every fact — in one pass over the support when the
    /// scorer can. Later steps visit candidates in stale-gain order (ties
    /// to the lower fact index) and re-score them in batches of
    /// [`Pool::threads`], until the best fresh gain beats the largest
    /// remaining stale gain by more than [`TIE_WINDOW`]. Answer entropy
    /// is submodular, so a stale gain bounds the candidate's gain now; a
    /// candidate left stale therefore scores strictly below the best
    /// fresh one, and the winner — lowest index among exact ties included
    /// — is the eager loop's, bit for bit, as is the Theorem 2 exit. The
    /// candidates re-scored depend on the batch size; the selection does
    /// not.
    fn lazy_loop<S: CandidateScorer>(&self, n: usize, k_eff: usize, mut scorer: S) -> Vec<usize> {
        struct Slot {
            fact: usize,
            score: f64,
            scratch: Vec<f64>,
        }

        // Step 0: `T` is empty, so the scores are the gains.
        let mut gains = scorer.single_task_entropies(n).unwrap_or_else(|| {
            let mut scores = vec![f64::NEG_INFINITY; n];
            self.scan(&scorer, &mut scores, |_| false);
            scores
        });
        let mut best = lowest_argmax(gains.iter().copied().enumerate());
        let mut selected = Vec::with_capacity(k_eff);
        let mut h_current = 0.0f64;
        let mut order: Vec<usize> = (0..n).collect();
        let batch = self.pool.threads();
        let mut slots: Vec<Slot> = (0..batch)
            .map(|_| Slot {
                fact: 0,
                score: f64::NEG_INFINITY,
                scratch: Vec::new(),
            })
            .collect();

        while let Some((f, h)) = best {
            if h - h_current <= GAIN_EPSILON {
                break; // K* < k: no further utility gain (Theorem 2 boundary)
            }
            selected.push(f);
            if selected.len() == k_eff {
                break; // nothing reads the last pick's memoised state
            }
            scorer.commit(f);
            h_current = h;

            order.retain(|&g| g != f);
            order.sort_by(|&a, &b| gains[b].total_cmp(&gains[a]).then(a.cmp(&b)));
            best = None;
            for candidates in order.chunks(batch) {
                if let Some((_, h)) = best {
                    if h - h_current > gains[candidates[0]] + TIE_WINDOW {
                        break;
                    }
                }
                let live = &mut slots[..candidates.len()];
                for (slot, &f) in live.iter_mut().zip(candidates) {
                    slot.fact = f;
                }
                let scorer = &scorer;
                self.pool.for_each_chunk(live, 1, |_, slot| {
                    let slot = &mut slot[0];
                    slot.score = scorer.score(slot.fact, &mut slot.scratch);
                });
                for slot in live.iter() {
                    gains[slot.fact] = slot.score - h_current;
                }
                best = lowest_argmax(
                    best.into_iter()
                        .chain(live.iter().map(|slot| (slot.fact, slot.score))),
                );
            }
        }
        selected
    }

    /// Greedy selection evaluating each candidate from the output support
    /// through the engine: the scatter cache makes extending the current
    /// selected set by one candidate an `O(|O| + 2^|T|)` bucket split plus
    /// a single-bit channel stage, and the pool shards the independent
    /// candidates across threads. Works at any entity size the substrate
    /// holds (up to 64 facts) — only the task-set width is bounded by the
    /// dense limit.
    fn select_direct(
        &self,
        dist: &JointDist,
        pc: f64,
        k_eff: usize,
    ) -> Result<Vec<usize>, CoreError> {
        let n = dist.num_vars();
        Ok(match self.evaluator {
            AnswerEvaluator::Butterfly => self.greedy_loop(
                n,
                k_eff,
                EngineScorer {
                    cache: ScatterCache::new(dist),
                    pc,
                },
            ),
            AnswerEvaluator::Naive => self.greedy_loop(
                n,
                k_eff,
                NaiveScorer {
                    dist,
                    pc,
                    evaluator: self.evaluator,
                    selected: VarSet::EMPTY,
                },
            ),
        })
    }

    /// Greedy selection over the preprocessed answer table (Algorithm 2).
    ///
    /// Up to [`crate::MAX_DENSE_FACTS`] facts the dense Table-IV answer
    /// table is computed once on the pool (the paper's MapReduce-friendly
    /// step), and each candidate's marginal is a single scan refining the
    /// current partition of answer patterns by the candidate's judgment
    /// bit, with the chosen fact's separation memoised — `O(n · 2^n /
    /// threads)` per round. Past the limit the only sparse form of the
    /// table is the output support itself, so candidates score through
    /// the engine's scatter cache, for either evaluator — `O(n · (|O| +
    /// 2^|T|) / threads)` per round, the direct path's cost.
    fn select_preprocessed(
        &self,
        dist: &JointDist,
        pc: f64,
        k_eff: usize,
    ) -> Result<Vec<usize>, CoreError> {
        let n = dist.num_vars();
        if n > crate::MAX_DENSE_FACTS {
            let cache = ScatterCache::new(dist);
            return Ok(self.greedy_loop(n, k_eff, EngineScorer { cache, pc }));
        }
        let table = full_answer_distribution(dist, pc, self.evaluator, &self.pool)?;
        Ok(self.greedy_loop(n, k_eff, PartitionScorer::new(&table)))
    }
}

/// The highest-scoring `(fact, score)`, ties to the lowest fact index.
fn lowest_argmax(scores: impl IntoIterator<Item = (usize, f64)>) -> Option<(usize, f64)> {
    scores.into_iter().fold(None, |best, (f, h)| match best {
        Some((g, best_h)) if h < best_h || (h == best_h && g < f) => best,
        _ => Some((f, h)),
    })
}

impl TaskSelector for GreedySelector {
    fn name(&self) -> String {
        let mut name = String::from("greedy");
        name.push_str(match self.evaluator {
            AnswerEvaluator::Naive => "[naive]",
            AnswerEvaluator::Butterfly => "[butterfly]",
        });
        match self.prune {
            Some(PruneBound::Safe) => name.push_str("+prune(safe)"),
            Some(PruneBound::PaperAggressive) => name.push_str("+prune(paper)"),
            Some(PruneBound::Dominance) => name.push_str("+prune(dominance)"),
            None => {}
        }
        if self.preprocess {
            name.push_str("+pre");
        }
        if self.pool.threads() > 1 {
            name.push_str(&format!("@{}t", self.pool.threads()));
        }
        name
    }

    fn select(
        &self,
        dist: &JointDist,
        pc: f64,
        k: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, CoreError> {
        let k_eff = validate_selection(dist, pc, k)?;
        if k_eff == 0 {
            return Ok(Vec::new());
        }
        if self.preprocess {
            self.select_preprocessed(dist, pc, k_eff)
        } else {
            self.select_direct(dist, pc, k_eff)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfusion_jointdist::presets::paper_running_example;
    use crowdfusion_jointdist::JointDist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn all_variants() -> Vec<GreedySelector> {
        vec![
            GreedySelector::paper_approx(),
            GreedySelector::paper_approx().with_prune(PruneBound::Safe),
            GreedySelector::paper_approx().with_preprocess(),
            GreedySelector::paper_approx()
                .with_prune(PruneBound::Safe)
                .with_preprocess(),
            GreedySelector::fast(),
            GreedySelector::fast().with_preprocess(),
            GreedySelector::engine(4),
            GreedySelector::engine(3).with_preprocess(),
            GreedySelector::paper_approx().with_threads(2),
        ]
    }

    #[test]
    fn running_example_selects_f1_then_f4() {
        // Paper Section III-D: with k = 2 and Pc = 0.8 greedy first selects
        // f1 (H = 1, the max single-task entropy) and then f4
        // (H({f1, f4}) = 1.997).
        let d = paper_running_example();
        for sel in all_variants() {
            let tasks = sel.select(&d, 0.8, 2, &mut rng()).unwrap();
            assert_eq!(tasks, vec![0, 3], "{} picked {:?}", sel.name(), tasks);
        }
    }

    #[test]
    fn trusted_crowd_greedy_path() {
        // With Pc = 1 greedy first picks f1 (the only marginal at exactly
        // 0.5, H = 1 bit) and then the fact maximising the pair's joint
        // entropy given f1 — which is f3 (H({f1, f3}) ≈ 1.977). This
        // deliberately differs from OPT's {2, 3} (the paper's "{f1, f2}"
        // under its Table III labelling — see the note in answers.rs),
        // illustrating greedy's (1 − 1/e) sub-optimality.
        let d = paper_running_example();
        for sel in all_variants() {
            let tasks = sel.select(&d, 1.0, 2, &mut rng()).unwrap();
            assert_eq!(tasks, vec![0, 2], "{} picked {:?}", sel.name(), tasks);
        }
    }

    #[test]
    fn safe_prune_and_preprocess_match_plain_greedy() {
        // On a batch of random distributions all safe configurations must
        // return the identical selection.
        let mut seed_rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            use rand::Rng;
            let n = 3 + (trial % 4);
            let entries = (0..(1u64 << n)).map(|a| {
                (
                    crowdfusion_jointdist::Assignment(a),
                    seed_rng.gen_range(0.0..1.0),
                )
            });
            let d = JointDist::from_weights(n, entries).unwrap();
            let reference = GreedySelector::paper_approx()
                .select(&d, 0.8, 3, &mut rng())
                .unwrap();
            for sel in all_variants() {
                let got = sel.select(&d, 0.8, 3, &mut rng()).unwrap();
                assert_eq!(got, reference, "{} diverged on trial {trial}", sel.name());
            }
        }
    }

    #[test]
    fn k_larger_than_n_selects_everything() {
        let d = paper_running_example();
        let tasks = GreedySelector::fast()
            .select(&d, 0.8, 10, &mut rng())
            .unwrap();
        assert_eq!(tasks.len(), 4);
        let set: std::collections::HashSet<_> = tasks.iter().copied().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let d = paper_running_example();
        let tasks = GreedySelector::fast()
            .select(&d, 0.8, 0, &mut rng())
            .unwrap();
        assert!(tasks.is_empty());
    }

    #[test]
    fn perfect_crowd_stops_on_certain_facts() {
        // With Pc = 1 and all facts certain, asking anything gains nothing:
        // the paper's K* < k case.
        let d = JointDist::certain(3, crowdfusion_jointdist::Assignment(0b101)).unwrap();
        let tasks = GreedySelector::paper_approx()
            .select(&d, 1.0, 3, &mut rng())
            .unwrap();
        assert!(tasks.is_empty(), "got {tasks:?}");
    }

    #[test]
    fn noisy_crowd_keeps_asking_even_when_certain() {
        // Theorem 2 discussion: with Pc < 1 the answer to any fact has
        // positive entropy, so greedy fills all k slots.
        let d = JointDist::certain(3, crowdfusion_jointdist::Assignment(0b101)).unwrap();
        let tasks = GreedySelector::fast()
            .select(&d, 0.8, 2, &mut rng())
            .unwrap();
        assert_eq!(tasks.len(), 2);
    }

    #[test]
    fn dominance_prune_still_fills_all_slots() {
        // Dominance prunes every non-best candidate each round; the
        // forced fill from stale scores must still spend all k slots.
        let d = paper_running_example();
        for sel in [
            GreedySelector::fast().with_prune(PruneBound::Dominance),
            GreedySelector::fast()
                .with_prune(PruneBound::Dominance)
                .with_threads(4),
            GreedySelector::paper_approx()
                .with_prune(PruneBound::Dominance)
                .with_preprocess(),
        ] {
            let tasks = sel.select(&d, 0.8, 3, &mut rng()).unwrap();
            assert_eq!(tasks.len(), 3, "{}", sel.name());
            let set: std::collections::HashSet<_> = tasks.iter().copied().collect();
            assert_eq!(set.len(), 3, "{}", sel.name());
        }
    }

    #[test]
    fn greedy_gain_is_monotone_nonnegative() {
        // H(T_i) must be nondecreasing along the greedy path.
        let d = paper_running_example();
        let sel = GreedySelector::fast();
        let tasks = sel.select(&d, 0.8, 4, &mut rng()).unwrap();
        let mut prev = 0.0;
        let mut set = VarSet::EMPTY;
        for &f in &tasks {
            set = set.insert(f);
            let h = answer_entropy(&d, set, 0.8, AnswerEvaluator::Butterfly).unwrap();
            assert!(h >= prev - 1e-12);
            prev = h;
        }
    }

    #[test]
    fn preprocessing_matches_the_direct_engine() {
        // The dense partition refinement must reproduce the direct
        // engine's selections, which is what the preprocessed path runs
        // past the dense limit.
        let mut seed_rng = StdRng::seed_from_u64(123);
        for trial in 0..20 {
            use rand::Rng;
            let n = 3 + (trial % 5);
            let entries = (0..(1u64 << n)).map(|a| {
                (
                    crowdfusion_jointdist::Assignment(a),
                    seed_rng.gen_range(0.0..1.0),
                )
            });
            let d = JointDist::from_weights(n, entries).unwrap();
            for pc in [0.7, 0.85, 1.0] {
                let preprocessed = GreedySelector::fast()
                    .with_preprocess()
                    .select(&d, pc, 3, &mut rng())
                    .unwrap();
                let direct = GreedySelector::fast()
                    .select(&d, pc, 3, &mut rng())
                    .unwrap();
                assert_eq!(preprocessed, direct, "trial {trial} pc {pc}");
            }
        }
    }

    fn large_sparse_dist(n: usize, support: u64, seed: u64) -> JointDist {
        use rand::Rng;
        let mut wrng = StdRng::seed_from_u64(seed);
        let entries = (0..support).map(|i| {
            (
                crowdfusion_jointdist::Assignment(
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << n) - 1),
                ),
                wrng.gen_range(0.1..1.0),
            )
        });
        JointDist::from_weights(n, entries).unwrap()
    }

    #[test]
    fn preprocessed_selection_works_beyond_the_dense_limit() {
        // One past the dense limit and at 32 facts, the preprocessed path
        // selects exactly as the direct engine does, for either evaluator
        // and every thread count.
        let approx_engine =
            GreedySelector::paper_approx().with_evaluator(AnswerEvaluator::Butterfly);
        for (n, support, seed, k) in [(crate::MAX_DENSE_FACTS + 1, 16, 9, 2), (32, 96, 5, 4)] {
            let d = large_sparse_dist(n, support, seed);
            let direct = GreedySelector::fast()
                .select(&d, 0.8, k, &mut rng())
                .unwrap();
            assert_eq!(direct.len(), k);
            let reference = GreedySelector::fast()
                .with_preprocess()
                .select(&d, 0.8, k, &mut rng())
                .unwrap();
            assert_eq!(reference, direct, "n = {n}");
            for threads in [2usize, 4, 7] {
                let pooled = GreedySelector::engine(threads)
                    .with_preprocess()
                    .select(&d, 0.8, k, &mut rng())
                    .unwrap();
                assert_eq!(pooled, reference, "n = {n}, threads = {threads}");
            }
            assert_eq!(
                GreedySelector::paper_approx()
                    .with_preprocess()
                    .select(&d, 0.8, k, &mut rng())
                    .unwrap(),
                approx_engine.select(&d, 0.8, k, &mut rng()).unwrap(),
                "naive evaluator, n = {n}"
            );
        }
    }

    #[test]
    fn selection_boundary_at_max_dense_facts() {
        // n == MAX_DENSE_FACTS (direct path, cheap sparse support) and
        // n == MAX_DENSE_FACTS + 1 both select; an oversized *task set*
        // request keeps failing on both sides of the boundary.
        for n in [crate::MAX_DENSE_FACTS, crate::MAX_DENSE_FACTS + 1] {
            let d = large_sparse_dist(n, 32, n as u64);
            let tasks = GreedySelector::fast()
                .select(&d, 0.8, 3, &mut rng())
                .unwrap();
            assert_eq!(tasks.len(), 3, "n = {n}");
            assert!(tasks.iter().all(|&f| f < n));
        }
        let big = large_sparse_dist(crate::MAX_DENSE_FACTS + 4, 32, 2);
        assert!(matches!(
            GreedySelector::fast().select(&big, 0.8, crate::MAX_DENSE_FACTS + 1, &mut rng()),
            Err(CoreError::TooManyFacts { requested, limit })
                if requested == crate::MAX_DENSE_FACTS + 1 && limit == crate::MAX_DENSE_FACTS
        ));
    }

    #[test]
    fn selector_names_are_descriptive() {
        assert_eq!(GreedySelector::paper_approx().name(), "greedy[naive]");
        assert_eq!(
            GreedySelector::paper_approx()
                .with_prune(PruneBound::PaperAggressive)
                .with_preprocess()
                .name(),
            "greedy[naive]+prune(paper)+pre"
        );
        assert_eq!(
            GreedySelector::fast().name(),
            "greedy[butterfly]+prune(safe)"
        );
        assert_eq!(
            GreedySelector::engine(4).name(),
            "greedy[butterfly]+prune(safe)@4t"
        );
        assert_eq!(
            GreedySelector::fast().with_preprocess().name(),
            "greedy[butterfly]+prune(safe)+pre"
        );
    }

    #[test]
    fn invalid_pc_rejected() {
        let d = paper_running_example();
        assert!(matches!(
            GreedySelector::fast().select(&d, 0.3, 2, &mut rng()),
            Err(CoreError::InvalidAccuracy(_))
        ));
    }
}
