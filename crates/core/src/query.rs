//! Query-based CrowdFusion (paper Section IV).
//!
//! When users only care about a subset `I ⊆ F` of facts (the *facts of
//! interest*, FOI), the utility becomes `Q(I|T) = H(T) − H(I, T)` — the
//! negative conditional entropy `−H(I | Ans_T)` of the interesting facts
//! given the crowd answers. Facts outside `I` can still be worth asking
//! because they are correlated with facts inside `I` (the paper's
//! continent/population example).
//!
//! The objective remains monotone and submodular in `T` (conditioning on
//! independent noisy observations has diminishing returns), so the same
//! greedy framework achieves the `(1 − 1/e)` rate. Note the paper's
//! Equation 7 displays the monotonicity inequality with the direction
//! reversed; the implemented direction (`Q(I|T) ≤ Q(I|T')` for `T ⊆ T'`,
//! "information never hurts") is the one its own proof sketch supports.

use crate::answers::bsc_transform_in_place;
use crate::error::CoreError;
use crate::round::{EntityCase, RoundConfig};
use crate::selection::{validate_selection, TaskSelector};
use crate::session::{SelectOutcome, SessionState};
use crate::MAX_DENSE_FACTS;
use crowdfusion_crowd::{AnswerModel, CrowdPlatform};
use crowdfusion_jointdist::{JointDist, VarSet};
use rand::RngCore;
use std::collections::BTreeMap;

/// Gains below this threshold terminate the greedy loop early. Unlike the
/// general case (Theorem 2), zero gains are *common* here: a fact
/// uncorrelated with `I` contributes exactly nothing.
const GAIN_EPSILON: f64 = 1e-9;

/// Joint entropy `H(I, T)` of the interesting facts' ground truth and the
/// crowd answers on `tasks`, in bits.
pub fn truth_answer_joint_entropy(
    dist: &JointDist,
    interest: VarSet,
    tasks: VarSet,
    pc: f64,
) -> Result<f64, CoreError> {
    crate::validate_pc(pc)?;
    let n = dist.num_vars();
    if let Some(bad) = interest
        .union(tasks)
        .difference(VarSet::all(n))
        .iter()
        .next()
    {
        return Err(CoreError::TaskOutOfRange { index: bad, n });
    }
    if interest.is_empty() {
        return Err(CoreError::EmptyInterestSet);
    }
    let t = tasks.len();
    if t > MAX_DENSE_FACTS {
        return Err(CoreError::TooManyFacts {
            requested: t,
            limit: MAX_DENSE_FACTS,
        });
    }
    // Group outputs by their restriction to I; per group, scatter onto the
    // task-pattern lattice and push through the answer channel. The map is
    // ordered: the entropy accumulation below folds f64s in group order,
    // and hash order would make the rounding (hence the trace) vary per
    // process.
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let patterns = 1usize << t;
    for (o, p) in dist.iter() {
        let key = o.extract(interest);
        let w = groups.entry(key).or_insert_with(|| vec![0.0; patterns]);
        w[o.extract(tasks) as usize] += p;
    }
    let mut h = 0.0;
    for w in groups.values_mut() {
        bsc_transform_in_place(w, t, pc);
        for &p in w.iter() {
            if p > 0.0 {
                h -= p * p.log2();
            }
        }
    }
    Ok(h.max(0.0))
}

/// The query-based utility `Q(I|T) = H(T) − H(I, T) = −H(I | Ans_T)`
/// (Definition 5 restricted to the FOI). Always `≤ 0`; higher is better.
pub fn query_utility(
    dist: &JointDist,
    interest: VarSet,
    tasks: VarSet,
    pc: f64,
) -> Result<f64, CoreError> {
    let h_t = crate::answers::answer_entropy(
        dist,
        tasks,
        pc,
        crate::answers::AnswerEvaluator::Butterfly,
    )?;
    let h_it = truth_answer_joint_entropy(dist, interest, tasks, pc)?;
    Ok(h_t - h_it)
}

/// Greedy task selection maximising the query-based utility (Section IV-B):
/// Algorithm 1 with the gain `ρ_j = Q(I|T ∪ {j}) − Q(I|T)`.
#[derive(Debug, Clone, Copy)]
pub struct QueryGreedySelector {
    interest: VarSet,
}

impl QueryGreedySelector {
    /// Creates a selector for the given facts-of-interest set.
    pub fn new(interest: VarSet) -> QueryGreedySelector {
        QueryGreedySelector { interest }
    }

    /// The facts of interest.
    pub fn interest(&self) -> VarSet {
        self.interest
    }
}

impl TaskSelector for QueryGreedySelector {
    fn name(&self) -> String {
        format!("query-greedy[I={}]", self.interest)
    }

    fn select(
        &self,
        dist: &JointDist,
        pc: f64,
        k: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, CoreError> {
        let k_eff = validate_selection(dist, pc, k)?;
        if self.interest.is_empty() {
            return Err(CoreError::EmptyInterestSet);
        }
        let n = dist.num_vars();
        let mut selected = Vec::with_capacity(k_eff);
        let mut selected_set = VarSet::EMPTY;
        let mut q_current = query_utility(dist, self.interest, VarSet::EMPTY, pc)?;

        for _ in 0..k_eff {
            let mut best: Option<(usize, f64)> = None;
            for f in 0..n {
                if selected_set.contains(f) {
                    continue;
                }
                let q = query_utility(dist, self.interest, selected_set.insert(f), pc)?;
                match best {
                    Some((_, best_q)) if q <= best_q => {}
                    _ => best = Some((f, q)),
                }
            }
            let Some((f, q)) = best else { break };
            if q - q_current <= GAIN_EPSILON {
                break; // no fact improves knowledge of the FOI
            }
            selected.push(f);
            selected_set = selected_set.insert(f);
            q_current = q;
        }
        Ok(selected)
    }
}

/// One point of a budgeted quality curve in query mode: how much the FOI
/// is known after `cost` judgments.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCurvePoint {
    /// Cumulative judgments spent.
    pub cost: usize,
    /// The *planned* utility `Q(I|T)` of the cumulative task set against
    /// the prior — monotone non-decreasing along the curve (information
    /// never hurts), independent of what the crowd actually answered.
    pub plan_utility: f64,
    /// Entropy `H(I)` of the FOI under the current posterior, in bits.
    pub entropy: f64,
    /// Fraction of FOI facts whose posterior marginal rounds to the gold
    /// truth.
    pub accuracy: f64,
}

/// The FOI-aware round driver: steps one [`SessionState`] through the
/// select–collect–update loop of Figure 1 with [`QueryGreedySelector`]
/// steering every round toward the facts of interest, and records a
/// budget → quality curve. The session's selector stream is seeded with
/// one draw from `rng`; `task_seq` supplies the task ids.
///
/// Each round re-plans on the evolving posterior (so answers steer later
/// selections), spends `min(k, n, remaining)` judgments, and appends a
/// [`QueryCurvePoint`]: `plan_utility` is evaluated against the *prior*
/// over the cumulative task set — a growing chain, so the planned curve is
/// monotone by the corrected Equation 7 — while `entropy`/`accuracy` track
/// the realised posterior. The loop stops early when no fact still informs
/// the FOI (`GAIN_EPSILON`) or when the cumulative task set would exceed
/// the dense answer-lattice width ([`MAX_DENSE_FACTS`]); the first point
/// is always the zero-cost prior.
pub fn run_query_rounds<M: AnswerModel>(
    case: &EntityCase,
    interest: VarSet,
    config: RoundConfig,
    platform: &mut CrowdPlatform<M>,
    rng: &mut dyn RngCore,
    task_seq: &mut u64,
) -> Result<Vec<QueryCurvePoint>, CoreError> {
    if interest.is_empty() {
        return Err(CoreError::EmptyInterestSet);
    }
    let selector = QueryGreedySelector::new(interest);
    let mut state = SessionState::new(case.clone(), config, rng.next_u64(), *task_seq)?;
    let mut cumulative = VarSet::EMPTY;

    let measure = |dist: &JointDist, cumulative: VarSet, spent: usize| -> Result<_, CoreError> {
        let mut correct = 0usize;
        for f in interest.iter() {
            let truth = dist.marginal(f)? >= 0.5;
            correct += usize::from(truth == case.gold.get(f));
        }
        Ok(QueryCurvePoint {
            cost: spent,
            plan_utility: query_utility(&case.prior, interest, cumulative, config.pc_assumed)?,
            entropy: dist.restrict(interest)?.entropy(),
            accuracy: correct as f64 / interest.len() as f64,
        })
    };

    let mut points = vec![measure(state.posterior(), cumulative, 0)?];
    // Ends when the FOI is settled or the budget is gone.
    while let SelectOutcome::Round(round) = state.select(&selector)? {
        let next_cumulative =
            cumulative.union(VarSet::from_vars(round.tasks.iter().map(|t| t.fact)));
        if next_cumulative.len() > MAX_DENSE_FACTS {
            break; // planned curve would leave the dense answer lattice
        }
        let (tasks, truths) = round.into_crowd_batch(case.gold);
        let answers = platform.publish(&tasks, &truths)?;
        let judgments: Vec<(u64, bool)> = answers.iter().map(|a| (a.task.0, a.value)).collect();
        state.absorb(&judgments)?;
        cumulative = next_cumulative;
        points.push(measure(state.posterior(), cumulative, state.spent())?);
    }
    // Ids of a round left open at the dense-lattice cutoff stay issued.
    *task_seq += (state.spent() + state.open_round_tasks()) as u64;
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::{answer_entropy, AnswerEvaluator};
    use crate::selection::GreedySelector;
    use crowdfusion_jointdist::presets::paper_running_example;
    use crowdfusion_jointdist::{binary_entropy, Factor, FactorGraphBuilder, JointDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn joint_entropy_decomposes_for_full_interest() {
        // H(F, T) = H(F) + |T| · H(Pc) when T ⊆ F (answers are
        // conditionally independent given the truth).
        let d = paper_running_example();
        let interest = VarSet::all(4);
        for tasks in [VarSet::single(0), VarSet::from_vars([1, 3]), VarSet::all(4)] {
            let h = truth_answer_joint_entropy(&d, interest, tasks, 0.8).unwrap();
            let expected = d.entropy() + tasks.len() as f64 * binary_entropy(0.8);
            assert!(
                (h - expected).abs() < 1e-9,
                "H(F,{tasks}) = {h}, expected {expected}"
            );
        }
    }

    #[test]
    fn joint_entropy_is_bit_identical_to_sorted_order_reference() {
        // Regression for a nondeterminism bug: the group fold used to run
        // in `HashMap` iteration order, so the f64 rounding — and hence
        // the refinement trace — could differ between processes (the
        // hasher is seeded per process). The fold must match a reference
        // that accumulates in ascending group-key order, bit for bit.
        let d = paper_running_example();
        let interest = VarSet::from_vars([0, 2]);
        let tasks = VarSet::from_vars([1, 2, 3]);
        let pc = 0.8;

        let t = tasks.len();
        let patterns = 1usize << t;
        let mut groups: Vec<(u64, Vec<f64>)> = Vec::new();
        for (o, p) in d.iter() {
            let key = o.extract(interest);
            let idx = match groups.binary_search_by_key(&key, |g| g.0) {
                Ok(i) => i,
                Err(i) => {
                    groups.insert(i, (key, vec![0.0; patterns]));
                    i
                }
            };
            groups[idx].1[o.extract(tasks) as usize] += p;
        }
        let mut expected = 0.0f64;
        for (_, w) in groups.iter_mut() {
            bsc_transform_in_place(w, t, pc);
            for &p in w.iter() {
                if p > 0.0 {
                    expected -= p * p.log2();
                }
            }
        }
        let expected = expected.max(0.0);

        let h = truth_answer_joint_entropy(&d, interest, tasks, pc).unwrap();
        assert_eq!(
            h.to_bits(),
            expected.to_bits(),
            "group fold must accumulate in ascending key order \
             (got {h:e}, reference {expected:e})"
        );
    }

    #[test]
    fn empty_task_set_gives_negative_interest_entropy() {
        let d = paper_running_example();
        let interest = VarSet::from_vars([1, 2]);
        let q = query_utility(&d, interest, VarSet::EMPTY, 0.8).unwrap();
        let h_i = d.restrict(interest).unwrap().entropy();
        assert!((q + h_i).abs() < 1e-9, "Q(I|∅) should equal −H(I)");
    }

    #[test]
    fn utility_is_monotone_in_tasks() {
        // Q(I|T) ≤ Q(I|T') for T ⊆ T' — the corrected Equation 7.
        let d = paper_running_example();
        let interest = VarSet::from_vars([1, 2]);
        let t1 = VarSet::single(0);
        let t2 = VarSet::from_vars([0, 3]);
        let q0 = query_utility(&d, interest, VarSet::EMPTY, 0.8).unwrap();
        let q1 = query_utility(&d, interest, t1, 0.8).unwrap();
        let q2 = query_utility(&d, interest, t2, 0.8).unwrap();
        assert!(q1 >= q0 - 1e-12);
        assert!(q2 >= q1 - 1e-12);
    }

    #[test]
    fn full_interest_reduces_to_general_selection() {
        // With I = F the query-based gain differs from ΔH(T) by the
        // constant H(Pc), so the selected sets must match the general
        // greedy (paper Section IV-B: "query based CrowdFusion is a general
        // case of CrowdFusion").
        let d = paper_running_example();
        let general = GreedySelector::fast()
            .select(&d, 0.8, 2, &mut rng())
            .unwrap();
        let query = QueryGreedySelector::new(VarSet::all(4))
            .select(&d, 0.8, 2, &mut rng())
            .unwrap();
        assert_eq!(general, query);
    }

    #[test]
    fn correlated_outside_fact_is_worth_asking() {
        // Three facts: 0 and 1 strongly tied, 2 independent. With
        // I = {1}, asking fact 0 must beat asking the unrelated fact 2 —
        // the continent/population story of Section IV.
        let d = FactorGraphBuilder::new(vec![0.5, 0.5, 0.5])
            .factor(Factor::Equivalent {
                vars: VarSet::from_vars([0, 1]),
                penalty: 0.05,
            })
            .build()
            .unwrap();
        let interest = VarSet::single(1);
        let q_outside = query_utility(&d, interest, VarSet::single(0), 0.8).unwrap();
        let q_unrelated = query_utility(&d, interest, VarSet::single(2), 0.8).unwrap();
        assert!(
            q_outside > q_unrelated + 1e-6,
            "correlated fact not preferred: {q_outside} vs {q_unrelated}"
        );
        // And greedy with k = 1 picks fact 0 or 1, never fact 2.
        let picked = QueryGreedySelector::new(interest)
            .select(&d, 0.8, 1, &mut rng())
            .unwrap();
        assert_ne!(picked, vec![2]);
    }

    #[test]
    fn uninformative_facts_terminate_selection_early() {
        // I = {0}; facts 1 and 2 are independent of fact 0, so once fact 0
        // is maximally informative the greedy should stop before k.
        let d = JointDist::independent(&[0.5, 0.5, 0.5]).unwrap();
        let picked = QueryGreedySelector::new(VarSet::single(0))
            .select(&d, 0.9, 3, &mut rng())
            .unwrap();
        // Fact 0 itself is asked; the unrelated ones are skipped.
        assert_eq!(picked, vec![0]);
    }

    #[test]
    fn validation_errors() {
        let d = paper_running_example();
        assert!(matches!(
            QueryGreedySelector::new(VarSet::EMPTY).select(&d, 0.8, 2, &mut rng()),
            Err(CoreError::EmptyInterestSet)
        ));
        assert!(matches!(
            truth_answer_joint_entropy(&d, VarSet::from_vars([9]), VarSet::single(0), 0.8),
            Err(CoreError::TaskOutOfRange { .. })
        ));
        assert!(matches!(
            truth_answer_joint_entropy(&d, VarSet::single(0), VarSet::single(1), 1.5),
            Err(CoreError::InvalidAccuracy(_))
        ));
        assert!(matches!(
            truth_answer_joint_entropy(&d, VarSet::EMPTY, VarSet::single(1), 0.8),
            Err(CoreError::EmptyInterestSet)
        ));
    }

    #[test]
    fn query_mode_handles_entities_beyond_the_dense_limit() {
        // 32 facts, sparse support: the query-based utilities group by
        // interest pattern and scatter onto the *task* lattice only, so
        // entity size never triggers the dense ceiling.
        let n = 32usize;
        let entries = (0..64u64).map(|i| {
            (
                crowdfusion_jointdist::Assignment(
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << n) - 1),
                ),
                1.0 + (i % 5) as f64,
            )
        });
        let d = JointDist::from_weights(n, entries).unwrap();
        let interest = VarSet::from_vars([3, 17, 30]);
        let q_empty = query_utility(&d, interest, VarSet::EMPTY, 0.8).unwrap();
        let q_inside = query_utility(&d, interest, VarSet::single(17), 0.8).unwrap();
        assert!(
            q_inside >= q_empty - 1e-12,
            "asking an FOI fact never hurts"
        );
        let picked = QueryGreedySelector::new(interest)
            .select(&d, 0.8, 3, &mut rng())
            .unwrap();
        assert!(!picked.is_empty());
        assert!(picked.iter().all(|&f| f < n));
    }

    #[test]
    fn task_width_boundary_at_max_dense_facts() {
        // The dense ceiling in query mode is about the *task set* width:
        // |T| == MAX_DENSE_FACTS is accepted (cheap at Pc = 1 where the
        // channel is the identity), |T| == MAX_DENSE_FACTS + 1 rejected —
        // on an entity wider than both.
        use crate::MAX_DENSE_FACTS;
        let n = MAX_DENSE_FACTS + 2;
        let d = JointDist::certain(n, crowdfusion_jointdist::Assignment(0b1)).unwrap();
        let interest = VarSet::single(n - 1);
        let at_limit = VarSet::all(MAX_DENSE_FACTS);
        let h = truth_answer_joint_entropy(&d, interest, at_limit, 1.0).unwrap();
        assert!(h.abs() < 1e-9, "certain truth through a perfect channel");
        let past_limit = VarSet::all(MAX_DENSE_FACTS + 1);
        assert!(matches!(
            truth_answer_joint_entropy(&d, interest, past_limit, 1.0),
            Err(CoreError::TooManyFacts { requested, limit })
                if requested == MAX_DENSE_FACTS + 1 && limit == MAX_DENSE_FACTS
        ));
    }

    #[test]
    fn query_round_driver_emits_a_monotone_planned_curve() {
        use crate::round::EntityCase;
        use crowdfusion_crowd::{UniformAccuracy, WorkerPool};
        let case = EntityCase::simple(
            "Hong Kong",
            paper_running_example(),
            crowdfusion_jointdist::Assignment(0b0111),
        );
        let interest = VarSet::from_vars([1, 2]);
        let config = crate::round::RoundConfig::new(2, 10, 0.9).unwrap();
        let mut platform = CrowdPlatform::new(
            WorkerPool::uniform(8, 0.9).unwrap(),
            UniformAccuracy::new(0.9),
            11,
        );
        let mut seq = 0u64;
        let points = run_query_rounds(
            &case,
            interest,
            config,
            &mut platform,
            &mut StdRng::seed_from_u64(4),
            &mut seq,
        )
        .unwrap();
        assert!(points.len() >= 2, "at least prior + one round");
        assert_eq!(points[0].cost, 0);
        for w in points.windows(2) {
            assert!(w[1].cost > w[0].cost, "costs strictly increase");
            assert!(
                w[1].plan_utility >= w[0].plan_utility - 1e-12,
                "planned curve must be monotone: {} then {}",
                w[0].plan_utility,
                w[1].plan_utility
            );
        }
        for p in &points {
            assert!((0.0..=1.0).contains(&p.accuracy));
            assert!(p.entropy >= -1e-12);
        }
        // A reliable crowd leaves the FOI better known than the prior did.
        let last = points.last().unwrap();
        assert!(last.entropy < points[0].entropy);
        assert_eq!(last.accuracy, 1.0, "0.9-accurate crowd settles 2 facts");

        // Determinism: identical inputs, identical curve.
        let mut platform = CrowdPlatform::new(
            WorkerPool::uniform(8, 0.9).unwrap(),
            UniformAccuracy::new(0.9),
            11,
        );
        let mut seq = 0u64;
        let again = run_query_rounds(
            &case,
            interest,
            config,
            &mut platform,
            &mut StdRng::seed_from_u64(4),
            &mut seq,
        )
        .unwrap();
        assert_eq!(points, again);
    }

    #[test]
    fn query_round_driver_stops_when_foi_is_settled() {
        use crate::round::EntityCase;
        use crowdfusion_crowd::{UniformAccuracy, WorkerPool};
        // Independent facts, FOI already certain: nothing informs it, so
        // no budget is spent and the curve is the single prior point.
        let d = FactorGraphBuilder::new(vec![1.0, 0.5, 0.5])
            .build()
            .unwrap();
        let case = EntityCase::simple("settled", d, crowdfusion_jointdist::Assignment(0b001));
        let config = crate::round::RoundConfig::new(2, 10, 0.9).unwrap();
        let mut platform = CrowdPlatform::new(
            WorkerPool::uniform(8, 0.9).unwrap(),
            UniformAccuracy::new(0.9),
            0,
        );
        let mut seq = 0u64;
        let points = run_query_rounds(
            &case,
            VarSet::single(0),
            config,
            &mut platform,
            &mut StdRng::seed_from_u64(0),
            &mut seq,
        )
        .unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(platform.ledger().judgments, 0);
        assert_eq!(points[0].accuracy, 1.0);
        // And an empty interest set is rejected up front.
        assert!(matches!(
            run_query_rounds(
                &case,
                VarSet::EMPTY,
                config,
                &mut platform,
                &mut StdRng::seed_from_u64(0),
                &mut seq,
            ),
            Err(CoreError::EmptyInterestSet)
        ));
    }

    #[test]
    fn h_t_consistency_between_modules() {
        // H(T) from answers.rs equals H(I,T) − H(I | Ans_T)… simpler:
        // verify H(I,T) ≥ H(T) and H(I,T) ≥ H(I).
        let d = paper_running_example();
        let interest = VarSet::from_vars([1, 2]);
        let tasks = VarSet::from_vars([0, 3]);
        let h_it = truth_answer_joint_entropy(&d, interest, tasks, 0.8).unwrap();
        let h_t = answer_entropy(&d, tasks, 0.8, AnswerEvaluator::Butterfly).unwrap();
        let h_i = d.restrict(interest).unwrap().entropy();
        assert!(h_it >= h_t - 1e-12);
        assert!(h_it >= h_i - 1e-12);
        assert!(h_it <= h_t + h_i + 1e-12);
    }
}
