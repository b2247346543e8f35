//! Global budget allocation across entities — the extension the paper's
//! error analysis calls for.
//!
//! Section V-D observes that "books with large numbers of statements are
//! more likely to be judged incorrectly" under a fixed per-book budget, and
//! suggests that "if a proper strategy can be designed to distribute budgets
//! among all subsets of facts, this can be solved". This module implements
//! that strategy: instead of spending `B` judgments on every entity, a
//! single global budget is allocated greedily by *expected utility gain per
//! judgment*.
//!
//! The gain of asking fact `f` of entity `e` is the mutual information
//! between the answer and the entity's facts,
//! `I(F_e; Ans_f) = H({f}) − H(Pc)` (the identity verified in the
//! integration tests): uncertain facts in uncertain entities earn budget,
//! already-settled entities stop receiving any. Entities are ranked with
//! [`crate::sched::entity_gain`], the same gain function the serving
//! daemon's `--budget-mode global` scheduler uses.

use crate::answers::posterior;
use crate::error::CoreError;
use crate::metrics::{ConfusionCounts, QualityPoint};
use crate::round::EntityCase;
use crate::sched::{entity_gain, GainQueue};
use crate::system::ExperimentTrace;
use crowdfusion_crowd::{AnswerModel, CrowdPlatform, Task, TaskId};
use crowdfusion_jointdist::JointDist;
use serde::{Deserialize, Serialize};

/// Configuration of a globally budgeted run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlobalBudgetConfig {
    /// Total number of crowd judgments across *all* entities.
    pub total_budget: usize,
    /// Judgments issued per global round (one batch = one crowdsourcing
    /// publication).
    pub batch: usize,
    /// The crowd accuracy assumed for planning and updating.
    pub pc_assumed: f64,
}

impl GlobalBudgetConfig {
    /// Validates and constructs a config.
    pub fn new(
        total_budget: usize,
        batch: usize,
        pc_assumed: f64,
    ) -> Result<GlobalBudgetConfig, CoreError> {
        if batch == 0 {
            return Err(CoreError::EmptyTaskSet);
        }
        crate::validate_pc(pc_assumed)?;
        Ok(GlobalBudgetConfig {
            total_budget,
            batch,
            pc_assumed,
        })
    }
}

/// Runs the globally budgeted refinement: each round ranks entities by the
/// expected gain of their best single task ([`entity_gain`]), asks the
/// crowd the top `batch` of them, and merges the answers. Produces the same
/// quality-vs-cost series as [`crate::system::Experiment::run_sharded`], so
/// fixed-budget and global-budget strategies compare point for point.
pub fn run_global<M: AnswerModel>(
    cases: &[EntityCase],
    config: GlobalBudgetConfig,
    platform: &mut CrowdPlatform<M>,
) -> Result<ExperimentTrace, CoreError> {
    for case in cases {
        case.validate()?;
    }
    let mut dists: Vec<JointDist> = cases.iter().map(|c| c.prior.clone()).collect();
    let measure = |dists: &[JointDist], cost: u64| {
        let mut utility = 0.0;
        let mut counts = ConfusionCounts::default();
        for (dist, case) in dists.iter().zip(cases) {
            utility += dist.utility();
            counts.add_marginals(&dist.marginals(), case.gold);
        }
        QualityPoint {
            cost,
            utility,
            f1: counts.f1(),
            precision: counts.precision(),
            recall: counts.recall(),
        }
    };
    let mut points = vec![measure(&dists, 0)];
    let mut spent = 0usize;
    let mut task_seq = 0u64;

    while spent < config.total_budget {
        // Rank every entity's best single task through the scheduler's
        // gain queue: highest gain first, deterministic tie-break by
        // entity index — the exact admission order `serve --budget-mode
        // global` uses across sessions.
        let mut queue = GainQueue::new();
        for (e, dist) in dists.iter().enumerate() {
            if let Some((fact, gain)) = entity_gain(dist, config.pc_assumed)? {
                queue.insert(e as u64, fact, gain);
            }
        }
        let take = config.batch.min(config.total_budget - spent);
        let mut ranked: Vec<(usize, usize, f64)> = Vec::new(); // (entity, fact, gain)
        while ranked.len() < take {
            match queue.pop_best() {
                Some(entry) => ranked.push((entry.session as usize, entry.fact, entry.gain())),
                None => break,
            }
        }
        if ranked.is_empty() || ranked.iter().all(|&(_, _, gain)| gain <= 1e-12) {
            break; // nothing left worth asking
        }

        // Publish the batch (one task per chosen entity).
        let tasks: Vec<Task> = ranked
            .iter()
            .map(|&(e, f, _)| {
                task_seq += 1;
                Task {
                    id: TaskId(task_seq),
                    prompt: cases[e].prompts[f].clone(),
                    class: cases[e].classes[f],
                }
            })
            .collect();
        let truths: Vec<bool> = ranked
            .iter()
            .map(|&(e, f, _)| cases[e].gold.get(f))
            .collect();
        let answers = platform.publish(&tasks, &truths)?;
        for (&(e, f, _), answer) in ranked.iter().zip(&answers) {
            dists[e] = posterior(&dists[e], &[f], &[answer.value], config.pc_assumed)?;
        }
        spent += ranked.len();
        points.push(measure(&dists, spent as u64));
    }

    Ok(ExperimentTrace {
        selector: format!("global-budget(batch={})", config.batch),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfusion_crowd::{UniformAccuracy, WorkerPool};
    use crowdfusion_jointdist::Assignment;

    fn platform(pc: f64, seed: u64) -> CrowdPlatform<UniformAccuracy> {
        CrowdPlatform::new(
            WorkerPool::uniform(8, pc).unwrap(),
            UniformAccuracy::new(pc),
            seed,
        )
    }

    fn cases() -> Vec<EntityCase> {
        vec![
            // A nearly-settled entity…
            EntityCase::simple(
                "settled",
                JointDist::independent(&[0.98, 0.02, 0.97]).unwrap(),
                Assignment(0b101),
            ),
            // …and a maximally uncertain one.
            EntityCase::simple(
                "uncertain",
                JointDist::uniform(3).unwrap(),
                Assignment(0b011),
            ),
        ]
    }

    #[test]
    fn config_validation() {
        assert!(GlobalBudgetConfig::new(10, 0, 0.8).is_err());
        assert!(GlobalBudgetConfig::new(10, 2, 0.3).is_err());
        assert!(GlobalBudgetConfig::new(10, 2, 0.8).is_ok());
    }

    #[test]
    fn budget_flows_to_uncertain_entities() {
        let cases = cases();
        let config = GlobalBudgetConfig::new(6, 1, 0.9).unwrap();
        let mut p = platform(0.9, 3);
        let trace = run_global(&cases, config, &mut p).unwrap();
        assert_eq!(trace.last().cost, 6);
        // The uncertain entity's facts should have been resolved: with all
        // six judgments spent there, its marginals move far from 0.5.
        // (Indirect check: total utility improves by roughly the uncertain
        // entity's 3 bits.)
        let improvement = trace.last().utility - trace.points[0].utility;
        assert!(improvement > 1.5, "improvement {improvement}");
    }

    #[test]
    fn stops_when_nothing_worth_asking() {
        let settled = vec![EntityCase::simple(
            "done",
            JointDist::certain(2, Assignment(0b01)).unwrap(),
            Assignment(0b01),
        )];
        let config = GlobalBudgetConfig::new(10, 2, 0.8).unwrap();
        let mut p = platform(0.8, 0);
        let trace = run_global(&settled, config, &mut p).unwrap();
        assert_eq!(trace.last().cost, 0, "no judgments should be bought");
        assert_eq!(p.ledger().judgments, 0);
    }

    #[test]
    fn respects_total_budget_exactly() {
        let cases = cases();
        let config = GlobalBudgetConfig::new(7, 3, 0.8).unwrap();
        let mut p = platform(0.8, 1);
        let trace = run_global(&cases, config, &mut p).unwrap();
        assert_eq!(trace.last().cost, 7);
        assert_eq!(p.ledger().judgments, 7);
        // Each round asks at most one task per entity (2 here), so the
        // batches are 2 + 2 + 2 + 1 — four rounds plus the prior point.
        assert_eq!(trace.points.len(), 5);
    }

    #[test]
    fn beats_fixed_budget_on_heterogeneous_entities() {
        use crate::pool::Pool;
        use crate::round::RoundConfig;
        use crate::selection::GreedySelector;
        use crate::system::Experiment;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Entity sizes 2 and 6 facts: fixed budget wastes judgments on the
        // small entity while starving the big one.
        let cases = vec![
            EntityCase::simple(
                "small",
                JointDist::independent(&[0.9, 0.1]).unwrap(),
                Assignment(0b01),
            ),
            EntityCase::simple(
                "large",
                JointDist::uniform(6).unwrap(),
                Assignment(0b101011),
            ),
        ];
        // Averaged over enough seeds that the comparison is robust to
        // ulp-level evaluation-order changes in the selector (an
        // individual seed can go either way).
        let total = 16;
        let mut global_sum = 0.0;
        let mut fixed_sum = 0.0;
        for seed in 0..32 {
            let config = GlobalBudgetConfig::new(total, 2, 0.85).unwrap();
            let mut p = platform(0.85, seed);
            global_sum += run_global(&cases, config, &mut p).unwrap().last().utility;

            let fixed = RoundConfig::new(2, total / 2, 0.85).unwrap();
            let exp = Experiment::new(cases.clone(), fixed).unwrap();
            let mut p = platform(0.85, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            fixed_sum += exp
                .run_sharded(&GreedySelector::fast(), &mut p, &mut rng, &Pool::serial())
                .unwrap()
                .last()
                .utility;
        }
        assert!(
            global_sum > fixed_sum,
            "global {global_sum} should beat fixed {fixed_sum}"
        );
    }
}
