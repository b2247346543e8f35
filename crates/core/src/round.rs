//! Round vocabulary and the closed-loop driver for one entity (paper
//! Figure 1).
//!
//! "We call a selection-collection-updating cycle as a round … As long as we
//! have budget, we run another round" (Section III). Per entity (book) the
//! paper gives a budget `B`; each round asks `min(k, n, remaining)` tasks
//! ("If a book has n ≥ k facts, we will ask k tasks in every round …
//! Otherwise, we will ask n tasks in each round instead", Section V-A).
//!
//! The round itself is implemented once, by
//! [`crate::session::SessionState`]; [`run_entity`] steps one session
//! against a synchronous [`CrowdPlatform`] until its budget runs out.

use crate::error::CoreError;
use crate::selection::TaskSelector;
use crate::session::{SelectOutcome, SessionState};
use crowdfusion_crowd::{AnswerModel, CrowdPlatform, TaskClass};
use crowdfusion_jointdist::{Assignment, JointDist};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Parameters of a budgeted CrowdFusion run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundConfig {
    /// Number of tasks per round (`k`).
    pub k: usize,
    /// Total budget `B` in crowd judgments per entity (the paper uses 60).
    pub budget: usize,
    /// The crowd accuracy the *algorithm* assumes when planning and
    /// updating. May differ from the simulator's true accuracy — the
    /// paper's Pc-setting experiments (Figure 4) explore exactly that gap.
    pub pc_assumed: f64,
}

impl RoundConfig {
    /// Creates a config after validating `k` and `pc`.
    pub fn new(k: usize, budget: usize, pc_assumed: f64) -> Result<RoundConfig, CoreError> {
        if k == 0 {
            return Err(CoreError::EmptyTaskSet);
        }
        crate::validate_pc(pc_assumed)?;
        Ok(RoundConfig {
            k,
            budget,
            pc_assumed,
        })
    }

    /// Re-runs [`RoundConfig::new`]'s checks on a decoded config — the
    /// fields arrive through `Deserialize`, which skips them.
    pub(crate) fn checked(self) -> Result<RoundConfig, CoreError> {
        RoundConfig::new(self.k, self.budget, self.pc_assumed)
    }
}

/// One entity (book) in an experiment: its prior, hidden gold truth and the
/// task metadata shown to crowd workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityCase {
    /// Display name (book title, country name, …).
    pub name: String,
    /// The machine-fusion prior over the entity's facts.
    pub prior: JointDist,
    /// Hidden gold truth (drives the simulated crowd).
    pub gold: Assignment,
    /// Per-fact crowd prompts.
    pub prompts: Vec<String>,
    /// Per-fact confusion classes (drive difficulty-aware answer models).
    pub classes: Vec<TaskClass>,
}

impl EntityCase {
    /// Builds a case with generic prompts and clean classes.
    pub fn simple(name: impl Into<String>, prior: JointDist, gold: Assignment) -> EntityCase {
        let n = prior.num_vars();
        let name = name.into();
        EntityCase {
            prompts: (0..n)
                .map(|i| format!("Is fact {i} of \"{name}\" true?"))
                .collect(),
            classes: vec![TaskClass::Clean; n],
            name,
            prior,
            gold,
        }
    }

    /// Number of facts.
    pub fn num_facts(&self) -> usize {
        self.prior.num_vars()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), CoreError> {
        let n = self.num_facts();
        if self.prompts.len() != n || self.classes.len() != n {
            return Err(CoreError::AnswerLengthMismatch {
                tasks: n,
                answers: self.prompts.len().min(self.classes.len()),
            });
        }
        Ok(())
    }
}

/// The record of one round on one entity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundPoint {
    /// Round number (1-based).
    pub round: usize,
    /// Cumulative judgments spent on this entity after the round.
    pub cost: usize,
    /// Utility `Q(F)` after merging this round's answers.
    pub utility: f64,
    /// The facts asked this round.
    pub tasks: Vec<usize>,
    /// The crowd's judgments, parallel to `tasks`.
    pub answers: Vec<bool>,
}

/// The full trace of a budgeted run on one entity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityTrace {
    /// Entity name.
    pub name: String,
    /// Utility of the prior before any crowdsourcing.
    pub prior_utility: f64,
    /// Per-round records.
    pub points: Vec<RoundPoint>,
    /// The posterior after the budget is exhausted.
    pub posterior: JointDist,
}

impl EntityTrace {
    /// Total judgments spent.
    pub fn total_cost(&self) -> usize {
        self.points.last().map_or(0, |p| p.cost)
    }

    /// Final utility (prior utility when no round ran).
    pub fn final_utility(&self) -> f64 {
        self.points.last().map_or(self.prior_utility, |p| p.utility)
    }
}

/// Runs the full budget loop of Figure 1 on one entity: select, publish to
/// `platform`, absorb, until the budget is spent or the selector stops.
///
/// The session's selector stream is seeded with one draw from `rng`, and
/// `task_seq` supplies globally unique task ids across entities/rounds.
pub fn run_entity<M: AnswerModel>(
    case: &EntityCase,
    selector: &dyn TaskSelector,
    config: RoundConfig,
    platform: &mut CrowdPlatform<M>,
    rng: &mut dyn RngCore,
    task_seq: &mut u64,
) -> Result<EntityTrace, CoreError> {
    let mut state = SessionState::new(case.clone(), config, rng.next_u64(), *task_seq)?;
    while let SelectOutcome::Round(round) = state.select(selector)? {
        let (tasks, truths) = round.into_crowd_batch(case.gold);
        let answers = platform.publish(&tasks, &truths)?;
        let judgments: Vec<(u64, bool)> = answers.iter().map(|a| (a.task.0, a.value)).collect();
        state.absorb(&judgments)?;
    }
    *task_seq += state.spent() as u64;
    Ok(EntityTrace {
        name: case.name.clone(),
        prior_utility: state.series().prior_utility,
        points: state.points().to_vec(),
        posterior: state.posterior().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{GreedySelector, RandomSelector};
    use crowdfusion_crowd::{UniformAccuracy, WorkerPool};
    use crowdfusion_jointdist::presets::paper_running_example;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn platform(pc: f64, seed: u64) -> CrowdPlatform<UniformAccuracy> {
        CrowdPlatform::new(
            WorkerPool::uniform(8, pc).unwrap(),
            UniformAccuracy::new(pc),
            seed,
        )
    }

    fn example_case() -> EntityCase {
        EntityCase::simple(
            "Hong Kong",
            paper_running_example(),
            Assignment(0b0111), // f1, f2, f3 true; f4 (Europe) false
        )
    }

    #[test]
    fn config_validation() {
        assert!(RoundConfig::new(0, 10, 0.8).is_err());
        assert!(RoundConfig::new(2, 10, 0.4).is_err());
        assert!(RoundConfig::new(2, 10, 0.8).is_ok());
    }

    #[test]
    fn budget_is_respected_exactly() {
        let case = example_case();
        let config = RoundConfig::new(3, 10, 0.8).unwrap();
        let mut platform = platform(0.8, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seq = 0;
        let trace = run_entity(
            &case,
            &GreedySelector::fast(),
            config,
            &mut platform,
            &mut rng,
            &mut seq,
        )
        .unwrap();
        assert_eq!(trace.total_cost(), 10);
        assert_eq!(platform.ledger().judgments, 10);
        // Rounds: 3+3+3+1.
        assert_eq!(trace.points.len(), 4);
        assert_eq!(trace.points[3].tasks.len(), 1);
        assert_eq!(seq, 10);
    }

    #[test]
    fn k_larger_than_facts_asks_all_facts_each_round() {
        let case = example_case();
        let config = RoundConfig::new(9, 8, 0.8).unwrap();
        let mut platform = platform(0.8, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seq = 0;
        let trace = run_entity(
            &case,
            &RandomSelector,
            config,
            &mut platform,
            &mut rng,
            &mut seq,
        )
        .unwrap();
        assert_eq!(trace.points[0].tasks.len(), 4);
        assert_eq!(trace.points[1].tasks.len(), 4);
        assert_eq!(trace.total_cost(), 8);
    }

    #[test]
    fn reliable_crowd_improves_utility_and_recovers_truth() {
        let case = example_case();
        let config = RoundConfig::new(2, 40, 0.9).unwrap();
        let mut platform = platform(0.9, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seq = 0;
        let trace = run_entity(
            &case,
            &GreedySelector::fast(),
            config,
            &mut platform,
            &mut rng,
            &mut seq,
        )
        .unwrap();
        assert!(trace.final_utility() > trace.prior_utility + 0.5);
        // The posterior should recover the hidden gold truth.
        assert_eq!(trace.posterior.map_truth(), case.gold);
    }

    #[test]
    fn perfect_crowd_with_certain_prior_stops_early() {
        let prior = JointDist::certain(3, Assignment(0b010)).unwrap();
        let case = EntityCase::simple("done", prior, Assignment(0b010));
        let config = RoundConfig::new(2, 10, 1.0).unwrap();
        let mut platform = platform(1.0, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = 0;
        let trace = run_entity(
            &case,
            &GreedySelector::paper_approx(),
            config,
            &mut platform,
            &mut rng,
            &mut seq,
        )
        .unwrap();
        assert!(trace.points.is_empty());
        assert_eq!(trace.total_cost(), 0);
        assert_eq!(platform.ledger().judgments, 0);
    }

    #[test]
    fn case_validation_catches_mismatched_metadata() {
        let mut case = example_case();
        case.prompts.pop();
        assert!(case.validate().is_err());
        let config = RoundConfig::new(2, 4, 0.8).unwrap();
        let mut p = platform(0.8, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = 0;
        assert!(run_entity(&case, &RandomSelector, config, &mut p, &mut rng, &mut seq).is_err());
    }

    #[test]
    fn trace_round_points_are_monotone_in_cost() {
        let case = example_case();
        let config = RoundConfig::new(1, 6, 0.7).unwrap();
        let mut p = platform(0.7, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seq = 0;
        let trace = run_entity(
            &case,
            &GreedySelector::fast(),
            config,
            &mut p,
            &mut rng,
            &mut seq,
        )
        .unwrap();
        let costs: Vec<usize> = trace.points.iter().map(|pt| pt.cost).collect();
        assert_eq!(costs, vec![1, 2, 3, 4, 5, 6]);
        for pt in &trace.points {
            assert_eq!(pt.tasks.len(), pt.answers.len());
        }
    }
}
