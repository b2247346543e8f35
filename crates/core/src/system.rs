//! Multi-entity experiment orchestration.
//!
//! The paper treats each book independently with its own budget
//! (Section V-A) and reports quality *curves* over the total number of
//! crowd judgments across all books (Figures 2–4). [`Experiment`] therefore
//! interleaves rounds across entities — one global round asks every
//! entity's batch — and records a [`QualityPoint`] (summed utility +
//! micro-F1 against gold) after each global round.
//!
//! [`Experiment::run_sharded`] takes the global round literally: per round,
//! every entity's [`SessionState`] selects and absorbs on the worker pool
//! while **all** entities' task sets travel in a single
//! [`RoundBatch`]/[`CrowdPlatform::publish_batch`] round trip, answered
//! from per-entity [`AnswerStreams`]. The reference it is tested against is
//! the same entities opened in a [`crate::shard::ShardedRegistry`] and
//! driven one session at a time from `AnswerReplay` streams
//! (`crates/core/tests/batched_rounds.rs`).

use crate::error::CoreError;
use crate::metrics::{ConfusionCounts, QualityPoint};
use crate::pool::Pool;
use crate::round::{EntityCase, RoundConfig};
use crate::selection::TaskSelector;
use crate::session::{PublishedRound, SelectOutcome, SessionState};
use crowdfusion_crowd::{AnswerModel, AnswerStreams, CrowdPlatform, RoundBatch};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// A multi-entity CrowdFusion experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    cases: Vec<EntityCase>,
    config: RoundConfig,
}

/// One entity's complete quality series: its prior quality and per-round
/// quality deltas. This is the unit [`assemble_trace`] aggregates into the
/// global quality-vs-cost curve. Every [`SessionState`] keeps one, so
/// identical per-entity rounds yield identical experiment traces whether
/// an offline run or a session registry drove them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct EntitySeries {
    /// Utility of the prior before any crowdsourcing.
    pub prior_utility: f64,
    /// Confusion counts of the prior against gold.
    pub prior_counts: ConfusionCounts,
    /// Per-round quality deltas, in round order.
    pub rounds: Vec<RoundQuality>,
}

/// One round of one entity in a quality series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundQuality {
    /// Judgments spent this round.
    pub cost_delta: u64,
    /// Utility after merging this round's answers.
    pub utility: f64,
    /// Confusion counts at this round's posterior.
    pub counts: ConfusionCounts,
}

/// The quality-vs-cost series produced by a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentTrace {
    /// Selector used.
    pub selector: String,
    /// Quality after each global round; `points[0]` is the prior (cost 0).
    pub points: Vec<QualityPoint>,
}

impl ExperimentTrace {
    /// The final quality point.
    pub fn last(&self) -> &QualityPoint {
        self.points
            .last()
            .expect("trace always has the prior point")
    }
}

impl Experiment {
    /// Creates an experiment over the given entities.
    pub fn new(cases: Vec<EntityCase>, config: RoundConfig) -> Result<Experiment, CoreError> {
        for case in &cases {
            case.validate()?;
        }
        Ok(Experiment { cases, config })
    }

    /// The entities under study.
    pub fn cases(&self) -> &[EntityCase] {
        &self.cases
    }

    /// The round configuration.
    pub fn config(&self) -> RoundConfig {
        self.config
    }

    /// Runs the experiment with **batched crowd round trips**, sharded
    /// across entities on `pool`.
    ///
    /// This is the paper's round structure taken literally: one global
    /// round asks every entity's batch at once. Each entity is a
    /// [`SessionState`] opened with `(answer_seed, selector_seed)` drawn
    /// from `rng` in entity order and task ids from the block
    /// `(index << 32)..`, and each global round is a three-phase cycle:
    ///
    /// 1. **select** (parallel): every live session opens its round;
    /// 2. **collect** (one round trip): the rounds are assembled into a
    ///    [`RoundBatch`] in entity order and published with a single
    ///    [`CrowdPlatform::publish_batch`] call — `ledger.batches` counts
    ///    exactly one per global round — whose answers come back demuxed
    ///    per entity, drawn from per-entity [`AnswerStreams`];
    /// 3. **absorb** (parallel): every session closes its round.
    ///
    /// The sessions are built on the pool, and the parallel phases hand
    /// them out one per steal, largest prior support first (ties to the
    /// lower entity index): select and close each cost about one pass over
    /// the support, so the heavy entities start first and the light ones
    /// fill in behind them. The batch, the demuxed answers, the error
    /// returned (the lowest failing entity's) and the series stay in
    /// entity order.
    ///
    /// Every random stream (selector and crowd) is a pure function of the
    /// entity index and the master RNG's state on entry, so the returned
    /// trace is **identical for any thread count** and identical to a
    /// session registry seeded like `rng` and driven one session at a
    /// time (`tests/batched_rounds.rs` pins both equalities down). Point
    /// `r` of the trace aggregates every entity's state after
    /// `min(r, rounds_i)` rounds.
    pub fn run_sharded<M: AnswerModel>(
        &self,
        selector: &dyn TaskSelector,
        platform: &mut CrowdPlatform<M>,
        rng: &mut dyn RngCore,
        pool: &Pool,
    ) -> Result<ExperimentTrace, CoreError> {
        /// One entity's session plus its handoffs between the phases.
        struct Driver {
            state: SessionState,
            /// Selected, not yet published round (phase 1 → 2).
            round: Option<PublishedRound>,
            /// Demuxed `(task id, judgment)` pairs (phase 2 → 3).
            answers: Option<Vec<(u64, bool)>>,
            /// First error raised on a pool worker; surfaced after the
            /// phase joins (entity order keeps the choice deterministic).
            error: Option<CoreError>,
        }

        // Seeds are drawn up front in entity order, so the schedule never
        // touches the master RNG afterwards.
        let seeds: Vec<(u64, u64)> = self
            .cases
            .iter()
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .collect();
        let mut streams = AnswerStreams::from_seeds(seeds.iter().map(|&(p, _)| p));
        // Heaviest first, ties to the lower entity index: the order the
        // pool hands the drivers out in, one per steal.
        let mut order: Vec<usize> = (0..self.cases.len()).collect();
        order.sort_by_key(|&i| (Reverse(self.cases[i].prior.support_size()), i));
        // `slot[i]` is where entity `i`'s driver is stored.
        let mut slot = vec![0; order.len()];
        for (at, &i) in order.iter().enumerate() {
            slot[i] = at;
        }
        let mut built: Vec<Option<Result<Driver, CoreError>>> = Vec::new();
        built.resize_with(order.len(), || None);
        pool.for_each_chunk(&mut built, 1, |at, built| {
            let index = order[at];
            let case = self.cases[index].clone();
            let state = SessionState::new(case, self.config, seeds[index].1, (index as u64) << 32);
            built[0] = Some(state.map(|state| Driver {
                state,
                round: None,
                answers: None,
                error: None,
            }));
        });
        if let Some(e) = slot
            .iter()
            .find_map(|&at| built[at].as_ref()?.as_ref().err())
        {
            return Err(e.clone());
        }
        let mut drivers = built
            .into_iter()
            .flatten()
            .collect::<Result<Vec<Driver>, CoreError>>()?;

        loop {
            // Phase 1 — select: every live session opens its round on the
            // pool, one driver per steal.
            pool.for_each_chunk(&mut drivers, 1, |_, chunk| {
                for d in chunk.iter_mut() {
                    match d.state.select(selector) {
                        Ok(SelectOutcome::Round(round)) => d.round = Some(round),
                        Ok(SelectOutcome::Exhausted) => {}
                        Err(e) => d.error = Some(e),
                    }
                }
            });
            if let Some(e) = slot.iter().find_map(|&at| drivers[at].error.take()) {
                return Err(e);
            }

            // Phase 2 — collect: one global round trip for every open
            // round, in entity order; demux the answers back.
            let mut batch = RoundBatch::new();
            let mut asked = Vec::new();
            for (i, &at) in slot.iter().enumerate() {
                if let Some(round) = drivers[at].round.take() {
                    let (tasks, truths) = round.into_crowd_batch(self.cases[i].gold);
                    batch.push_group(i, tasks, truths);
                    asked.push(i);
                }
            }
            if batch.is_empty() {
                break; // every entity exhausted its budget (or selector)
            }
            let demuxed = platform.publish_batch(&batch, &mut streams)?;
            for (i, answers) in asked.into_iter().zip(demuxed) {
                drivers[slot[i]].answers =
                    Some(answers.iter().map(|a| (a.task.0, a.value)).collect());
            }

            // Phase 3 — absorb: close every open round on the pool, one
            // driver per steal.
            pool.for_each_chunk(&mut drivers, 1, |_, chunk| {
                for d in chunk.iter_mut() {
                    if let Some(answers) = d.answers.take() {
                        if let Err(e) = d.state.absorb(&answers) {
                            d.error = Some(e);
                        }
                    }
                }
            });
            if let Some(e) = slot.iter().find_map(|&at| drivers[at].error.take()) {
                return Err(e);
            }
        }

        let series: Vec<EntitySeries> = slot
            .iter()
            .map(|&at| drivers[at].state.series().clone())
            .collect();
        Ok(assemble_trace(&series, selector.name()))
    }
}

/// Reassembles per-entity quality series into the global quality-vs-cost
/// curve: point `r` aggregates each entity after `min(r, its round count)`
/// rounds. Shared by [`Experiment::run_sharded`] and the session registry
/// — identical series therefore yield identical traces, which is how the
/// service's determinism contract against [`Experiment::run_sharded`] is
/// checked end to end.
pub fn assemble_trace(series: &[EntitySeries], selector: String) -> ExperimentTrace {
    let max_rounds = series.iter().map(|s| s.rounds.len()).max().unwrap_or(0);
    let mut points = Vec::with_capacity(max_rounds + 1);
    let mut cost = 0u64;
    for r in 0..=max_rounds {
        let mut utility = 0.0;
        let mut counts = ConfusionCounts::default();
        for entity in series {
            if r >= 1 && r <= entity.rounds.len() {
                cost += entity.rounds[r - 1].cost_delta;
            }
            match r.min(entity.rounds.len()) {
                0 => {
                    utility += entity.prior_utility;
                    counts.merge(entity.prior_counts);
                }
                reached => {
                    let round = &entity.rounds[reached - 1];
                    utility += round.utility;
                    counts.merge(round.counts);
                }
            }
        }
        points.push(QualityPoint {
            cost,
            utility,
            f1: counts.f1(),
            precision: counts.precision(),
            recall: counts.recall(),
        });
    }
    ExperimentTrace { selector, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{GreedySelector, RandomSelector};
    use crowdfusion_crowd::{UniformAccuracy, WorkerPool};
    use crowdfusion_jointdist::presets::paper_running_example;
    use crowdfusion_jointdist::{Assignment, JointDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    fn platform(pc: f64, seed: u64) -> CrowdPlatform<UniformAccuracy> {
        CrowdPlatform::new(
            WorkerPool::uniform(8, pc).unwrap(),
            UniformAccuracy::new(pc),
            seed,
        )
    }

    fn cases() -> Vec<EntityCase> {
        vec![
            EntityCase::simple("hk", paper_running_example(), Assignment(0b0111)),
            EntityCase::simple("coin", JointDist::uniform(3).unwrap(), Assignment(0b101)),
        ]
    }

    #[test]
    fn trace_starts_at_prior_and_spends_full_budget() {
        let config = RoundConfig::new(2, 8, 0.8).unwrap();
        let exp = Experiment::new(cases(), config).unwrap();
        let mut p = platform(0.8, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let trace = exp
            .run_sharded(&GreedySelector::fast(), &mut p, &mut rng, &Pool::serial())
            .unwrap();
        assert_eq!(trace.points[0].cost, 0);
        // 2 entities × budget 8 = 16 judgments, 2 per entity per round.
        assert_eq!(trace.last().cost, 16);
        assert_eq!(trace.points.len(), 5); // prior + 4 rounds
        assert_eq!(p.ledger().judgments, 16);
    }

    #[test]
    fn informative_crowd_beats_prior_quality() {
        let config = RoundConfig::new(2, 30, 0.9).unwrap();
        let exp = Experiment::new(cases(), config).unwrap();
        let mut p = platform(0.9, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let trace = exp
            .run_sharded(&GreedySelector::fast(), &mut p, &mut rng, &Pool::serial())
            .unwrap();
        let first = &trace.points[0];
        let last = trace.last();
        assert!(last.utility > first.utility + 1.0);
        assert!(last.f1 >= first.f1);
        assert!(last.f1 > 0.9, "final F1 {}", last.f1);
    }

    #[test]
    fn greedy_beats_random_in_utility_at_equal_cost() {
        // The paper's headline comparison. Averaged over many seeds: an
        // individual run can go either way (the paper itself observes the
        // quality "is not absolute monotonic w.r.t the number of crowd
        // sourced answers received").
        let config = RoundConfig::new(1, 12, 0.8).unwrap();
        let exp = Experiment::new(cases(), config).unwrap();
        let mut greedy_sum = 0.0;
        let mut random_sum = 0.0;
        for seed in 0..24 {
            let mut p = platform(0.8, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            greedy_sum += exp
                .run_sharded(&GreedySelector::fast(), &mut p, &mut rng, &Pool::serial())
                .unwrap()
                .last()
                .utility;
            let mut p = platform(0.8, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            random_sum += exp
                .run_sharded(&RandomSelector, &mut p, &mut rng, &Pool::serial())
                .unwrap()
                .last()
                .utility;
        }
        assert!(
            greedy_sum > random_sum,
            "greedy {greedy_sum} vs random {random_sum}"
        );
    }

    #[test]
    fn sharded_run_is_thread_count_invariant() {
        let config = RoundConfig::new(2, 8, 0.8).unwrap();
        let exp = Experiment::new(cases(), config).unwrap();
        let reference = {
            let mut p = platform(0.8, 3);
            let mut rng = StdRng::seed_from_u64(4);
            exp.run_sharded(&GreedySelector::fast(), &mut p, &mut rng, &Pool::serial())
                .unwrap()
        };
        for threads in [2usize, 4, 7] {
            let mut p = platform(0.8, 3);
            let mut rng = StdRng::seed_from_u64(4);
            let trace = exp
                .run_sharded(
                    &GreedySelector::engine(threads),
                    &mut p,
                    &mut rng,
                    &Pool::new(threads),
                )
                .unwrap();
            assert_eq!(trace.points, reference.points, "threads = {threads}");
            assert_eq!(p.ledger().judgments, 16);
        }
    }

    #[test]
    fn sharded_run_has_serial_trace_structure() {
        // Every entity spends its whole budget, two tasks a round; the
        // batched protocol pays exactly one platform round trip per global
        // round.
        let config = RoundConfig::new(2, 8, 0.8).unwrap();
        let exp = Experiment::new(cases(), config).unwrap();
        let mut p = platform(0.8, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let trace = exp
            .run_sharded(&GreedySelector::fast(), &mut p, &mut rng, &Pool::new(2))
            .unwrap();
        assert_eq!(trace.points[0].cost, 0);
        assert_eq!(trace.last().cost, 16);
        assert_eq!(trace.points.len(), 5); // prior + 4 rounds
        assert_eq!(p.ledger().judgments, 16);
        assert_eq!(p.ledger().batches, 4); // one publish_batch per global round
        for w in trace.points.windows(2) {
            assert!(w[1].cost > w[0].cost);
        }
    }

    #[test]
    fn sharded_run_improves_quality_like_serial() {
        let config = RoundConfig::new(2, 30, 0.9).unwrap();
        let exp = Experiment::new(cases(), config).unwrap();
        let mut p = platform(0.9, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let trace = exp
            .run_sharded(&GreedySelector::fast(), &mut p, &mut rng, &Pool::new(4))
            .unwrap();
        let first = &trace.points[0];
        let last = trace.last();
        assert!(last.utility > first.utility + 1.0);
        assert!(last.f1 > 0.9, "final F1 {}", last.f1);
    }

    #[test]
    fn sharded_run_with_no_entities_yields_prior_point() {
        let config = RoundConfig::new(2, 8, 0.8).unwrap();
        let exp = Experiment::new(Vec::new(), config).unwrap();
        let mut p = platform(0.8, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let trace = exp
            .run_sharded(&RandomSelector, &mut p, &mut rng, &Pool::new(2))
            .unwrap();
        assert_eq!(trace.points.len(), 1);
        assert_eq!(trace.points[0].cost, 0);
    }

    /// Holds the first select of the entity with `heavy` facts until every
    /// other entity has selected once (2 s at most), then picks like
    /// [`RandomSelector`].
    struct HoldHeaviest {
        heavy: usize,
        others: usize,
        selected: Mutex<usize>,
        ran: Condvar,
        held: AtomicBool,
        timed_out: AtomicBool,
    }

    impl TaskSelector for HoldHeaviest {
        fn name(&self) -> String {
            RandomSelector.name()
        }

        fn select(
            &self,
            dist: &JointDist,
            pc: f64,
            k: usize,
            rng: &mut dyn RngCore,
        ) -> Result<Vec<usize>, CoreError> {
            let mut selected = self.selected.lock().unwrap();
            if dist.num_vars() != self.heavy {
                *selected += 1;
                self.ran.notify_all();
            } else if !self.held.swap(true, Ordering::SeqCst) {
                let timeout = Duration::from_secs(2);
                let wait = self
                    .ran
                    .wait_timeout_while(selected, timeout, |n| *n < self.others)
                    .unwrap()
                    .1;
                self.timed_out.store(wait.timed_out(), Ordering::SeqCst);
            }
            RandomSelector.select(dist, pc, k, rng)
        }
    }

    #[test]
    fn sharded_run_hands_out_the_heaviest_entity_alone() {
        // The heaviest entity comes first in entity order and its first
        // select waits for every other entity's. On two workers that ends
        // only if the other worker takes the light entities one by one; a
        // contiguous half would queue two of them behind the heavy one.
        let mut entities = vec![EntityCase::simple(
            "heavy",
            JointDist::uniform(5).unwrap(),
            Assignment(0b10110),
        )];
        entities.extend(cases());
        entities.push(EntityCase::simple(
            "pair",
            JointDist::uniform(2).unwrap(),
            Assignment(0b01),
        ));
        let config = RoundConfig::new(1, 3, 0.8).unwrap();
        let exp = Experiment::new(entities, config).unwrap();
        let hold = HoldHeaviest {
            heavy: 5,
            others: exp.cases().len() - 1,
            selected: Mutex::new(0),
            ran: Condvar::new(),
            held: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
        };
        let mut p = platform(0.8, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let trace = exp
            .run_sharded(&hold, &mut p, &mut rng, &Pool::new(2))
            .unwrap();
        assert!(hold.held.load(Ordering::SeqCst));
        assert!(
            !hold.timed_out.load(Ordering::SeqCst),
            "a light entity queued behind the heaviest one"
        );
        let mut p = platform(0.8, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let serial = exp
            .run_sharded(&RandomSelector, &mut p, &mut rng, &Pool::serial())
            .unwrap();
        assert_eq!(trace, serial);
    }

    /// Refuses every entity with more than two facts.
    struct RefuseLarge;

    impl TaskSelector for RefuseLarge {
        fn name(&self) -> String {
            "refuse-large".to_string()
        }

        fn select(
            &self,
            dist: &JointDist,
            pc: f64,
            k: usize,
            rng: &mut dyn RngCore,
        ) -> Result<Vec<usize>, CoreError> {
            match dist.num_vars() {
                n if n > 2 => Err(CoreError::TooManyFacts {
                    requested: n,
                    limit: 2,
                }),
                _ => RandomSelector.select(dist, pc, k, rng),
            }
        }
    }

    #[test]
    fn sharded_run_returns_the_lowest_failing_entity_error() {
        // Entities 0 (3 facts) and 1 (5 facts) both fail; entity 1 runs
        // first, yet entity 0's error is the one returned.
        let config = RoundConfig::new(1, 2, 0.8).unwrap();
        let cases = [3usize, 5, 2, 2]
            .iter()
            .map(|&n| EntityCase::simple("e", JointDist::uniform(n).unwrap(), Assignment(0)))
            .collect();
        let exp = Experiment::new(cases, config).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let mut p = platform(0.8, 1);
            let mut rng = StdRng::seed_from_u64(2);
            let err = exp
                .run_sharded(&RefuseLarge, &mut p, &mut rng, &Pool::new(threads))
                .unwrap_err();
            assert_eq!(
                err,
                CoreError::TooManyFacts {
                    requested: 3,
                    limit: 2
                },
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn rejects_inconsistent_cases() {
        let mut bad = cases();
        bad[0].classes.pop();
        let config = RoundConfig::new(2, 4, 0.8).unwrap();
        assert!(Experiment::new(bad, config).is_err());
    }

    #[test]
    fn costs_are_strictly_increasing() {
        let config = RoundConfig::new(3, 9, 0.7).unwrap();
        let exp = Experiment::new(cases(), config).unwrap();
        let mut p = platform(0.7, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let trace = exp
            .run_sharded(&RandomSelector, &mut p, &mut rng, &Pool::serial())
            .unwrap();
        for w in trace.points.windows(2) {
            assert!(w[1].cost > w[0].cost);
        }
    }
}
