//! The crowdsourcing platform simulator (the gMission stand-in).
//!
//! "Tasks generated by our CrowdFusion system are posted on gMission and then
//! pushed to crowd workers. Each task is answered independently by a number
//! of anonymous gMission users" (paper Section V-A). The simulator keeps the
//! same interface: publish a batch, receive one judgment per task, pay one
//! unit of budget per judgment.

use crate::answer::{Answer, AnswerModel};
use crate::error::CrowdError;
use crate::task::{RoundBatch, Task};
use crate::worker::WorkerPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-entity crowd answer streams for batched publishing.
///
/// Batched round trips ([`CrowdPlatform::publish_batch`]) must reproduce
/// the exact answers that per-entity platform forks
/// ([`CrowdPlatform::fork_seeded`]) would have produced, so the randomness
/// cannot come from the platform's single master RNG — it comes from one
/// dedicated stream per entity, seeded identically to the fork the entity
/// would otherwise have owned. The streams live *outside* the platform so
/// one platform can serve many concurrent experiments, each with its own
/// stream set.
#[derive(Debug, Clone)]
pub struct AnswerStreams {
    rngs: Vec<StdRng>,
}

impl AnswerStreams {
    /// One deterministic stream per seed, in order. Stream `i` answers
    /// exactly like a fork built with `fork_seeded(seeds[i])` would.
    pub fn from_seeds(seeds: impl IntoIterator<Item = u64>) -> AnswerStreams {
        AnswerStreams {
            rngs: seeds.into_iter().map(StdRng::seed_from_u64).collect(),
        }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.rngs.len()
    }

    /// Whether no streams were seeded.
    pub fn is_empty(&self) -> bool {
        self.rngs.is_empty()
    }
}

/// Running totals of crowdsourcing spend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostLedger {
    /// Total individual judgments collected (the paper's cost unit:
    /// "Cost/#Tasks").
    pub judgments: u64,
    /// Number of published batches (the paper's *rounds*).
    pub batches: u64,
}

/// Draws one judgment: a uniformly random worker from `pool` answers
/// `task`, correct with probability `model.prob_correct` — the Bernoulli
/// error channel of Definition 2. This is the single code path behind both
/// [`CrowdPlatform::publish`] (drawing from the platform's own RNG) and
/// [`CrowdPlatform::publish_batch`] (drawing from a per-entity stream), so
/// the two protocols produce bit-identical answers from equal RNG states.
pub(crate) fn answer_one<M: AnswerModel>(
    pool: &WorkerPool,
    model: &M,
    rng: &mut StdRng,
    task: &Task,
    truth: bool,
) -> Result<Answer, CrowdError> {
    let worker = pool.pick(rng)?;
    let p = model.prob_correct(&worker, task);
    let correct = rng.gen::<f64>() < p;
    Ok(Answer {
        task: task.id,
        worker: worker.id,
        value: if correct { truth } else { !truth },
    })
}

/// A seeded crowd platform: worker pool + answer model + RNG + ledger.
pub struct CrowdPlatform<M: AnswerModel> {
    pool: WorkerPool,
    model: M,
    rng: StdRng,
    ledger: CostLedger,
}

impl<M: AnswerModel> CrowdPlatform<M> {
    /// Creates a platform with a deterministic seed.
    pub fn new(pool: WorkerPool, model: M, seed: u64) -> CrowdPlatform<M> {
        CrowdPlatform {
            pool,
            model,
            rng: StdRng::seed_from_u64(seed),
            ledger: CostLedger::default(),
        }
    }

    /// The nominal crowd accuracy an algorithm should assume (what a
    /// pre-test would estimate).
    pub fn nominal_accuracy(&self) -> f64 {
        self.model.nominal_accuracy()
    }

    /// Forks a platform with the same worker pool and answer model but an
    /// independent RNG stream seeded from `seed` and a zeroed ledger.
    ///
    /// A fork is the per-entity reference protocol: its answers are a pure
    /// function of the fork seed. [`CrowdPlatform::publish_batch`] and
    /// [`crate::AnswerReplay`] draw from streams seeded the same way, and
    /// their tests compare them against a fork bit for bit.
    pub fn fork_seeded(&self, seed: u64) -> CrowdPlatform<M>
    where
        M: Clone,
    {
        CrowdPlatform {
            pool: self.pool.clone(),
            model: self.model.clone(),
            rng: StdRng::seed_from_u64(seed),
            ledger: CostLedger::default(),
        }
    }

    /// Publishes a batch of tasks whose hidden ground truths are `truths`,
    /// returning one answer per task (in task order). Every judgment costs
    /// one budget unit.
    ///
    /// Each task is picked up by a uniformly random worker; the worker's
    /// judgment equals the truth with probability
    /// `model.prob_correct(worker, task)` — the Bernoulli error channel of
    /// Definition 2, independent across tasks.
    pub fn publish(&mut self, tasks: &[Task], truths: &[bool]) -> Result<Vec<Answer>, CrowdError> {
        if tasks.len() != truths.len() {
            return Err(CrowdError::LengthMismatch {
                tasks: tasks.len(),
                truths: truths.len(),
            });
        }
        let mut answers = Vec::with_capacity(tasks.len());
        for (task, &truth) in tasks.iter().zip(truths) {
            let answer = answer_one(&self.pool, &self.model, &mut self.rng, task, truth)?;
            answers.push(answer);
            self.ledger.judgments += 1;
        }
        self.ledger.batches += 1;
        Ok(answers)
    }

    /// Publishes **every entity's batch in one global round trip** (the
    /// paper's round structure: "one global round asks every entity's
    /// batch"). Answers come back demuxed per group, in group order, and
    /// are drawn from each group's dedicated stream in `streams` — so the
    /// answer *values* are bit-identical to what per-entity forks
    /// ([`CrowdPlatform::fork_seeded`] with the stream's seed) publishing
    /// round by round would return. Only the ledger differs: the whole
    /// batch costs **one** `batches` tick (it is one round trip) plus one
    /// judgment per task, where the per-entity protocol pays one tick per
    /// entity per round.
    ///
    /// Validation happens up front: a length-mismatched or unknown-stream
    /// group fails the whole call with no spend recorded. An empty batch
    /// is a no-op — no round trip happens, so nothing is charged.
    pub fn publish_batch(
        &mut self,
        batch: &RoundBatch,
        streams: &mut AnswerStreams,
    ) -> Result<Vec<Vec<Answer>>, CrowdError> {
        for group in batch.groups() {
            if group.tasks.len() != group.truths.len() {
                return Err(CrowdError::LengthMismatch {
                    tasks: group.tasks.len(),
                    truths: group.truths.len(),
                });
            }
            if group.stream >= streams.len() {
                return Err(CrowdError::UnknownStream {
                    stream: group.stream,
                    streams: streams.len(),
                });
            }
        }
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let mut demuxed = Vec::with_capacity(batch.len());
        for group in batch.groups() {
            let rng = &mut streams.rngs[group.stream];
            let mut answers = Vec::with_capacity(group.tasks.len());
            for (task, &truth) in group.tasks.iter().zip(&group.truths) {
                answers.push(answer_one(&self.pool, &self.model, rng, task, truth)?);
                self.ledger.judgments += 1;
            }
            demuxed.push(answers);
        }
        self.ledger.batches += 1;
        Ok(demuxed)
    }

    /// The cost ledger so far.
    pub fn ledger(&self) -> CostLedger {
        self.ledger
    }

    /// The worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::UniformAccuracy;
    use crate::task::{Task, TaskClass};

    fn platform(pc: f64, seed: u64) -> CrowdPlatform<UniformAccuracy> {
        CrowdPlatform::new(
            WorkerPool::uniform(10, pc).unwrap(),
            UniformAccuracy::new(pc),
            seed,
        )
    }

    fn batch(n: usize) -> (Vec<Task>, Vec<bool>) {
        let tasks = (0..n)
            .map(|i| Task::new(i as u64, format!("q{i}")))
            .collect();
        let truths = (0..n).map(|i| i % 2 == 0).collect();
        (tasks, truths)
    }

    #[test]
    fn perfect_crowd_always_correct() {
        let mut p = platform(1.0, 1);
        let (tasks, truths) = batch(64);
        let answers = p.publish(&tasks, &truths).unwrap();
        for (a, &t) in answers.iter().zip(&truths) {
            assert_eq!(a.value, t);
        }
        assert_eq!(p.ledger().judgments, 64);
        assert_eq!(p.ledger().batches, 1);
    }

    #[test]
    fn empirical_accuracy_close_to_pc() {
        let mut p = platform(0.7, 42);
        let (tasks, truths) = batch(20_000);
        let answers = p.publish(&tasks, &truths).unwrap();
        let correct = answers
            .iter()
            .zip(&truths)
            .filter(|(a, &t)| a.value == t)
            .count();
        let rate = correct as f64 / truths.len() as f64;
        assert!((rate - 0.7).abs() < 0.01, "empirical rate {rate}");
    }

    #[test]
    fn publish_validates_lengths() {
        let mut p = platform(0.8, 0);
        let (tasks, _) = batch(3);
        assert_eq!(
            p.publish(&tasks, &[true]).unwrap_err(),
            CrowdError::LengthMismatch {
                tasks: 3,
                truths: 1
            }
        );
    }

    #[test]
    fn forks_are_independent_and_keep_their_own_ledger() {
        let master = platform(0.75, 1);
        let (tasks, truths) = batch(16);
        // Two forks with the same seed produce identical answer streams;
        // a different seed diverges.
        let a = master.fork_seeded(7).publish(&tasks, &truths).unwrap();
        let b = master.fork_seeded(7).publish(&tasks, &truths).unwrap();
        assert_eq!(a, b);
        let c = master.fork_seeded(8).publish(&tasks, &truths).unwrap();
        assert_ne!(a, c);
        // A fork starts with a clean ledger and charges only its own.
        let mut fork = master.fork_seeded(9);
        assert_eq!(fork.ledger(), CostLedger::default());
        fork.publish(&tasks, &truths).unwrap();
        assert_eq!(
            fork.ledger(),
            CostLedger {
                judgments: 16,
                batches: 1
            }
        );
        assert_eq!(master.ledger(), CostLedger::default());
    }

    #[test]
    fn publish_batch_reproduces_per_entity_forks_bit_for_bit() {
        // The batched-round determinism contract: one publish_batch per
        // round, with per-group streams, must return the exact answers
        // the per-entity forks produce publishing round by round.
        let master = platform(0.75, 1);
        let seeds = [11u64, 22, 33];
        let rounds: Vec<(Vec<Task>, Vec<bool>)> = (0..3).map(|r| batch(4 + r)).collect();

        // Reference: one fork per entity, publishing its rounds in order.
        let mut reference: Vec<Vec<Vec<Answer>>> = Vec::new();
        for &seed in &seeds {
            let mut fork = master.fork_seeded(seed);
            reference.push(
                rounds
                    .iter()
                    .map(|(tasks, truths)| fork.publish(tasks, truths).unwrap())
                    .collect(),
            );
        }

        // Batched: one RoundBatch (all entities) per global round.
        let mut batched = platform(0.75, 1);
        let mut streams = AnswerStreams::from_seeds(seeds);
        for (r, (tasks, truths)) in rounds.iter().enumerate() {
            let mut round = RoundBatch::new();
            for entity in 0..seeds.len() {
                round.push_group(entity, tasks.clone(), truths.clone());
            }
            let demuxed = batched.publish_batch(&round, &mut streams).unwrap();
            for (entity, answers) in demuxed.into_iter().enumerate() {
                assert_eq!(answers, reference[entity][r], "entity {entity} round {r}");
            }
        }
        // One batch tick per global round; same judgment count.
        assert_eq!(batched.ledger().batches, rounds.len() as u64);
        let judgments: usize = rounds.iter().map(|(t, _)| t.len() * seeds.len()).sum();
        assert_eq!(batched.ledger().judgments, judgments as u64);
    }

    #[test]
    fn publish_batch_validates_before_spending() {
        let mut p = platform(0.8, 0);
        let mut streams = AnswerStreams::from_seeds([1, 2]);
        let (tasks, truths) = batch(3);

        let mut bad_len = RoundBatch::new();
        bad_len.push_group(0, tasks.clone(), vec![true]);
        assert_eq!(
            p.publish_batch(&bad_len, &mut streams).unwrap_err(),
            CrowdError::LengthMismatch {
                tasks: 3,
                truths: 1
            }
        );

        let mut bad_stream = RoundBatch::new();
        bad_stream.push_group(0, tasks.clone(), truths.clone());
        bad_stream.push_group(5, tasks, truths);
        assert_eq!(
            p.publish_batch(&bad_stream, &mut streams).unwrap_err(),
            CrowdError::UnknownStream {
                stream: 5,
                streams: 2
            }
        );
        // Up-front validation: the first (valid) group must not have
        // consumed stream randomness or charged the ledger.
        assert_eq!(p.ledger(), CostLedger::default());
        assert_eq!(
            AnswerStreams::from_seeds([1, 2]).rngs[0].gen::<u64>(),
            streams.rngs[0].gen::<u64>(),
            "stream 0 must be untouched after a failed batch"
        );
    }

    #[test]
    fn empty_batch_is_a_free_no_op() {
        let mut p = platform(0.9, 4);
        let mut streams = AnswerStreams::from_seeds([7]);
        let demuxed = p.publish_batch(&RoundBatch::new(), &mut streams).unwrap();
        assert!(demuxed.is_empty());
        assert_eq!(p.ledger(), CostLedger::default());
        assert!(!streams.is_empty());
        assert_eq!(streams.len(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let (tasks, truths) = batch(32);
        let a = platform(0.75, 99).publish(&tasks, &truths).unwrap();
        let b = platform(0.75, 99).publish(&tasks, &truths).unwrap();
        assert_eq!(a, b);
        let c = platform(0.75, 100).publish(&tasks, &truths).unwrap();
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn class_aware_model_affects_answers() {
        use crate::answer::ClassAccuracy;
        let pool = WorkerPool::uniform(5, 0.9).unwrap();
        let model = ClassAccuracy::paper_defaults(0.9);
        let mut p = CrowdPlatform::new(pool, model, 5);
        let tasks: Vec<Task> = (0..10_000)
            .map(|i| Task::new(i, "q").with_class(TaskClass::Misspelling))
            .collect();
        let truths = vec![false; tasks.len()];
        let answers = p.publish(&tasks, &truths).unwrap();
        let correct = answers.iter().filter(|a| !a.value).count() as f64 / tasks.len() as f64;
        // Paper: misspellings answered correctly less than half the time.
        assert!(correct < 0.5, "misspelling accuracy {correct}");
    }
}
