//! Long-lived refinement sessions: the one round engine behind every
//! driver, offline and served.
//!
//! [`SessionState`] is the paper's select–collect–update cycle (Figure 1)
//! for one entity, split at the publish boundary into a resumable state
//! machine. The offline drivers ([`crate::system::Experiment::run_sharded`],
//! [`crate::round::run_entity`], [`crate::query::run_query_rounds`]) step
//! it in a closed loop — select, publish to a crowd, absorb — while
//! `crowdfusion-serve` steps it one request at a time, with crowd answers
//! streaming in **incrementally and out of order**: partial batches, late
//! answers for rounds that already closed, duplicate deliveries.
//!
//! * [`SessionState::select`] runs the *select* phase under the session
//!   budget and leaves the round **open**; [`PublishedRound::into_crowd_batch`]
//!   turns it into the crowd tasks and hidden truths an offline driver
//!   publishes;
//! * [`SessionState::absorb`] ingests any subset of the open round's
//!   answers in any order, rejecting duplicates and stale ids; once the
//!   last answer lands, the round closes with one
//!   [`posterior_in_place`] merge over the judgments *in selection order* —
//!   which is why any arrival order yields a bit-identical posterior;
//! * [`SessionState::snapshot`]/[`SessionState::from_snapshot`] serialise
//!   the whole machine — posterior, budget ledger, selector RNG state, the
//!   open round's partial answers — so a daemon can restart mid-round
//!   without losing a single judgment.
//!
//! Many sessions live in a [`crate::shard::ShardedRegistry`], which derives
//! each session's RNG streams from a master seed exactly like
//! [`crate::system::Experiment::run_sharded`] derives its per-entity
//! streams — so a registry opened with the entities of an offline
//! experiment, in order, and fed the seeded crowd's answers reproduces the
//! offline trace bit for bit (see `crates/core/tests/batched_rounds.rs`
//! and `crates/service/tests`).

use crate::answers::posterior_in_place;
use crate::error::CoreError;
use crate::metrics::ConfusionCounts;
use crate::prior::{check_groups, default_grouped_prior};
use crate::round::{EntityCase, RoundConfig, RoundPoint};
use crate::selection::TaskSelector;
use crate::system::{EntitySeries, RoundQuality};
use crowdfusion_crowd::{Task, TaskClass, TaskId};
use crowdfusion_jointdist::{Assignment, JointDist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// An entity as it crosses the wire into the service: per-fact fusion
/// marginals plus correlation groups (the inputs of
/// [`default_grouped_prior`]), crowd-facing metadata, and the hidden gold
/// truth that drives the (simulated) crowd and the F1 bookkeeping.
///
/// The offline pipeline builds [`EntityCase`]s through exactly this type
/// (`crowdfusion::pipeline` → `datagen::export::wire_entities` →
/// [`EntitySpec::into_case`]), so a served entity and an offline entity
/// with the same spec carry bit-identical priors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntitySpec {
    /// Display name (book title, country name, …).
    pub name: String,
    /// Per-fact machine-fusion marginals `P(f_i = true)`.
    pub marginals: Vec<f64>,
    /// Correlation groups of format-variant statements (see
    /// [`crate::prior::grouped_prior`]).
    pub groups: Vec<Vec<usize>>,
    /// Per-fact crowd prompts; empty means generic defaults.
    pub prompts: Vec<String>,
    /// Per-fact confusion classes; empty means all clean.
    pub classes: Vec<TaskClass>,
    /// Per-fact gold labels.
    pub gold: Vec<bool>,
    /// Name of the fusion method that produced `marginals`, when the
    /// producer recorded one. Carried as provenance through snapshots and
    /// journal replay; `None` (how specs serialized before this field
    /// existed deserialize) means the daemon's default method.
    pub method: Option<String>,
}

impl EntitySpec {
    /// A minimal spec with generic prompts and clean classes.
    pub fn simple(name: impl Into<String>, marginals: Vec<f64>, gold: Vec<bool>) -> EntitySpec {
        EntitySpec {
            name: name.into(),
            marginals,
            groups: Vec::new(),
            prompts: Vec::new(),
            classes: Vec::new(),
            gold,
            method: None,
        }
    }

    /// Validates internal consistency: parallel array lengths, and
    /// correlation groups that name each fact at most once.
    pub fn validate(&self) -> Result<(), CoreError> {
        let n = self.marginals.len();
        let ok = |len: usize| len == n || len == 0;
        if self.gold.len() != n || !ok(self.prompts.len()) || !ok(self.classes.len()) {
            return Err(CoreError::AnswerLengthMismatch {
                tasks: n,
                answers: self.gold.len().min(self.prompts.len()),
            });
        }
        check_groups(&self.groups, n)
    }

    /// Materialises the spec into an [`EntityCase`]: the prior is built
    /// with [`default_grouped_prior`] (dense up to the fact limit, sparse
    /// importance sampling beyond), gold labels are packed into an
    /// [`Assignment`], and missing prompts/classes get the
    /// [`EntityCase::simple`] defaults.
    pub fn into_case(self) -> Result<EntityCase, CoreError> {
        self.validate()?;
        let n = self.marginals.len();
        let prior = default_grouped_prior(&self.marginals, &self.groups)?;
        let mut gold = Assignment::ALL_FALSE;
        for (i, &truth) in self.gold.iter().enumerate() {
            gold = gold.with(i, truth);
        }
        let name = self.name;
        let prompts = if self.prompts.is_empty() {
            (0..n)
                .map(|i| format!("Is fact {i} of \"{name}\" true?"))
                .collect()
        } else {
            self.prompts
        };
        let classes = if self.classes.is_empty() {
            vec![TaskClass::Clean; n]
        } else {
            self.classes
        };
        Ok(EntityCase {
            name,
            prior,
            gold,
            prompts,
            classes,
        })
    }
}

/// One published (crowd-facing) task of an open round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedTask {
    /// Globally unique task id (the absorb key).
    pub id: u64,
    /// The fact index this task asks about.
    pub fact: usize,
    /// The crowd prompt.
    pub prompt: String,
    /// The task's confusion class.
    pub class: TaskClass,
}

/// A round that has been selected and published but not yet fully
/// answered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedRound {
    /// The 1-based round number this round will close as.
    pub round: usize,
    /// The published tasks, in selection order.
    pub tasks: Vec<PublishedTask>,
}

impl PublishedRound {
    /// The round as the crowd sees it: one [`Task`] per published task, in
    /// selection order, paired with its hidden truth under `gold`. This is
    /// the batch every offline driver publishes to its simulated crowd.
    pub fn into_crowd_batch(self, gold: Assignment) -> (Vec<Task>, Vec<bool>) {
        let truths = self.tasks.iter().map(|t| gold.get(t.fact)).collect();
        let tasks = self
            .tasks
            .into_iter()
            .map(|t| Task {
                id: TaskId(t.id),
                prompt: t.prompt,
                class: t.class,
            })
            .collect();
        (tasks, truths)
    }
}

/// The outcome of [`SessionState::select`].
#[derive(Debug, Clone, PartialEq)]
pub enum SelectOutcome {
    /// A round is open (freshly selected, or re-fetched while answers are
    /// still outstanding).
    Round(PublishedRound),
    /// The budget is exhausted or the selector stopped (`K* = 0`); no
    /// further rounds will open.
    Exhausted,
}

/// The open round's ingestion state: selected facts, published ids and the
/// answers received so far (slot `j` belongs to the `j`-th selected task).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenRound {
    tasks: Vec<usize>,
    ids: Vec<u64>,
    received: Vec<Option<bool>>,
}

impl OpenRound {
    /// Number of still-unanswered tasks.
    pub fn pending(&self) -> usize {
        self.received.iter().filter(|r| r.is_none()).count()
    }

    fn validate(&self, n: usize) -> Result<(), CoreError> {
        if self.tasks.len() != self.ids.len() || self.tasks.len() != self.received.len() {
            return Err(CoreError::AnswerLengthMismatch {
                tasks: self.tasks.len(),
                answers: self.ids.len().min(self.received.len()),
            });
        }
        if let Some(&bad) = self.tasks.iter().find(|&&f| f >= n) {
            return Err(CoreError::TaskOutOfRange { index: bad, n });
        }
        Ok(())
    }
}

/// The result of one [`SessionState::absorb`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbsorbReport {
    /// Answers applied to the open round.
    pub accepted: usize,
    /// Answers rejected as duplicates (already answered, repeated within
    /// the batch, or late arrivals for a round that already closed).
    pub duplicates: usize,
    /// Open-round answers still outstanding after this call.
    pub pending: usize,
    /// The closed round's record, when this call completed the round.
    pub closed: Option<RoundPoint>,
}

/// A serialisable snapshot of a [`SessionState`] — everything needed to
/// resume the session after a daemon restart, including the selector RNG
/// state and the open round's partial answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The entity under refinement.
    pub case: EntityCase,
    /// Round configuration.
    pub config: RoundConfig,
    /// Current posterior.
    pub dist: JointDist,
    /// Remaining budget in judgments.
    pub remaining: usize,
    /// Rounds closed so far.
    pub round: usize,
    /// Judgments spent so far.
    pub spent: usize,
    /// Raw selector RNG state ([`StdRng::state`]).
    pub rng_state: [u64; 4],
    /// Next task id to publish.
    pub task_seq: u64,
    /// First task id this session ever published (stale-answer floor).
    pub first_task_id: u64,
    /// The open round, if one is mid-flight.
    pub open: Option<OpenRound>,
    /// Per-round quality series (trace assembly input).
    pub series: EntitySeries,
    /// Full per-round records (tasks + answers).
    pub points: Vec<RoundPoint>,
    /// Whether the session has permanently stopped selecting.
    pub exhausted: bool,
}

/// The entity's confusion counts at the current posterior.
fn counts_against_gold(dist: &JointDist, gold: Assignment) -> ConfusionCounts {
    let mut counts = ConfusionCounts::default();
    counts.add_marginals(&dist.marginals(), gold);
    counts
}

/// One long-lived refinement session: an owned entity, its posterior, the
/// budget ledger and the resumable round state machine.
#[derive(Debug, Clone)]
pub struct SessionState {
    case: EntityCase,
    config: RoundConfig,
    dist: JointDist,
    remaining: usize,
    round: usize,
    spent: usize,
    rng: StdRng,
    task_seq: u64,
    first_task_id: u64,
    open: Option<OpenRound>,
    series: EntitySeries,
    points: Vec<RoundPoint>,
    exhausted: bool,
}

impl SessionState {
    /// Opens a session: `selector_seed` seeds the selector RNG stream and
    /// `task_seq_base` is the first task id. A registry and the offline
    /// sharded runner both pass the stream seed drawn from their master
    /// RNG and ids from the block `(index << 32)..`, which is why the two
    /// select bit-identical rounds.
    pub fn new(
        case: EntityCase,
        config: RoundConfig,
        selector_seed: u64,
        task_seq_base: u64,
    ) -> Result<SessionState, CoreError> {
        case.validate()?;
        let dist = case.prior.clone();
        let series = EntitySeries {
            prior_utility: dist.utility(),
            prior_counts: counts_against_gold(&dist, case.gold),
            rounds: Vec::new(),
        };
        Ok(SessionState {
            case,
            config,
            dist,
            remaining: config.budget,
            round: 0,
            spent: 0,
            rng: StdRng::seed_from_u64(selector_seed),
            task_seq: task_seq_base,
            first_task_id: task_seq_base,
            open: None,
            series,
            points: Vec::new(),
            exhausted: false,
        })
    }

    /// The *select* phase: opens the next round under the session budget,
    /// or re-fetches the currently open round (so a client that lost the
    /// response can ask again without burning budget or RNG state).
    pub fn select(&mut self, selector: &dyn TaskSelector) -> Result<SelectOutcome, CoreError> {
        self.select_capped(selector, None)
    }

    /// [`select`](Self::select) with an external task cap: the round's
    /// size is bounded by `min(k, remaining, cap)`. The global budget
    /// scheduler uses this to stop a round from overspending the shared
    /// ledger. A zero cap is a caller error (`EmptyTaskSet`) rather than
    /// session exhaustion — the session itself may still have budget, the
    /// *scheduler* ran out, and marking the session exhausted would
    /// corrupt its budget identity. Re-fetching an open round ignores the
    /// cap (the round's judgments are already charged).
    pub fn select_capped(
        &mut self,
        selector: &dyn TaskSelector,
        cap: Option<usize>,
    ) -> Result<SelectOutcome, CoreError> {
        if self.open.is_none() {
            if self.exhausted {
                return Ok(SelectOutcome::Exhausted);
            }
            let limit = match cap {
                Some(0) => return Err(CoreError::EmptyTaskSet),
                Some(cap) => self.remaining.min(cap),
                None => self.remaining,
            };
            // Each round asks `min(k, n, remaining)` tasks (Section V-A);
            // a spent budget or an empty selection (`K* = 0`) ends the
            // session for good.
            let tasks = if limit == 0 {
                Vec::new()
            } else {
                let ask = self.config.k.min(self.case.num_facts()).min(limit);
                selector.select(&self.dist, self.config.pc_assumed, ask, &mut self.rng)?
            };
            if tasks.is_empty() {
                self.exhausted = true;
                self.remaining = 0;
                return Ok(SelectOutcome::Exhausted);
            }
            let ids = (self.task_seq..).take(tasks.len()).collect();
            self.task_seq += tasks.len() as u64;
            self.open = Some(OpenRound {
                received: vec![None; tasks.len()],
                tasks,
                ids,
            });
        }
        let open = self.open.as_ref().expect("a round is open");
        let tasks = open
            .tasks
            .iter()
            .zip(&open.ids)
            .map(|(&fact, &id)| PublishedTask {
                id,
                fact,
                prompt: self.case.prompts[fact].clone(),
                class: self.case.classes[fact],
            })
            .collect();
        Ok(SelectOutcome::Round(PublishedRound {
            round: self.round + 1,
            tasks,
        }))
    }

    /// The *update* phase, resumable: ingests `(task id, judgment)` pairs
    /// in any order and any batching. Duplicates (slots already answered,
    /// repeats within the batch) and late answers for closed rounds are
    /// counted and dropped — first answer wins; ids this session never
    /// published are a hard error and leave the state untouched. When the
    /// open round's last answer lands the round closes: the judgments are
    /// merged **in selection order** with [`posterior_in_place`], so the
    /// posterior is bit-identical for every arrival order.
    pub fn absorb(&mut self, answers: &[(u64, bool)]) -> Result<AbsorbReport, CoreError> {
        if self.open.is_none() && self.round == 0 {
            return Err(CoreError::NoOpenRound);
        }
        // Validate every id before mutating anything: an unknown id fails
        // the whole batch with no answer applied.
        for &(id, _) in answers {
            if id < self.first_task_id || id >= self.task_seq {
                return Err(CoreError::UnknownAnswerTask { task: id });
            }
        }
        let mut accepted = 0usize;
        let mut duplicates = 0usize;
        if let Some(open) = self.open.as_mut() {
            for &(id, value) in answers {
                match open.ids.iter().position(|&i| i == id) {
                    Some(j) if open.received[j].is_none() => {
                        open.received[j] = Some(value);
                        accepted += 1;
                    }
                    // Already answered, or a late answer for a closed
                    // round: dropped, first answer wins.
                    _ => duplicates += 1,
                }
            }
        } else {
            duplicates = answers.len();
        }
        let pending = self.open.as_ref().map_or(0, OpenRound::pending);
        let closed = if self.open.is_some() && pending == 0 {
            let open = self.open.take().expect("open round checked above");
            let judgments: Vec<bool> = open
                .received
                .iter()
                .map(|r| r.expect("round complete"))
                .collect();
            posterior_in_place(
                &mut self.dist,
                &open.tasks,
                &judgments,
                self.config.pc_assumed,
            )?;
            self.remaining -= open.tasks.len();
            self.spent += open.tasks.len();
            self.round += 1;
            let point = RoundPoint {
                round: self.round,
                cost: self.spent,
                utility: self.dist.utility(),
                tasks: open.tasks,
                answers: judgments,
            };
            self.series.rounds.push(RoundQuality {
                cost_delta: point.tasks.len() as u64,
                utility: point.utility,
                counts: counts_against_gold(&self.dist, self.case.gold),
            });
            self.points.push(point.clone());
            Some(point)
        } else {
            None
        };
        Ok(AbsorbReport {
            accepted,
            duplicates,
            pending,
            closed,
        })
    }

    /// Serialises the full session state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            case: self.case.clone(),
            config: self.config,
            dist: self.dist.clone(),
            remaining: self.remaining,
            round: self.round,
            spent: self.spent,
            rng_state: self.rng.state(),
            task_seq: self.task_seq,
            first_task_id: self.first_task_id,
            open: self.open.clone(),
            series: self.series.clone(),
            points: self.points.clone(),
            exhausted: self.exhausted,
        }
    }

    /// Rebuilds a session from a snapshot; the restored machine continues
    /// the exact RNG stream and open round of the snapshotted one.
    ///
    /// Snapshots cross a trust boundary (`Restore` takes a file path), so
    /// the config, the budget invariants and the posterior's distribution
    /// invariants are re-validated: a corrupt or hand-edited snapshot must
    /// not restore into a state whose round close would underflow the
    /// budget arithmetic, whose next select fails on its `k` or `pc`, or
    /// whose next select scores a support that is not a distribution. A
    /// valid posterior is restored bit for bit, never renormalised.
    pub fn from_snapshot(snap: SessionSnapshot) -> Result<SessionState, CoreError> {
        snap.case.validate()?;
        if let Some(open) = &snap.open {
            open.validate(snap.case.num_facts())?;
        }
        let invalid = |reason: String| Err(CoreError::InvalidSnapshot(reason));
        if let Err(e) = snap.config.checked() {
            return invalid(format!("session config: {e}"));
        }
        // The next select indexes the case's prompts by the posterior's
        // facts: a posterior over a different fact count would panic there.
        if snap.dist.num_vars() != snap.case.num_facts() {
            return invalid(format!(
                "posterior over {} facts for a case with {} facts",
                snap.dist.num_vars(),
                snap.case.num_facts()
            ));
        }
        // Selection, gains and utilities all assume a distribution:
        // sorted unique assignments, non-negative mass summing to 1.
        if let Err(e) = snap.dist.validate() {
            return invalid(format!("posterior is not a distribution: {e}"));
        }
        if snap.spent.checked_add(snap.remaining) != Some(snap.config.budget)
            && !(snap.exhausted && snap.remaining == 0 && snap.spent <= snap.config.budget)
        {
            return invalid(format!(
                "spent {} + remaining {} does not match budget {}",
                snap.spent, snap.remaining, snap.config.budget
            ));
        }
        if let Some(open) = &snap.open {
            if open.tasks.len() > snap.remaining {
                return invalid(format!(
                    "open round asks {} tasks but only {} budget remains",
                    open.tasks.len(),
                    snap.remaining
                ));
            }
            // Every published id must be answerable: outside the issued
            // range, `absorb` would reject it forever and the round could
            // never close (a silent livelock instead of a loud error).
            for &id in &open.ids {
                if id < snap.first_task_id || id >= snap.task_seq {
                    return invalid(format!(
                        "open round id {id} outside the issued range {}..{}",
                        snap.first_task_id, snap.task_seq
                    ));
                }
            }
        }
        if snap.first_task_id > snap.task_seq {
            return invalid(format!(
                "task id floor {} above next task id {}",
                snap.first_task_id, snap.task_seq
            ));
        }
        Ok(SessionState {
            rng: StdRng::from_state(snap.rng_state),
            case: snap.case,
            config: snap.config,
            dist: snap.dist,
            remaining: snap.remaining,
            round: snap.round,
            spent: snap.spent,
            task_seq: snap.task_seq,
            first_task_id: snap.first_task_id,
            open: snap.open,
            series: snap.series,
            points: snap.points,
            exhausted: snap.exhausted,
        })
    }

    /// Entity name.
    pub fn name(&self) -> &str {
        &self.case.name
    }

    /// Number of facts under refinement.
    pub fn num_facts(&self) -> usize {
        self.case.num_facts()
    }

    /// Current posterior utility `Q(F)`.
    pub fn utility(&self) -> f64 {
        self.dist.utility()
    }

    /// Current posterior entropy in bits.
    pub fn entropy(&self) -> f64 {
        self.dist.entropy()
    }

    /// Rounds closed so far.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// Judgments spent so far.
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// Judgments left in the budget.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Answers outstanding on the open round (0 when no round is open).
    pub fn pending_answers(&self) -> usize {
        self.open.as_ref().map_or(0, OpenRound::pending)
    }

    /// Tasks published on the open round (0 when no round is open) — the
    /// judgments a global budget ledger has charged for it.
    pub fn open_round_tasks(&self) -> usize {
        self.open.as_ref().map_or(0, |o| o.tasks.len())
    }

    /// The crowd accuracy this session plans and updates with.
    pub fn pc_assumed(&self) -> f64 {
        self.config.pc_assumed
    }

    /// Whether a round is currently open.
    pub fn has_open_round(&self) -> bool {
        self.open.is_some()
    }

    /// Whether the session stopped selecting for good.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The current posterior.
    pub fn posterior(&self) -> &JointDist {
        &self.dist
    }

    /// Per-round records (tasks, answers, utility) in round order.
    pub fn points(&self) -> &[RoundPoint] {
        &self.points
    }

    /// The per-round quality series (trace assembly input).
    pub fn series(&self) -> &EntitySeries {
        &self.series
    }
}

/// Summary of a freshly opened session, echoed to the client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenedSession {
    /// The registry-assigned session id.
    pub session: u64,
    /// Entity name.
    pub name: String,
    /// Number of facts.
    pub facts: usize,
    /// The crowd answer-stream seed paired with this session. A simulated
    /// crowd replaying this seed (see `crowdfusion_crowd::AnswerReplay`)
    /// answers exactly like the offline sharded runner's per-entity
    /// stream.
    pub answer_seed: u64,
    /// Prior utility.
    pub utility: f64,
    /// Prior entropy in bits.
    pub entropy: f64,
}

/// Aggregate registry metrics (the service's `metrics` verb).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegistryMetrics {
    /// Live sessions.
    pub sessions: u64,
    /// Sessions with an open (partially answered) round.
    pub open_rounds: u64,
    /// Total rounds closed across sessions.
    pub rounds: u64,
    /// Total judgments absorbed across sessions.
    pub judgments: u64,
    /// Total budget remaining across sessions.
    pub remaining: u64,
    /// Summed posterior utility.
    pub utility: f64,
}

/// A serialisable snapshot of the whole registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Master RNG state (future opens continue the same seed schedule).
    pub master_state: [u64; 4],
    /// Next session index.
    pub next_index: u64,
    /// Default round configuration.
    pub defaults: RoundConfig,
    /// Numbered session snapshots.
    pub sessions: Vec<NumberedSnapshot>,
}

/// One session's snapshot together with its registry id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumberedSnapshot {
    /// Registry session id.
    pub session: u64,
    /// The session's state.
    pub snapshot: SessionSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use crate::selection::{GreedySelector, RandomSelector};
    use crate::shard::ShardedRegistry;
    use crowdfusion_jointdist::presets::paper_running_example;

    fn example_spec() -> EntitySpec {
        // The running example's marginals with no correlation groups: the
        // independent prior is what `default_grouped_prior` builds from an
        // empty group list.
        EntitySpec::simple(
            "hk",
            vec![0.5, 0.6, 0.7, 0.3],
            vec![true, true, true, false],
        )
    }

    fn session(k: usize, budget: usize) -> SessionState {
        let case = EntityCase::simple(
            "hk",
            paper_running_example(),
            crowdfusion_jointdist::Assignment(0b0111),
        );
        let config = RoundConfig::new(k, budget, 0.8).unwrap();
        SessionState::new(case, config, 7, 0).unwrap()
    }

    fn round_of(state: &mut SessionState) -> PublishedRound {
        match state.select(&GreedySelector::fast()).unwrap() {
            SelectOutcome::Round(r) => r,
            SelectOutcome::Exhausted => panic!("expected an open round"),
        }
    }

    #[test]
    fn spec_validation_and_defaults() {
        let mut bad = example_spec();
        bad.gold.pop();
        assert!(bad.validate().is_err());
        let mut bad = example_spec();
        bad.groups = vec![vec![0, 9]];
        assert_eq!(
            bad.validate(),
            Err(CoreError::TaskOutOfRange { index: 9, n: 4 })
        );
        // A fact listed twice, within one group or across two, breaks the
        // partition the prior needs.
        for (groups, repeated) in [
            (vec![vec![2, 2]], 2),
            (vec![vec![0, 1], vec![1, 2]], 1),
            (vec![vec![3], vec![0, 3]], 3),
        ] {
            bad.groups = groups;
            assert_eq!(bad.validate(), Err(CoreError::DuplicateTask(repeated)));
            assert_eq!(
                bad.clone().into_case().unwrap_err(),
                CoreError::DuplicateTask(repeated)
            );
        }
        let case = example_spec().into_case().unwrap();
        assert_eq!(case.num_facts(), 4);
        case.validate().unwrap();
        assert!(case.prompts[2].contains("fact 2"));
    }

    #[test]
    fn select_is_idempotent_until_answers_arrive() {
        let mut s = session(2, 8);
        let first = round_of(&mut s);
        assert_eq!(first.tasks.len(), 2);
        assert_eq!(first.round, 1);
        // Re-polling returns the identical round without advancing RNG or
        // budget.
        let again = round_of(&mut s);
        assert_eq!(first, again);
        assert_eq!(s.pending_answers(), 2);
        assert_eq!(s.spent(), 0);
    }

    #[test]
    fn out_of_order_partial_and_duplicate_absorption() {
        let mut s = session(3, 9);
        let round = round_of(&mut s);
        let ids: Vec<u64> = round.tasks.iter().map(|t| t.id).collect();
        // Last answer first: partial batch.
        let r = s.absorb(&[(ids[2], true)]).unwrap();
        assert_eq!((r.accepted, r.duplicates, r.pending), (1, 0, 2));
        assert!(r.closed.is_none());
        // Duplicate of the already-received answer plus a fresh one.
        let r = s.absorb(&[(ids[2], false), (ids[0], true)]).unwrap();
        assert_eq!((r.accepted, r.duplicates, r.pending), (1, 1, 1));
        // Final answer closes the round.
        let r = s.absorb(&[(ids[1], false)]).unwrap();
        assert_eq!(r.pending, 0);
        let point = r.closed.unwrap();
        assert_eq!(point.round, 1);
        assert_eq!(point.cost, 3);
        // First answer won: the duplicate's conflicting value was dropped.
        assert!(point.answers[2]);
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.remaining(), 6);
        // A late answer for the closed round is a counted duplicate.
        let r = s.absorb(&[(ids[0], false)]).unwrap();
        assert_eq!((r.accepted, r.duplicates), (0, 1));
    }

    #[test]
    fn unknown_ids_fail_without_mutation() {
        let mut s = session(2, 8);
        assert_eq!(s.absorb(&[(0, true)]).unwrap_err(), CoreError::NoOpenRound);
        let round = round_of(&mut s);
        let ids: Vec<u64> = round.tasks.iter().map(|t| t.id).collect();
        // A batch with one unknown id applies nothing.
        assert!(matches!(
            s.absorb(&[(ids[0], true), (99, false)]),
            Err(CoreError::UnknownAnswerTask { task: 99 })
        ));
        assert_eq!(s.pending_answers(), 2);
    }

    #[test]
    fn any_arrival_order_matches_in_order_absorption() {
        let build = |order: &[usize]| {
            let mut s = session(3, 9);
            while let SelectOutcome::Round(round) = s.select(&GreedySelector::fast()).unwrap() {
                // Deterministic fake crowd: judgment = parity of the id.
                let answers: Vec<(u64, bool)> =
                    round.tasks.iter().map(|t| (t.id, t.id % 2 == 0)).collect();
                for &j in order {
                    if j < answers.len() {
                        s.absorb(&answers[j..j + 1]).unwrap();
                    }
                }
                // Feed any still-pending answers (orders shorter than the
                // round) and duplicate the whole batch for good measure.
                s.absorb(&answers).unwrap();
            }
            s
        };
        let reference = build(&[0, 1, 2]);
        for order in [&[2usize, 1, 0][..], &[1, 2, 0], &[2, 0], &[]] {
            let other = build(order);
            assert_eq!(reference.posterior(), other.posterior(), "order {order:?}");
            assert_eq!(reference.points(), other.points());
        }
    }

    #[test]
    fn snapshot_restore_mid_round_continues_identically() {
        let mut s = session(2, 8);
        let round = round_of(&mut s);
        let ids: Vec<u64> = round.tasks.iter().map(|t| t.id).collect();
        s.absorb(&[(ids[1], true)]).unwrap();
        // Snapshot with one answer outstanding; roundtrip through JSON.
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        let snap: SessionSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = SessionState::from_snapshot(snap).unwrap();
        assert_eq!(restored.pending_answers(), 1);
        // Drive both to completion with the same answers.
        let finish = |state: &mut SessionState| {
            state.absorb(&[(ids[0], false)]).unwrap();
            while let SelectOutcome::Round(round) = state.select(&GreedySelector::fast()).unwrap() {
                let answers: Vec<(u64, bool)> =
                    round.tasks.iter().map(|t| (t.id, t.id % 2 == 1)).collect();
                state.absorb(&answers).unwrap();
            }
        };
        finish(&mut s);
        finish(&mut restored);
        assert_eq!(s.posterior(), restored.posterior());
        assert_eq!(s.points(), restored.points());
        assert_eq!(s.spent(), 8);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_restored() {
        let mut s = session(2, 8);
        let round = round_of(&mut s);
        let good = s.snapshot();
        // Budget identity broken: remaining inflated.
        let mut snap = good.clone();
        snap.remaining = 9;
        assert!(matches!(
            SessionState::from_snapshot(snap),
            Err(CoreError::InvalidSnapshot(_))
        ));
        // Open round wider than the remaining budget: closing it would
        // underflow `remaining -= tasks.len()`.
        let mut snap = good.clone();
        snap.remaining = round.tasks.len() - 1;
        snap.spent = snap.config.budget - snap.remaining;
        assert!(matches!(
            SessionState::from_snapshot(snap),
            Err(CoreError::InvalidSnapshot(_))
        ));
        // Task-id bookkeeping inverted.
        let mut snap = good.clone();
        snap.first_task_id = snap.task_seq + 1;
        assert!(matches!(
            SessionState::from_snapshot(snap),
            Err(CoreError::InvalidSnapshot(_))
        ));
        // An open-round id outside the issued range could never be
        // answered: the round would be wedged open forever.
        let mut snap = good.clone();
        if let Some(open) = snap.open.as_mut() {
            open.ids[0] = snap.task_seq + 5;
        }
        assert!(matches!(
            SessionState::from_snapshot(snap),
            Err(CoreError::InvalidSnapshot(_))
        ));
        // A posterior over more facts than the case has: the next select
        // would index past the case's prompts.
        let mut snap = good.clone();
        snap.dist = JointDist::independent(&[0.99, 0.99, 0.5, 0.5, 0.5]).unwrap();
        assert!(matches!(
            SessionState::from_snapshot(snap),
            Err(CoreError::InvalidSnapshot(_))
        ));
        // Posteriors over the right fact count that are not distributions
        // (unsorted, a duplicate, a bit at n, mass 8, a negative
        // probability, an empty support): select would serve rounds
        // scored on them.
        for entries in [
            "[[3,0.5],[1,0.5]]",
            "[[1,0.5],[1,0.5]]",
            "[[0,0.5],[16,0.5]]",
            "[[0,4.0],[1,4.0]]",
            "[[0,1.5],[1,-0.5]]",
            "[]",
        ] {
            let mut snap = good.clone();
            let json = format!(r#"{{"n":4,"entries":{entries}}}"#);
            snap.dist = serde_json::from_str(&json).unwrap();
            assert!(
                matches!(
                    SessionState::from_snapshot(snap),
                    Err(CoreError::InvalidSnapshot(ref reason)) if reason.contains("posterior")
                ),
                "{entries} restored"
            );
        }
        // A config `RoundConfig::new` refuses: `k = 0` would exhaust the
        // session on its first select, and a pc outside [0.5, 1] fails
        // every later one.
        for (k, pc) in [(0, 0.8), (2, 0.3), (2, 2.0), (2, f64::NAN)] {
            let mut snap = good.clone();
            snap.config.k = k;
            snap.config.pc_assumed = pc;
            assert!(
                matches!(
                    SessionState::from_snapshot(snap),
                    Err(CoreError::InvalidSnapshot(ref reason)) if reason.contains("config")
                ),
                "k {k} pc {pc} restored"
            );
        }
        // The untouched snapshot still restores.
        assert!(SessionState::from_snapshot(good).is_ok());
    }

    #[test]
    fn registry_opens_on_the_pool_and_tracks_metrics() {
        let config = RoundConfig::new(2, 6, 0.8).unwrap();
        let reg = ShardedRegistry::new(3, config, Pool::new(2), 1);
        let opened = reg
            .open_batch(vec![example_spec(), example_spec()], None)
            .unwrap();
        assert_eq!(opened.len(), 2);
        assert_eq!(opened[0].session, 0);
        assert_eq!(opened[1].session, 1);
        assert_ne!(opened[0].answer_seed, opened[1].answer_seed);
        assert_eq!(reg.len(), 2);
        assert!(matches!(
            reg.with_session(7, |_| ()),
            Err(CoreError::UnknownSession { session: 7 })
        ));
        assert!(matches!(
            reg.select(7, &RandomSelector),
            Err(CoreError::UnknownSession { session: 7 })
        ));
        // Drive session 0 one round.
        let SelectOutcome::Round(round) = reg.select(0, &RandomSelector).unwrap() else {
            panic!("round expected");
        };
        let answers: Vec<(u64, bool)> = round.tasks.iter().map(|t| (t.id, true)).collect();
        reg.absorb(0, &answers).unwrap();
        let m = reg.metrics();
        assert_eq!(m.sessions, 2);
        assert_eq!(m.rounds, 1);
        assert_eq!(m.judgments, 2);
        assert_eq!(m.open_rounds, 0);
        // Trace covers both sessions: prior point plus one round.
        let trace = reg.trace("random".into());
        assert_eq!(trace.points.len(), 2);
        assert_eq!(trace.points[0].cost, 0);
        assert_eq!(trace.last().cost, 2);
    }

    #[test]
    fn evict_removes_the_session_but_not_its_drawn_seeds() {
        let config = RoundConfig::new(2, 6, 0.8).unwrap();
        let reg = ShardedRegistry::new(5, config, Pool::serial(), 1);
        reg.open_batch(vec![example_spec(), example_spec()], None)
            .unwrap();
        let evicted = reg.evict(0).unwrap();
        assert_eq!(evicted.name(), "hk");
        assert_eq!(reg.len(), 1);
        assert!(matches!(
            reg.evict(0),
            Err(CoreError::UnknownSession { session: 0 })
        ));
        // Seeds drawn for the evicted session stay drawn: the next open in
        // an evicting registry matches the next open in a non-evicting one.
        let shadow = ShardedRegistry::new(5, config, Pool::serial(), 1);
        shadow
            .open_batch(vec![example_spec(), example_spec()], None)
            .unwrap();
        let a = reg.open_batch(vec![example_spec()], None).unwrap();
        let b = shadow.open_batch(vec![example_spec()], None).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0].session, 2);
    }

    #[test]
    fn registry_snapshot_roundtrips_and_continues_the_seed_schedule() {
        let config = RoundConfig::new(2, 6, 0.8).unwrap();
        let reg = ShardedRegistry::new(5, config, Pool::serial(), 1);
        reg.open_batch(vec![example_spec()], None).unwrap();
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let parsed: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        let restored = ShardedRegistry::from_snapshot(parsed, Pool::serial(), 1).unwrap();
        // Opening one more session draws the same seeds in both registries.
        let a = reg.open_batch(vec![example_spec()], None).unwrap();
        let b = restored.open_batch(vec![example_spec()], None).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0].session, 1);
    }

    #[test]
    fn open_batch_is_atomic_on_bad_specs() {
        let config = RoundConfig::new(2, 6, 0.8).unwrap();
        let reg = ShardedRegistry::new(5, config, Pool::serial(), 1);
        let mut bad = example_spec();
        bad.gold.pop();
        assert!(reg.open_batch(vec![example_spec(), bad], None).is_err());
        assert!(reg.is_empty());
        // The failed open drew no seeds: the next open matches a fresh
        // registry's first.
        let a = reg.open_batch(vec![example_spec()], None).unwrap();
        let fresh = ShardedRegistry::new(5, config, Pool::serial(), 1);
        let b = fresh.open_batch(vec![example_spec()], None).unwrap();
        assert_eq!(a, b);
    }
}
