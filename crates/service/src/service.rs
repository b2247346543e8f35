//! The daemon state: a lock-striped [`ShardedRegistry`] plus its
//! durability engine, one selector, and the journalled request
//! dispatcher.
//!
//! **Dispatch protocol** (the write path, when durability is on):
//!
//! 1. pre-validate — errors here are rejected without a journal entry;
//! 2. journal the [`Effect`] (the record is durable before anything
//!    mutates);
//! 3. apply the effect to in-memory state;
//! 4. count it against the auto-snapshot cadence, snapshotting + journal-
//!    truncating when due.
//!
//! A crash between (2) and (3) is repaired by replay on restart; a
//! journalled effect whose *apply* fails (e.g. an `Absorb` naming an
//! unknown task id) fails identically when replayed, so attempted
//! mutations are safe to journal. Reads (`Status`, `Metrics`, `Trace`,
//! the client-directed `Snapshot` export) and idempotent re-reads
//! (`Select` on an already-open round) skip the journal entirely.
//!
//! **Lock hierarchy** (acquire strictly in this order; every path holds a
//! strict subset):
//!
//! 1. `order` — serialises the effects that touch the master seed
//!    schedule or many shards at once (`Open`, TTL `Evict`): journal
//!    order must equal master-RNG draw order for replay to reproduce the
//!    seed schedule;
//! 2. `registry` (an `RwLock`) — commits hold it *shared* across
//!    journal+apply; consistent whole-state operations (auto-snapshot,
//!    restore, shutdown drain) hold it *exclusive*, which guarantees no
//!    journalled-but-unapplied effect exists while `applied_seq` is
//!    stamped;
//! 3. `shard_order[i]` — serialises journal+apply per registry shard, so
//!    a session's journal order equals its apply order;
//! 4. leaves — `durable`, `opens`, `last_active`, and the registry's own
//!    internal stripes; none acquires anything above it.
//!
//! The auto-snapshot cadence is *deferred*: a commit that brings the
//! cadence due releases its effect locks first, then takes the registry
//! exclusively and snapshots — still within the same request dispatch,
//! so the fault-point arrival order a serial caller observes is identical
//! to the single-lock daemon's.
//!
//! At-least-once ingest: `Open` accepts an idempotency token — retried
//! tokens return the recorded `Opened` payload from a ledger that
//! persists in the durable snapshot; `Select` is idempotent while a
//! round is open; `Absorb` routes through
//! [`crowdfusion_crowd::dedup_answers`] and the session's own
//! first-answer-wins ingestion, so redelivered batches collapse to one.
//! Sessions idle past the configured TTL are evicted by a sweep that
//! journals an explicit [`Effect::Evict`] — replay never consults the
//! clock.

use crate::clock::{Clock, Tick};
use crate::durable::{
    recover, CompletedOpen, Durability, DurabilityConfig, DurableSnapshot, Recovery,
};
use crate::fault::{as_simulated_crash, FaultPlan, FaultPoint, SimulatedCrash};
use crate::journal::Effect;
use crate::protocol::{Request, Response};
use crate::sched::{BudgetMode, SchedSnapshot, SchedState};
use crate::snapshot;
use crowdfusion_core::pool::Pool;
use crowdfusion_core::round::RoundConfig;
use crowdfusion_core::sched::{BudgetLedger, GainQueue};
use crowdfusion_core::selection::{GreedySelector, RandomSelector, TaskSelector};
use crowdfusion_core::session::{AbsorbReport, OpenedSession, SelectOutcome};
use crowdfusion_core::shard::ShardedRegistry;
use crowdfusion_core::CoreError;
use crowdfusion_crowd::{dedup_answers, Answer, TaskId, WorkerId};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default cap on one protocol line (1 MiB) — large enough for wide
/// `Open` batches, small enough that a hostile connection cannot balloon
/// the daemon's memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Default registry shard (lock-stripe) count. Eight stripes keep the
/// 4-core CI box's reactors out of each other's way without bloating the
/// per-daemon footprint; shard count is a pure tuning knob — snapshots
/// and traces are shard-count independent.
pub const DEFAULT_SHARDS: usize = 8;

/// The selector backends the daemon can run — the same matrix the CLI's
/// offline `refine` exposes, so a served session is comparable to an
/// offline run of the same backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorChoice {
    /// Cached-scatter greedy (Algorithm 1), the default.
    Greedy,
    /// Greedy over the preprocessed answer table (Algorithm 2).
    GreedyPre,
    /// The random baseline.
    Random,
}

impl SelectorChoice {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Result<SelectorChoice, String> {
        match name {
            "greedy" => Ok(SelectorChoice::Greedy),
            "greedy-pre" => Ok(SelectorChoice::GreedyPre),
            "random" => Ok(SelectorChoice::Random),
            other => Err(format!("unknown selector {other:?}")),
        }
    }

    /// Builds the selector. It stays serial: session (or entity) work
    /// already saturates the pool's workers, and nesting an N-thread
    /// selector inside N workers would oversubscribe to ~N².
    pub fn build(self) -> Box<dyn TaskSelector + Send + Sync> {
        match self {
            SelectorChoice::Greedy => Box::new(GreedySelector::fast()),
            SelectorChoice::GreedyPre => Box::new(GreedySelector::fast().with_preprocess()),
            SelectorChoice::Random => Box::new(RandomSelector),
        }
    }
}

/// Daemon construction parameters (the CLI `serve` flags).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Master seed: per-session RNG streams derive from it in open order,
    /// exactly like the offline sharded runner's entity streams.
    pub seed: u64,
    /// Default per-session round configuration (`open` may override).
    pub defaults: RoundConfig,
    /// Worker-pool width for prior building and restores.
    pub threads: usize,
    /// Registry shard (lock-stripe) count. Purely a concurrency knob:
    /// traces, metrics and snapshots are bit-identical at any value.
    pub shards: usize,
    /// Task selection backend.
    pub selector: SelectorChoice,
    /// Name of the fusion method clients are expected to have produced
    /// their marginals with (the `serve --method` flag). Validated against
    /// the [`crowdfusion_fusion::StrategyRegistry`] at construction;
    /// `Open` specs naming a method are validated against the same
    /// registry, and specs without one are treated as this default.
    pub method: String,
    /// Snapshot path confinement. `Some(dir)`: clients may only name bare
    /// file names, resolved inside `dir` — a network client can then
    /// never read or write outside it. `None`: client paths are taken
    /// verbatim — only appropriate when every client is as trusted as the
    /// operator (the default loopback bind).
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Crash safety: `Some` journals every mutation into this directory
    /// and auto-snapshots on its cadence; [`Service::new`] then recovers
    /// whatever state the directory already holds. `None` serves from
    /// memory only (the pre-durability behaviour).
    pub durability: Option<DurabilityConfig>,
    /// Deterministic fault schedule (tests); [`FaultPlan::none`] in
    /// production.
    pub faults: FaultPlan,
    /// Time source for TTL eviction. The system clock belongs at the
    /// server edge only; tests drive a manual clock.
    pub clock: Clock,
    /// Evict sessions idle longer than this many clock ticks (ms).
    /// `None` disables eviction.
    pub session_ttl_ms: Option<u64>,
    /// Per-connection read deadline in ms; a connection silent past it is
    /// closed. `None` waits forever.
    pub read_deadline_ms: Option<u64>,
    /// Reject protocol lines longer than this many bytes.
    pub max_line_bytes: usize,
    /// How crowd budget is spent: per-session (the default, bit-identical
    /// to the pre-scheduler daemon) or one shared pool admitted in
    /// marginal-gain order via the `Schedule` verb.
    pub budget_mode: BudgetMode,
    /// The shared judgment pool for [`BudgetMode::Global`]; ignored in
    /// per-session mode. A zero grant is born exhausted.
    pub global_budget: u64,
}

impl ServiceConfig {
    /// The baseline configuration: no durability, no fault plan, system
    /// clock, no TTL or read deadline, default line cap and shard count.
    pub fn new(
        seed: u64,
        defaults: RoundConfig,
        threads: usize,
        selector: SelectorChoice,
    ) -> ServiceConfig {
        ServiceConfig {
            seed,
            defaults,
            threads,
            shards: DEFAULT_SHARDS,
            selector,
            method: crowdfusion_fusion::DEFAULT_METHOD.to_string(),
            snapshot_dir: None,
            durability: None,
            faults: FaultPlan::none(),
            clock: Clock::system(),
            session_ttl_ms: None,
            read_deadline_ms: None,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            budget_mode: BudgetMode::PerSession,
            global_budget: 0,
        }
    }
}

/// What applying an [`Effect`] produced (the payload the response is
/// built from).
enum EffectOutcome {
    Opened(Vec<OpenedSession>),
    Selected(SelectOutcome),
    Absorbed(AbsorbReport),
    Evicted,
}

/// Dispatch failure: a client-visible error message, or an injected
/// crash that must unwind past the response path entirely.
enum Fail {
    Msg(String),
    Crash(SimulatedCrash),
}

/// Maps an I/O error out of the durability layer: injected crashes
/// unwind, real failures become client-visible errors.
fn io_fail(err: io::Error, what: &str) -> Fail {
    match as_simulated_crash(&err) {
        Some(crash) => Fail::Crash(crash),
        None => Fail::Msg(format!("cannot {what}: {err}")),
    }
}

/// Locks a service-level mutex, recovering from poisoning. The registry's
/// own stripes panic on poison (a panic mid-apply is a library bug); the
/// service-level maps and the durability handle are only ever mutated in
/// single, non-panicking steps, so continuing past a poisoned guard is
/// sound.
fn lease<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lease_read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn lease_write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// The round configuration an `Open` asks for: `None` keeps the registry
/// defaults, and any override fills the fields it leaves out from them.
fn open_config(
    defaults: RoundConfig,
    k: Option<usize>,
    budget: Option<usize>,
    pc: Option<f64>,
) -> Result<Option<RoundConfig>, CoreError> {
    if k.is_none() && budget.is_none() && pc.is_none() {
        return Ok(None);
    }
    RoundConfig::new(
        k.unwrap_or(defaults.k),
        budget.unwrap_or(defaults.budget),
        pc.unwrap_or(defaults.pc_assumed),
    )
    .map(Some)
}

/// Applies one effect to in-memory state. Deterministic given the
/// registry state and the effect — the property journal replay leans on.
/// `now` only feeds the TTL bookkeeping, never the outcome. Free of any
/// service-level serialisation: the *caller* holds whatever ordering
/// locks the effect class requires.
fn apply_effect(
    selector: &dyn TaskSelector,
    registry: &ShardedRegistry,
    opens: &Mutex<BTreeMap<u64, Vec<OpenedSession>>>,
    last_active: &Mutex<BTreeMap<u64, Tick>>,
    effect: &Effect,
    now: Tick,
) -> Result<EffectOutcome, CoreError> {
    match effect {
        Effect::Open {
            request,
            entities,
            k,
            budget,
            pc,
        } => {
            let config = open_config(registry.defaults(), *k, *budget, *pc)?;
            let sessions = registry.open_batch(entities.clone(), config)?;
            {
                let mut last_active = lease(last_active);
                for opened in &sessions {
                    last_active.insert(opened.session, now);
                }
            }
            if let Some(token) = request {
                lease(opens).insert(*token, sessions.clone());
            }
            Ok(EffectOutcome::Opened(sessions))
        }
        Effect::Select { session } => {
            let outcome = registry.select(*session, selector)?;
            lease(last_active).insert(*session, now);
            Ok(EffectOutcome::Selected(outcome))
        }
        Effect::Absorb { session, answers } => {
            // In-batch duplicates collapse through the crowd layer's
            // documented first-answer-wins dedup; the session then
            // rejects cross-batch repeats with the same rule, so the
            // two layers always agree on which answer counted.
            let as_answers: Vec<Answer> = answers
                .iter()
                .map(|a| Answer {
                    task: TaskId(a.task),
                    worker: WorkerId(0),
                    value: a.value,
                })
                .collect();
            let (kept, dropped) = dedup_answers(&as_answers);
            let pairs: Vec<(u64, bool)> = kept.iter().map(|a| (a.task.0, a.value)).collect();
            let mut report = registry.absorb(*session, &pairs)?;
            report.duplicates += dropped;
            lease(last_active).insert(*session, now);
            Ok(EffectOutcome::Absorbed(report))
        }
        Effect::Evict { sessions } => {
            let mut last_active = lease(last_active);
            for &session in sessions {
                // Already-gone sessions are fine: replay of an evict
                // that raced a restore, say, should not fail.
                let _ = registry.evict(session);
                last_active.remove(&session);
            }
            Ok(EffectOutcome::Evicted)
        }
        Effect::Schedule { session, cap, .. } => {
            // A scheduler admission: the same selection a plain `Select`
            // makes, but capped by the global budget remaining at
            // admission time. Deterministic given registry state and the
            // journalled cap, so replay reopens the identical round —
            // and recharges the ledger from the round it reopened.
            let outcome = registry.select_capped(*session, selector, Some(*cap))?;
            lease(last_active).insert(*session, now);
            Ok(EffectOutcome::Selected(outcome))
        }
    }
}

/// The long-lived daemon state shared by every connection.
pub struct Service {
    /// Shared for commits (journal+apply under `shard_order`/`order`),
    /// exclusive for consistent whole-state work (auto-snapshot, restore,
    /// shutdown drain).
    registry: RwLock<ShardedRegistry>,
    /// The durability engine (journal writer + snapshot cadence). Leaf.
    durable: Mutex<Option<Durability>>,
    /// Idempotency ledger: completed `Open`s by request token. Leaf.
    opens: Mutex<BTreeMap<u64, Vec<OpenedSession>>>,
    /// Last tick each session was touched (TTL bookkeeping). Leaf.
    last_active: Mutex<BTreeMap<u64, Tick>>,
    /// Serialises master-schedule / multi-shard effects (`Open`, `Evict`)
    /// so journal order equals master-RNG draw order.
    order: Mutex<()>,
    /// Per-shard journal+apply serialisation for `Select`/`Absorb`.
    shard_order: Vec<Mutex<()>>,
    /// Global-scheduler state; `Some` exactly when
    /// [`ServiceConfig::budget_mode`] is global. A true leaf: it is
    /// locked briefly to read or apply already-computed updates and is
    /// NEVER held while acquiring the registry, a stripe, or the
    /// durability handle — gain computations happen against the registry
    /// first, then land here.
    sched: Mutex<Option<SchedState>>,
    budget_mode: BudgetMode,
    selector: Box<dyn TaskSelector + Send + Sync>,
    /// The daemon's default fusion-method name (see
    /// [`ServiceConfig::method`]).
    method: String,
    threads: usize,
    shards: usize,
    snapshot_dir: Option<std::path::PathBuf>,
    clock: Clock,
    session_ttl_ms: Option<u64>,
    read_deadline_ms: Option<u64>,
    max_line_bytes: usize,
    faults: FaultPlan,
    shutdown: AtomicBool,
}

impl Service {
    /// Builds the daemon: one persistent worker pool, one selector, and —
    /// with durability configured — whatever state the durability
    /// directory holds, recovered as `snapshot + journal replay` and
    /// immediately re-compacted into a fresh snapshot. Fails only on
    /// durability I/O (including injected crashes during recovery: the
    /// chaos harness treats a failed boot as another death and boots
    /// again).
    pub fn new(config: ServiceConfig) -> io::Result<Service> {
        // The method name is operator input (`serve --method`): an unknown
        // name must fail the boot, not the first client to open a session.
        if let Err(e) = crowdfusion_fusion::StrategyRegistry::standard().build(&config.method) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, e.to_string()));
        }
        let pool = Pool::new(config.threads);
        let selector = config.selector.build();
        let clock = config.clock;
        let faults = config.faults;
        let shards = config.shards.max(1);

        let opens = Mutex::new(BTreeMap::new());
        let last_active = Mutex::new(BTreeMap::new());
        let mut sched = config
            .budget_mode
            .is_global()
            .then(|| SchedState::new(config.global_budget));
        let (registry, durable) = match config.durability {
            None => (
                ShardedRegistry::new(config.seed, config.defaults, pool, shards),
                None,
            ),
            Some(durability) => {
                let recovery = recover(&durability.dir)?;
                // The snapshot's ledger and admission marks seed the
                // scheduler; replay below recharges journalled
                // admissions on top. (A per-session boot ignores any
                // scheduler state an earlier global incarnation left.)
                if let Some(state) = sched.as_mut() {
                    if let Some(snap) = recovery.snapshot.as_ref().and_then(|s| s.sched.as_ref()) {
                        *state = SchedState::from_snapshot(snap, config.global_budget);
                    }
                }
                let registry = Self::recovered_registry(
                    &recovery,
                    config.seed,
                    config.defaults,
                    pool,
                    shards,
                    selector.as_ref(),
                    &opens,
                    &last_active,
                    &mut sched,
                )?;
                let mut durable = Durability::open(durability, faults.clone(), &recovery)?;
                // Compact: one fresh snapshot covering everything just
                // recovered, so the journal restarts empty and a torn
                // tail (already dropped by recovery) is truncated away.
                let snapshot = durable_snapshot(
                    &durable,
                    &registry,
                    &opens,
                    sched.as_ref().map(SchedState::snapshot),
                );
                durable.snapshot_now(&snapshot)?;
                (registry, Some(durable))
            }
        };

        // The gain queue is never persisted: rebuild it wholesale from
        // the recovered registry (a pure function of session state, so
        // identical across shard counts and recovery paths).
        if let Some(state) = sched.as_mut() {
            state.queue = gain_queue(&registry);
        }

        // Recovery has no record of wall time; every recovered session's
        // TTL restarts at boot.
        let now = clock.now_ms();
        {
            let mut last_active = lease(&last_active);
            last_active.clear();
            for session in registry.ids() {
                last_active.insert(session, now);
            }
        }

        Ok(Service {
            registry: RwLock::new(registry),
            durable: Mutex::new(durable),
            opens,
            last_active,
            order: Mutex::new(()),
            shard_order: (0..shards).map(|_| Mutex::new(())).collect(),
            sched: Mutex::new(sched),
            budget_mode: config.budget_mode,
            selector,
            method: config.method,
            threads: config.threads,
            shards,
            snapshot_dir: config.snapshot_dir,
            clock,
            session_ttl_ms: config.session_ttl_ms,
            read_deadline_ms: config.read_deadline_ms,
            max_line_bytes: config.max_line_bytes,
            faults,
            shutdown: AtomicBool::new(false),
        })
    }

    /// Rebuilds in-memory state from a recovery: the snapshot's registry
    /// (or a fresh one) with every post-snapshot journal record replayed
    /// through the same apply path live dispatch uses. Replay ignores
    /// per-effect errors: an effect that failed to apply before the crash
    /// fails identically now. In global mode, each replayed `Schedule`
    /// that reopens a round recharges the ledger and re-records its
    /// admission mark, so the ledger is exact without ever being
    /// journalled itself.
    #[allow(clippy::too_many_arguments)]
    fn recovered_registry(
        recovery: &Recovery,
        seed: u64,
        defaults: RoundConfig,
        pool: Pool,
        shards: usize,
        selector: &dyn TaskSelector,
        opens: &Mutex<BTreeMap<u64, Vec<OpenedSession>>>,
        last_active: &Mutex<BTreeMap<u64, Tick>>,
        sched: &mut Option<SchedState>,
    ) -> io::Result<ShardedRegistry> {
        let registry = match &recovery.snapshot {
            Some(snapshot) => {
                let mut ledger = lease(opens);
                for open in &snapshot.opens {
                    ledger.insert(open.request, open.sessions.clone());
                }
                drop(ledger);
                ShardedRegistry::from_snapshot(snapshot.registry.clone(), pool, shards).map_err(
                    |e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("durable snapshot failed validation: {e}"),
                        )
                    },
                )?
            }
            None => ShardedRegistry::new(seed, defaults, pool, shards),
        };
        for record in &recovery.replay {
            let result = apply_effect(selector, &registry, opens, last_active, &record.effect, 0);
            if let Effect::Schedule {
                request, session, ..
            } = &record.effect
            {
                if let (Some(state), Ok(EffectOutcome::Selected(SelectOutcome::Round(round)))) =
                    (sched.as_mut(), &result)
                {
                    // A grant shrunk across restarts can make an honest
                    // replay overcharge; pin to exhausted rather than
                    // refuse the boot.
                    if state.ledger.charge(round.tasks.len() as u64).is_err() {
                        state.ledger.spent = state.ledger.budget;
                    }
                    state.mark(*request, *session);
                }
            }
        }
        Ok(registry)
    }

    /// Resolves a client-supplied snapshot path under the confinement
    /// policy (see [`ServiceConfig::snapshot_dir`]).
    fn resolve_snapshot_path(&self, path: &str) -> Result<std::path::PathBuf, String> {
        use std::path::Component;
        let Some(dir) = &self.snapshot_dir else {
            return Ok(std::path::PathBuf::from(path));
        };
        let p = std::path::Path::new(path);
        let mut components = p.components();
        let bare_file =
            matches!(components.next(), Some(Component::Normal(_))) && components.next().is_none();
        if !bare_file {
            return Err(format!(
                "snapshot path {path:?} must be a bare file name \
                 (snapshots are confined to the daemon's snapshot dir)"
            ));
        }
        Ok(dir.join(p))
    }

    /// Whether a `Shutdown` request has been served.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Dispatches one request. Every failure maps to [`Response::Error`];
    /// the connection stays usable. (Injected crashes also surface as
    /// errors here — harnesses that must observe them use
    /// [`Service::try_handle`].)
    pub fn handle(&self, request: Request) -> Response {
        match self.try_handle(request) {
            Ok(response) => response,
            Err(crash) => Response::Error {
                message: crash.to_string(),
            },
        }
    }

    /// Dispatches one request, letting an injected [`SimulatedCrash`]
    /// unwind to the caller — the chaos harness treats that as process
    /// death and rebuilds the service from its durability directory.
    pub fn try_handle(&self, request: Request) -> Result<Response, SimulatedCrash> {
        match self.dispatch(request) {
            Ok(response) => Ok(response),
            Err(Fail::Msg(message)) => Ok(Response::Error { message }),
            Err(Fail::Crash(crash)) => Err(crash),
        }
    }

    /// Parses one wire line, dispatches it, encodes the response line.
    pub fn handle_line(&self, line: &str) -> String {
        let (framing, decoded) = crate::protocol::decode_framed(line);
        let response = match decoded {
            Ok(request) => self.handle(request),
            Err(refusal) => refusal,
        };
        crate::protocol::encode_framed(framing, &response)
    }

    /// The shard-order stripe owning a session id. Stripe count always
    /// equals the registry's shard count (restores preserve it).
    fn shard_lock(&self, session: u64) -> &Mutex<()> {
        &self.shard_order[(session % self.shard_order.len() as u64) as usize]
    }

    /// The scheduler's durable form, for snapshot assembly (`None` in
    /// per-session mode, keeping those snapshots byte-identical to the
    /// pre-scheduler format).
    fn sched_snapshot(&self) -> Option<SchedSnapshot> {
        lease(&self.sched).as_ref().map(SchedState::snapshot)
    }

    /// Recomputes one session's marginal gain against the registry and
    /// applies it to the gain queue. No-op in per-session mode. The gain
    /// is computed *before* the scheduler lock is taken (leaf rule).
    fn refresh_gain(&self, registry: &ShardedRegistry, session: u64) {
        if !self.budget_mode.is_global() {
            return;
        }
        let gain = registry
            .with_session(session, SchedState::session_gain)
            .ok()
            .flatten();
        if let Some(sched) = lease(&self.sched).as_mut() {
            sched.refresh(session, gain);
        }
    }

    /// Drops sessions from the gain queue (evictions). No-op in
    /// per-session mode.
    fn unqueue_sessions(&self, sessions: &[u64]) {
        if let Some(sched) = lease(&self.sched).as_mut() {
            for &session in sessions {
                sched.queue.remove(session);
            }
        }
    }

    /// The write path: journal → injected-fault window → apply. The caller
    /// holds the effect's serialisation locks (`order` or a
    /// `shard_order` stripe) plus the shared registry guard across this
    /// call, then *releases them* before acting on the returned
    /// `snapshot_due` flag via [`Service::write_auto_snapshot`] — the
    /// snapshot needs the registry exclusively.
    fn commit(
        &self,
        registry: &ShardedRegistry,
        effect: Effect,
    ) -> (Result<EffectOutcome, Fail>, bool) {
        let now = self.clock.now_ms();
        {
            let mut durable = lease(&self.durable);
            if let Some(durable) = durable.as_mut() {
                if let Err(e) = durable.journal(effect.clone()) {
                    return (Err(io_fail(e, "append to the journal")), false);
                }
            }
        }
        if let Err(crash) = self.faults.crash_if_scheduled(FaultPoint::EffectApply) {
            return (Err(Fail::Crash(crash)), false);
        }
        let outcome = apply_effect(
            self.selector.as_ref(),
            registry,
            &self.opens,
            &self.last_active,
            &effect,
            now,
        )
        .map_err(|e| Fail::Msg(e.to_string()));
        // The cadence counts journalled effects whether or not the apply
        // succeeded — both are in the journal, both replay.
        let due = {
            let mut durable = lease(&self.durable);
            durable.as_mut().is_some_and(Durability::effect_applied)
        };
        (outcome, due)
    }

    /// Writes the auto-snapshot the cadence flagged as due. Takes the
    /// registry exclusively, so every journalled effect is applied and
    /// `applied_seq` is exact. Runs with *no other lock held* by the
    /// caller.
    fn write_auto_snapshot(&self) -> Result<(), Fail> {
        let registry = lease_write(&self.registry);
        let mut durable = lease(&self.durable);
        let Some(durable) = durable.as_mut() else {
            return Ok(());
        };
        let snapshot = durable_snapshot(durable, &registry, &self.opens, self.sched_snapshot());
        durable
            .snapshot_now(&snapshot)
            .map_err(|e| io_fail(e, "write the auto-snapshot"))
    }

    /// Resolves a finished commit: the deferred cadence snapshot first
    /// (its injected crashes must unwind exactly where the single-lock
    /// daemon crashed), then the effect's own outcome.
    fn finish_commit(
        &self,
        outcome: Result<EffectOutcome, Fail>,
        due: bool,
    ) -> Result<EffectOutcome, Fail> {
        if due {
            self.write_auto_snapshot()?;
        }
        outcome
    }

    /// Forces batched journal appends to disk. The group-commit hook: a
    /// transport running the durability layer with `group_commit` on
    /// calls this once per ready-batch — one fsync covers every shard's
    /// pending appends — before flushing the batch's responses.
    pub fn flush_wal(&self) -> io::Result<()> {
        match lease(&self.durable).as_mut() {
            Some(durable) => durable.sync(),
            None => Ok(()),
        }
    }

    /// Evicts sessions idle past the TTL, journalling the eviction as an
    /// explicit effect so replay never consults the clock.
    fn sweep_ttl(&self) -> Result<(), Fail> {
        let Some(ttl) = self.session_ttl_ms else {
            return Ok(());
        };
        let now = self.clock.now_ms();
        // Expiry is decided under `order` so a sweep and an `Open` agree
        // on journal order; a concurrently *touched* session can still
        // lose the race and be swept — the journalled Evict keeps replay
        // deterministic either way.
        let order = lease(&self.order);
        let expired: Vec<u64> = lease(&self.last_active)
            .iter()
            .filter(|&(_, &touched)| now.saturating_sub(touched) > ttl)
            .map(|(&session, _)| session)
            .collect();
        if expired.is_empty() {
            return Ok(());
        }
        let (outcome, due) = {
            let registry = lease_read(&self.registry);
            self.commit(
                &registry,
                Effect::Evict {
                    sessions: expired.clone(),
                },
            )
        };
        self.unqueue_sessions(&expired);
        drop(order);
        self.finish_commit(outcome, due)?;
        Ok(())
    }

    /// Builds the client payload for a selection outcome (shared by
    /// `Select`, global-mode admission and `Schedule`). Called with the
    /// session's stripe still held so the exhausted payload reflects
    /// this very selection.
    fn select_payload(
        &self,
        registry: &ShardedRegistry,
        session: u64,
        outcome: Result<EffectOutcome, Fail>,
    ) -> Result<Response, Fail> {
        match outcome? {
            EffectOutcome::Selected(SelectOutcome::Round(round)) => Ok(Response::Round {
                session,
                round: round.round,
                tasks: round.tasks,
            }),
            EffectOutcome::Selected(SelectOutcome::Exhausted) => {
                let (rounds, spent) = registry
                    .with_session(session, |s| (s.rounds(), s.spent()))
                    .map_err(|e| Fail::Msg(e.to_string()))?;
                Ok(Response::Exhausted {
                    session,
                    rounds,
                    spent,
                })
            }
            _ => unreachable!("select applies to Selected"),
        }
    }

    /// Answers a `Select` that does not mutate — an open round read again,
    /// or an exhausted session polled — without journalling it. Called
    /// with the session's stripe held, like [`Service::select_payload`].
    fn reread_select(&self, registry: &ShardedRegistry, session: u64) -> Result<Response, Fail> {
        let outcome = apply_effect(
            self.selector.as_ref(),
            registry,
            &self.opens,
            &self.last_active,
            &Effect::Select { session },
            self.clock.now_ms(),
        )
        .map_err(|e| Fail::Msg(e.to_string()));
        self.select_payload(registry, session, outcome)
    }

    /// Applies a completed admission to the scheduler: a `Round` charges
    /// its tasks against the shared ledger, dequeues the session (it is
    /// busy until the round absorbs) and records the idempotency mark.
    /// The charge cannot fail — admission capped the round by the budget
    /// remaining, and `order` was held from cap to charge.
    fn settle_admission(&self, session: u64, token: Option<u64>, payload: &Response) {
        let mut sched = lease(&self.sched);
        let Some(sched) = sched.as_mut() else { return };
        if let Response::Round { tasks, .. } = payload {
            sched
                .ledger
                .charge(tasks.len() as u64)
                .expect("admission capped the round by the remaining budget");
            sched.queue.remove(session);
            sched.mark(token, session);
        }
    }

    /// Global-mode `Select`: idempotent re-reads and exhausted polls stay
    /// pure reads exactly as in per-session mode, and a selection that
    /// would spend nothing (flipping an empty session to exhausted) is
    /// granted freely — but a selection that would *open a round* must be
    /// admitted: it is granted only when the session is the gain queue's
    /// current best, journalled as a `Schedule` effect capped and charged
    /// against the shared ledger. Anything else gets
    /// [`Response::Deferred`] naming the scheduler's preferred session.
    fn select_global(&self, session: u64) -> Result<Response, Fail> {
        let err = |e: CoreError| Fail::Msg(e.to_string());
        let order = lease(&self.order);
        let (payload, due) = {
            let registry = lease_read(&self.registry);
            let _shard = lease(self.shard_lock(session));
            let (open_round, exhausted, left) = registry
                .with_session(session, |s| {
                    (s.has_open_round(), s.is_exhausted(), s.remaining())
                })
                .map_err(err)?;
            if open_round || exhausted {
                (self.reread_select(&registry, session), false)
            } else if left == 0 {
                // Flips to exhausted without opening a round: spends
                // nothing, so no admission contest — but it mutates, so
                // it journals like any per-session select.
                let (outcome, due) = self.commit(&registry, Effect::Select { session });
                (self.select_payload(&registry, session, outcome), due)
            } else {
                let admission = {
                    let sched = lease(&self.sched);
                    let sched = sched.as_ref().expect("global mode has scheduler state");
                    if sched.ledger.is_exhausted() {
                        Err(None)
                    } else {
                        match sched.queue.peek() {
                            Some(top) if top.session == session => Ok(sched.ledger.remaining()),
                            Some(top) => Err(Some(top.session)),
                            None => Err(None),
                        }
                    }
                };
                match admission {
                    Err(preferred) => (Ok(Response::Deferred { session, preferred }), false),
                    Ok(cap) => {
                        let (outcome, due) = self.commit(
                            &registry,
                            Effect::Schedule {
                                request: None,
                                session,
                                cap: cap as usize,
                            },
                        );
                        let payload = self.select_payload(&registry, session, outcome);
                        if let Ok(p) = &payload {
                            self.settle_admission(session, None, p);
                        }
                        (payload, due)
                    }
                }
            }
        };
        drop(order);
        if due {
            self.write_auto_snapshot()?;
        }
        payload
    }

    /// `Schedule` dispatch (global mode only): admit the gain queue's
    /// best schedulable session, cap its round by the shared budget
    /// remaining, charge what it opened. Stale entries — sessions that
    /// became busy, exhausted or evicted since their gain was computed —
    /// are pruned and the scan continues, so one call always lands on
    /// live work or an honest [`Response::NoWork`]. A retried
    /// idempotency token re-reads the original admission (a pure read)
    /// instead of admitting and charging twice.
    fn schedule_next(&self, token: Option<u64>) -> Result<Response, Fail> {
        let err = |e: CoreError| Fail::Msg(e.to_string());
        if !self.budget_mode.is_global() {
            return Err(Fail::Msg(
                "Schedule requires --budget-mode global (this daemon runs per-session budgets)"
                    .to_string(),
            ));
        }
        let order = lease(&self.order);
        if let Some(token) = token {
            let marked = lease(&self.sched)
                .as_ref()
                .and_then(|s| s.scheduled.get(&token).copied());
            if let Some(session) = marked {
                let registry = lease_read(&self.registry);
                let open_round = registry
                    .with_session(session, |s| s.has_open_round())
                    .map_err(err)?;
                return if open_round {
                    self.reread_select(&registry, session)
                } else {
                    // The admitted round has since been fully absorbed;
                    // an empty task list says nothing is owed.
                    let round = registry
                        .with_session(session, |s| s.rounds())
                        .map_err(err)?;
                    Ok(Response::Round {
                        session,
                        round,
                        tasks: Vec::new(),
                    })
                };
            }
        }
        let mut any_due = false;
        let payload = loop {
            // Pick under the scheduler lock, verify against the registry
            // after releasing it (the scheduler mutex is a strict leaf).
            let candidate = {
                let sched = lease(&self.sched);
                let sched = sched.as_ref().expect("global mode has scheduler state");
                if sched.ledger.is_exhausted() {
                    break Ok(Response::NoWork { remaining: 0 });
                }
                match sched.queue.peek() {
                    None => {
                        break Ok(Response::NoWork {
                            remaining: sched.ledger.remaining(),
                        })
                    }
                    Some(entry) => (entry.session, sched.ledger.remaining()),
                }
            };
            let (session, cap) = candidate;
            let registry = lease_read(&self.registry);
            let shard = lease(self.shard_lock(session));
            let schedulable = registry
                .with_session(session, |s| {
                    !s.has_open_round() && !s.is_exhausted() && s.remaining() > 0
                })
                .unwrap_or(false);
            if !schedulable {
                drop(shard);
                drop(registry);
                self.unqueue_sessions(&[session]);
                continue;
            }
            let (outcome, due) = self.commit(
                &registry,
                Effect::Schedule {
                    request: token,
                    session,
                    cap: cap as usize,
                },
            );
            any_due |= due;
            match self.select_payload(&registry, session, outcome) {
                Ok(Response::Exhausted { .. }) => {
                    // The selector stopped without opening a round:
                    // nothing charged; drop the session and rescan.
                    drop(shard);
                    drop(registry);
                    self.unqueue_sessions(&[session]);
                    continue;
                }
                Ok(p) => {
                    self.settle_admission(session, token, &p);
                    break Ok(p);
                }
                Err(fail) => break Err(fail),
            }
        };
        drop(order);
        if any_due {
            self.write_auto_snapshot()?;
        }
        payload
    }

    fn dispatch(&self, request: Request) -> Result<Response, Fail> {
        let err = |e: CoreError| Fail::Msg(e.to_string());
        // Version negotiation touches no session state — answer before
        // TTL sweeps or registry locks.
        if let Request::Hello { v } = request {
            return Ok(if crate::protocol::version_supported(v) {
                Response::Welcome {
                    v,
                    min: crate::protocol::WIRE_VERSION_MIN,
                    max: crate::protocol::WIRE_VERSION_MAX,
                }
            } else {
                crate::protocol::unsupported_version(v)
            });
        }
        // The client-directed snapshot export serialises and writes
        // *outside* the registry guard so a large export never stalls
        // other connections' traffic — the guard is held only for the
        // clone.
        if let Request::Snapshot { path } = request {
            let resolved = self.resolve_snapshot_path(&path).map_err(Fail::Msg)?;
            self.sweep_ttl()?;
            let snap = lease_read(&self.registry).snapshot();
            let sessions = snap.sessions.len() as u64;
            snapshot::save(&snap, &resolved)
                .map_err(|e| Fail::Msg(format!("cannot write snapshot {path}: {e}")))?;
            return Ok(Response::Snapshotted { path, sessions });
        }
        if let Request::Restore { path } = request {
            let resolved = self.resolve_snapshot_path(&path).map_err(Fail::Msg)?;
            let snap = snapshot::load(&resolved)
                .map_err(|e| Fail::Msg(format!("cannot read snapshot {path}: {e}")))?;
            // Exclusive: a restore replaces the whole registry, and no
            // commit may straddle the swap.
            let mut registry = lease_write(&self.registry);
            let pool = registry.pool().clone();
            let restored = ShardedRegistry::from_snapshot(snap, pool, self.shards).map_err(err)?;
            let sessions = restored.len() as u64;
            *registry = restored;
            // The ledger described sessions that no longer exist.
            lease(&self.opens).clear();
            let now = self.clock.now_ms();
            *lease(&self.last_active) = registry
                .ids()
                .into_iter()
                .map(|session| (session, now))
                .collect();
            // Rebuild the scheduler against the restored registry. The
            // exported snapshot format is registry-only, so the ledger
            // is *reconstructed*: every restored judgment — spent or
            // committed to a still-open round — was charged at
            // admission, hence counts as spent here. Admission marks
            // described rounds that no longer exist and are dropped.
            if self.budget_mode.is_global() {
                let mut spent: u64 = 0;
                for session in registry.ids() {
                    spent += registry
                        .with_session(session, |s| (s.spent() + s.open_round_tasks()) as u64)
                        .unwrap_or(0);
                }
                let queue = gain_queue(&registry);
                if let Some(sched) = lease(&self.sched).as_mut() {
                    let budget = sched.ledger.budget;
                    sched.ledger = BudgetLedger {
                        budget,
                        spent: spent.min(budget),
                    };
                    sched.scheduled.clear();
                    sched.queue = queue;
                }
            }
            // Durability barrier: the restore replaces history, so the
            // restored state becomes the new recovery base at once.
            let mut durable = lease(&self.durable);
            if let Some(durable) = durable.as_mut() {
                let snapshot =
                    durable_snapshot(durable, &registry, &self.opens, self.sched_snapshot());
                durable
                    .snapshot_now(&snapshot)
                    .map_err(|e| io_fail(e, "persist the restored state"))?;
            }
            return Ok(Response::Restored { path, sessions });
        }

        self.sweep_ttl()?;
        match request {
            Request::Open {
                request,
                entities,
                k,
                budget,
                pc,
            } => {
                // Pre-validate so malformed opens are rejected before the
                // journal sees them. A spec naming a fusion method must
                // name a registered one (absent = the daemon's default).
                let fusion = crowdfusion_fusion::StrategyRegistry::standard();
                for spec in &entities {
                    spec.validate().map_err(err)?;
                    if let Some(method) = &spec.method {
                        fusion.build(method).map_err(|e| Fail::Msg(e.to_string()))?;
                    }
                }
                let order = lease(&self.order);
                // At-least-once: a retried token returns the recorded
                // payload, opening nothing. Checked under `order` so two
                // racing retries cannot both open.
                if let Some(token) = request {
                    if let Some(sessions) = lease(&self.opens).get(&token) {
                        return Ok(Response::Opened {
                            sessions: sessions.clone(),
                        });
                    }
                }
                let (outcome, due) = {
                    let registry = lease_read(&self.registry);
                    open_config(registry.defaults(), k, budget, pc).map_err(err)?;
                    self.commit(
                        &registry,
                        Effect::Open {
                            request,
                            entities,
                            k,
                            budget,
                            pc,
                        },
                    )
                };
                drop(order);
                match self.finish_commit(outcome, due)? {
                    EffectOutcome::Opened(sessions) => {
                        // Freshly opened sessions are idle with their
                        // whole budget: queue their gains.
                        if self.budget_mode.is_global() {
                            let registry = lease_read(&self.registry);
                            for opened in &sessions {
                                self.refresh_gain(&registry, opened.session);
                            }
                        }
                        Ok(Response::Opened { sessions })
                    }
                    _ => unreachable!("open applies to Opened"),
                }
            }
            Request::Select { session } => {
                if self.budget_mode.is_global() {
                    return self.select_global(session);
                }
                let (payload, due) = {
                    let registry = lease_read(&self.registry);
                    let _shard = lease(self.shard_lock(session));
                    // Journal only when selection will mutate (draw RNG,
                    // open a round, or flip to exhausted); re-reading an
                    // open round and polling an exhausted session are pure
                    // reads.
                    let mutates = registry
                        .with_session(session, |s| !s.has_open_round() && !s.is_exhausted())
                        .map_err(err)?;
                    if mutates {
                        let (outcome, due) = self.commit(&registry, Effect::Select { session });
                        (self.select_payload(&registry, session, outcome), due)
                    } else {
                        (self.reread_select(&registry, session), false)
                    }
                };
                if due {
                    self.write_auto_snapshot()?;
                }
                payload
            }
            Request::Absorb { session, answers } => {
                let (outcome, due) = {
                    let registry = lease_read(&self.registry);
                    let shard = lease(self.shard_lock(session));
                    // The session must exist before the batch is
                    // journalled; in-batch errors (unknown ids, no open
                    // round) journal and fail identically on replay.
                    registry.with_session(session, |_| ()).map_err(err)?;
                    let result = self.commit(&registry, Effect::Absorb { session, answers });
                    drop(shard);
                    result
                };
                match self.finish_commit(outcome, due)? {
                    EffectOutcome::Absorbed(report) => {
                        // A closed round leaves the session idle with a
                        // fresh posterior: recompute its place in the
                        // gain queue (no-op in per-session mode).
                        if report.closed.is_some() && self.budget_mode.is_global() {
                            let registry = lease_read(&self.registry);
                            self.refresh_gain(&registry, session);
                        }
                        Ok(Response::Absorbed {
                            session,
                            accepted: report.accepted,
                            duplicates: report.duplicates,
                            pending: report.pending,
                            closed: report.closed,
                        })
                    }
                    _ => unreachable!("absorb applies to Absorbed"),
                }
            }
            Request::Hello { .. } | Request::Snapshot { .. } | Request::Restore { .. } => {
                unreachable!("hello and snapshot verbs are handled before the main dispatch")
            }
            Request::Status { session } => {
                let registry = lease_read(&self.registry);
                let response = registry
                    .with_session(session, |state| Response::Status {
                        session,
                        name: state.name().to_string(),
                        facts: state.num_facts(),
                        rounds: state.rounds(),
                        spent: state.spent(),
                        remaining: state.remaining(),
                        pending: state.pending_answers(),
                        exhausted: state.is_exhausted(),
                        utility: state.utility(),
                        entropy: state.entropy(),
                    })
                    .map_err(err)?;
                // A status poll counts as activity: watching a session
                // keeps it alive.
                let now = self.clock.now_ms();
                lease(&self.last_active).insert(session, now);
                Ok(response)
            }
            Request::Schedule { request } => self.schedule_next(request),
            Request::BudgetStatus => {
                // Copy out of the scheduler mutex before touching the
                // registry — the scheduler is a leaf lock and must never
                // be held while acquiring anything else.
                let global = lease(&self.sched)
                    .as_ref()
                    .map(|s| (s.ledger, s.queue.peek()));
                match global {
                    Some((ledger, next)) => Ok(Response::Budget {
                        mode: BudgetMode::Global.name().to_string(),
                        budget: ledger.budget,
                        spent: ledger.spent,
                        remaining: ledger.remaining(),
                        next_session: next.as_ref().map(|e| e.session),
                        next_gain_bits: next.as_ref().map(|e| e.bits),
                    }),
                    None => {
                        // Per-session mode: report the aggregate of the
                        // independent session budgets.
                        let registry = lease_read(&self.registry);
                        let mut spent = 0u64;
                        let mut remaining = 0u64;
                        for session in registry.ids() {
                            if let Ok((s, r)) = registry.with_session(session, |st| {
                                (st.spent() as u64, st.remaining() as u64)
                            }) {
                                spent += s;
                                remaining += r;
                            }
                        }
                        Ok(Response::Budget {
                            mode: BudgetMode::PerSession.name().to_string(),
                            budget: spent + remaining,
                            spent,
                            remaining,
                            next_session: None,
                            next_gain_bits: None,
                        })
                    }
                }
            }
            Request::Metrics => Ok(Response::Metrics {
                metrics: lease_read(&self.registry).metrics(),
            }),
            Request::Trace => Ok(Response::Trace {
                trace: lease_read(&self.registry).trace(self.selector.name()),
            }),
            Request::Shutdown => {
                // Drain: open rounds and partial answers persist in a
                // final snapshot instead of dying with the process. A
                // *real* I/O failure here still shuts down — the journal
                // already holds everything the snapshot would (synced
                // below) — but an injected crash unwinds like any other.
                let registry = lease_write(&self.registry);
                let mut durable = lease(&self.durable);
                if let Some(durable) = durable.as_mut() {
                    let snapshot =
                        durable_snapshot(durable, &registry, &self.opens, self.sched_snapshot());
                    if let Err(e) = durable.snapshot_now(&snapshot) {
                        if let Some(crash) = as_simulated_crash(&e) {
                            return Err(Fail::Crash(crash));
                        }
                        let _ = durable.sync();
                        eprintln!(
                            "crowdfusion-serve: final snapshot failed ({e}); \
                             shutting down on the synced journal"
                        );
                    }
                }
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(Response::Bye)
            }
        }
    }

    /// Worker-pool width (used to size pools for restored registries).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Registry shard (lock-stripe) count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The daemon's default fusion-method name.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The per-connection read deadline, if one is configured.
    pub fn read_deadline_ms(&self) -> Option<u64> {
        self.read_deadline_ms
    }

    /// The daemon's time source. Transports stamp connection activity
    /// through it so read deadlines stay off the raw wall clock (tests
    /// drive a manual clock).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The protocol line-length cap.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// The fault schedule (transports consult the connection points).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }
}

/// The durable snapshot of the state as it stands: the registry, the
/// idempotency ledger and the scheduler's durable form, covering every
/// effect `durable` has journalled.
fn durable_snapshot(
    durable: &Durability,
    registry: &ShardedRegistry,
    opens: &Mutex<BTreeMap<u64, Vec<OpenedSession>>>,
    sched: Option<SchedSnapshot>,
) -> DurableSnapshot {
    DurableSnapshot {
        applied_seq: durable.last_seq(),
        registry: registry.snapshot(),
        opens: lease(opens)
            .iter()
            .map(|(&request, sessions)| CompletedOpen {
                request,
                sessions: sessions.clone(),
            })
            .collect(),
        sched,
    }
}

/// The gain queue rebuilt wholesale against the registry (boot and
/// restore: the queue is never persisted). Built before the scheduler
/// lock is taken, so that lock stays a leaf.
fn gain_queue(registry: &ShardedRegistry) -> GainQueue {
    let mut queue = GainQueue::new();
    for session in registry.ids() {
        if let Ok(Some((fact, gain))) = registry.with_session(session, SchedState::session_gain) {
            queue.insert(session, fact, gain);
        }
    }
    queue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireAnswer as WA;
    use crowdfusion_core::session::{EntitySpec, PublishedTask};
    use std::sync::atomic::AtomicU64;

    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crowdfusion-service-{label}-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_config() -> ServiceConfig {
        ServiceConfig::new(
            7,
            RoundConfig::new(2, 6, 0.8).unwrap(),
            2,
            SelectorChoice::Greedy,
        )
    }

    fn service() -> Service {
        Service::new(base_config()).unwrap()
    }

    fn spec() -> EntitySpec {
        EntitySpec::simple("b", vec![0.5, 0.6, 0.7], vec![true, false, true])
    }

    fn open_one(svc: &Service, request: Option<u64>) -> Vec<OpenedSession> {
        let Response::Opened { sessions } = svc.handle(Request::Open {
            request,
            entities: vec![spec()],
            k: None,
            budget: None,
            pc: None,
        }) else {
            panic!("open failed");
        };
        sessions
    }

    #[test]
    fn selector_choice_parses_the_cli_matrix() {
        assert_eq!(
            SelectorChoice::parse("greedy").unwrap(),
            SelectorChoice::Greedy
        );
        assert_eq!(
            SelectorChoice::parse("greedy-pre").unwrap(),
            SelectorChoice::GreedyPre
        );
        assert_eq!(
            SelectorChoice::parse("random").unwrap(),
            SelectorChoice::Random
        );
        assert!(SelectorChoice::parse("oracle").is_err());
    }

    #[test]
    fn open_select_absorb_cycle_end_to_end() {
        let svc = service();
        let sessions = open_one(&svc, None);
        let id = sessions[0].session;
        let Response::Round { tasks, round, .. } = svc.handle(Request::Select { session: id })
        else {
            panic!("select failed");
        };
        assert_eq!(round, 1);
        assert_eq!(tasks.len(), 2);
        let answers: Vec<WA> = tasks
            .iter()
            .map(|t| WA {
                task: t.id,
                value: true,
            })
            .collect();
        let Response::Absorbed {
            accepted,
            pending,
            closed,
            ..
        } = svc.handle(Request::Absorb {
            session: id,
            answers,
        })
        else {
            panic!("absorb failed");
        };
        assert_eq!(accepted, 2);
        assert_eq!(pending, 0);
        assert!(closed.is_some());
        let Response::Status { rounds, spent, .. } = svc.handle(Request::Status { session: id })
        else {
            panic!("status failed");
        };
        assert_eq!((rounds, spent), (1, 2));
        let Response::Metrics { metrics } = svc.handle(Request::Metrics) else {
            panic!("metrics failed");
        };
        assert_eq!(metrics.judgments, 2);
    }

    #[test]
    fn method_names_are_validated_at_boot_and_open() {
        // Boot: an unknown --method fails construction with the registry's
        // full listing, before any client connects.
        let mut config = base_config();
        config.method = "lda".to_string();
        let Err(err) = Service::new(config) else {
            panic!("unknown method must fail the boot");
        };
        assert!(err.to_string().contains("unknown fusion method"));
        assert!(err.to_string().contains("modified-crh"));

        // A non-default registered method boots and is visible.
        let mut config = base_config();
        config.method = "truthfinder".to_string();
        let svc = Service::new(config).unwrap();
        assert_eq!(svc.method(), "truthfinder");

        // Open: specs naming a registered method pass; unknown names are
        // rejected before the journal would see them.
        let mut tagged = spec();
        tagged.method = Some("per-attribute".to_string());
        let Response::Opened { sessions } = svc.handle(Request::Open {
            request: None,
            entities: vec![tagged],
            k: None,
            budget: None,
            pc: None,
        }) else {
            panic!("tagged open failed");
        };
        assert_eq!(sessions.len(), 1);
        let mut bogus = spec();
        bogus.method = Some("lda".to_string());
        let response = svc.handle(Request::Open {
            request: None,
            entities: vec![bogus],
            k: None,
            budget: None,
            pc: None,
        });
        assert!(
            matches!(response, Response::Error { ref message } if message.contains("unknown fusion method")),
            "{response:?}"
        );
    }

    #[test]
    fn errors_are_responses_not_disconnects() {
        let svc = service();
        assert!(matches!(
            svc.handle(Request::Select { session: 42 }),
            Response::Error { .. }
        ));
        assert!(matches!(
            svc.handle(Request::Open {
                request: None,
                entities: vec![spec()],
                k: Some(0),
                budget: None,
                pc: None,
            }),
            Response::Error { .. }
        ));
        let reply = svc.handle_line("{garbage");
        assert!(reply.contains("Error"));
        // Still serving afterwards.
        assert!(matches!(
            svc.handle(Request::Metrics),
            Response::Metrics { .. }
        ));
    }

    #[test]
    fn retried_open_token_replays_the_original_response() {
        let svc = service();
        let first = open_one(&svc, Some(11));
        let retry = open_one(&svc, Some(11));
        assert_eq!(first, retry, "token retry must not open new sessions");
        let Response::Metrics { metrics } = svc.handle(Request::Metrics) else {
            panic!("metrics failed");
        };
        assert_eq!(metrics.sessions, 1);
        // A different token (and no token at all) opens fresh sessions.
        let other = open_one(&svc, Some(12));
        assert_ne!(first[0].session, other[0].session);
        open_one(&svc, None);
        let Response::Metrics { metrics } = svc.handle(Request::Metrics) else {
            panic!("metrics failed");
        };
        assert_eq!(metrics.sessions, 3);
    }

    #[test]
    fn absorb_routes_in_batch_duplicates_through_crowd_dedup() {
        // Regression for the ingest boundary: a batch that repeats a task
        // id keeps the FIRST occurrence (even when values conflict) and
        // counts the rest as duplicates — exactly dedup_answers' rule.
        let svc = service();
        let id = open_one(&svc, None)[0].session;
        let Response::Round { tasks, .. } = svc.handle(Request::Select { session: id }) else {
            panic!("select failed");
        };
        let t0 = tasks[0].id;
        let batch = vec![
            WA {
                task: t0,
                value: true,
            },
            WA {
                task: t0,
                value: false, // conflicting redelivery, dropped
            },
            WA {
                task: t0,
                value: true, // agreeing redelivery, also dropped
            },
        ];
        let Response::Absorbed {
            accepted,
            duplicates,
            pending,
            ..
        } = svc.handle(Request::Absorb {
            session: id,
            answers: batch,
        })
        else {
            panic!("absorb failed");
        };
        assert_eq!((accepted, duplicates, pending), (1, 2, 1));
        // Re-delivering the whole original answer across batches is also
        // one duplicate per repeat (session-level dedup).
        let Response::Absorbed {
            accepted,
            duplicates,
            ..
        } = svc.handle(Request::Absorb {
            session: id,
            answers: vec![WA {
                task: t0,
                value: false,
            }],
        })
        else {
            panic!("absorb failed");
        };
        assert_eq!((accepted, duplicates), (0, 1));
    }

    #[test]
    fn idle_sessions_are_evicted_on_the_manual_clock() {
        let clock = Clock::manual();
        let mut config = base_config();
        config.clock = clock.clone();
        config.session_ttl_ms = Some(1_000);
        let svc = Service::new(config).unwrap();
        let id = open_one(&svc, None)[0].session;
        // Touch within the TTL: stays alive.
        clock.advance(900);
        assert!(matches!(
            svc.handle(Request::Status { session: id }),
            Response::Status { .. }
        ));
        clock.advance(999);
        assert!(matches!(
            svc.handle(Request::Status { session: id }),
            Response::Status { .. }
        ));
        // Idle past the TTL: the next request sweeps it away.
        clock.advance(1_001);
        assert!(matches!(
            svc.handle(Request::Status { session: id }),
            Response::Error { .. }
        ));
        let Response::Metrics { metrics } = svc.handle(Request::Metrics) else {
            panic!("metrics failed");
        };
        assert_eq!(metrics.sessions, 0);
    }

    #[test]
    fn durable_service_recovers_sessions_across_restart() {
        let dir = temp_dir("restart");
        let mut config = base_config();
        config.durability = Some(DurabilityConfig::new(&dir));
        let svc = Service::new(config.clone()).unwrap();
        let id = open_one(&svc, Some(5))[0].session;
        let Response::Round { tasks, .. } = svc.handle(Request::Select { session: id }) else {
            panic!("select failed");
        };
        // Absorb one of two answers, then DROP the service: no shutdown,
        // no drain — the journal alone must carry the partial round.
        let Response::Absorbed { pending, .. } = svc.handle(Request::Absorb {
            session: id,
            answers: vec![WA {
                task: tasks[0].id,
                value: true,
            }],
        }) else {
            panic!("absorb failed");
        };
        assert_eq!(pending, 1);
        drop(svc);

        let revived = Service::new(config).unwrap();
        let Response::Status { pending, spent, .. } =
            revived.handle(Request::Status { session: id })
        else {
            panic!("status failed");
        };
        assert_eq!((pending, spent), (1, 0), "partial round must survive");
        // The idempotency ledger also survived.
        let retry = open_one(&revived, Some(5));
        assert_eq!(retry[0].session, id);
        let Response::Metrics { metrics } = revived.handle(Request::Metrics) else {
            panic!("metrics failed");
        };
        assert_eq!(metrics.sessions, 1);
    }

    #[test]
    fn open_rejects_repeated_group_members_before_the_journal() {
        let dir = temp_dir("groups");
        let mut config = base_config();
        config.durability = Some(DurabilityConfig::new(&dir));
        let svc = Service::new(config).unwrap();
        for (groups, repeated) in [(vec![vec![2, 2]], 2), (vec![vec![0, 1], vec![1, 2]], 1)] {
            let mut bad = spec();
            bad.groups = groups;
            let response = svc.handle(Request::Open {
                request: Some(9),
                entities: vec![spec(), bad],
                k: None,
                budget: None,
                pc: None,
            });
            let expected = CoreError::DuplicateTask(repeated).to_string();
            assert!(
                matches!(response, Response::Error { ref message } if *message == expected),
                "{response:?}"
            );
        }
        let Response::Metrics { metrics } = svc.handle(Request::Metrics) else {
            panic!("metrics failed");
        };
        assert_eq!(metrics.sessions, 0);
        drop(svc);
        let recovered = crate::durable::recover(&dir).unwrap();
        assert!(recovered
            .snapshot
            .is_none_or(|s| s.registry.sessions.is_empty()));
        assert!(
            !recovered
                .replay
                .iter()
                .any(|record| matches!(record.effect, Effect::Open { .. })),
            "{:?}",
            recovered.replay
        );
    }

    #[test]
    fn shutdown_drains_to_a_final_snapshot() {
        let dir = temp_dir("drain");
        let mut config = base_config();
        config.durability = Some(DurabilityConfig::new(&dir));
        let svc = Service::new(config.clone()).unwrap();
        let id = open_one(&svc, None)[0].session;
        svc.handle(Request::Select { session: id });
        assert_eq!(svc.handle(Request::Shutdown), Response::Bye);
        assert!(svc.shutdown_requested());
        drop(svc);
        // The journal is empty (truncated by the final snapshot) and the
        // snapshot alone restores the open round.
        let recovered = crate::durable::recover(&dir).unwrap();
        assert!(recovered.replay.is_empty());
        assert!(recovered.snapshot.is_some());
        let revived = Service::new(config).unwrap();
        let Response::Status { pending, .. } = revived.handle(Request::Status { session: id })
        else {
            panic!("status failed");
        };
        assert_eq!(pending, 2, "open round drained into the snapshot");
    }

    #[test]
    fn snapshot_dir_confines_client_paths() {
        let dir = temp_dir("confine");
        let mut config = base_config();
        config.threads = 1;
        config.snapshot_dir = Some(dir.clone());
        let svc = Service::new(config.clone()).unwrap();
        // Traversal and absolute paths are rejected without touching disk.
        for bad in ["../escape.json", "/etc/hostname", "a/b.json", ""] {
            let response = svc.handle(Request::Snapshot {
                path: bad.to_string(),
            });
            assert!(
                matches!(response, Response::Error { ref message } if message.contains("bare file name")),
                "path {bad:?} gave {response:?}"
            );
        }
        // A bare file name lands inside the configured directory.
        assert!(matches!(
            svc.handle(Request::Snapshot {
                path: "ok.json".to_string(),
            }),
            Response::Snapshotted { .. }
        ));
        assert!(dir.join("ok.json").exists());
        assert!(matches!(
            svc.handle(Request::Restore {
                path: "ok.json".to_string(),
            }),
            Response::Restored { .. }
        ));
        std::fs::remove_file(dir.join("ok.json")).ok();
        // Unconfined daemons keep verbatim paths (trusted operators).
        config.snapshot_dir = None;
        let open = Service::new(config).unwrap();
        let path = dir.join("direct.json").to_string_lossy().into_owned();
        assert!(matches!(
            open.handle(Request::Snapshot { path: path.clone() }),
            Response::Snapshotted { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_a_posterior_that_does_not_match_its_case() {
        let dir = temp_dir("mismatch");
        let svc = service();
        open_one(&svc, None);
        let good = dir.join("good.json");
        assert!(matches!(
            svc.handle(Request::Snapshot {
                path: good.to_string_lossy().into_owned(),
            }),
            Response::Snapshotted { .. }
        ));
        // A 3-fact session whose posterior claims 5 facts: restoring it
        // would panic on the next select, under the shard lock. Then six
        // 3-fact posteriors that are not distributions (unsorted, a
        // duplicate, a bit at n, mass 8, a negative probability, an empty
        // support): each would restore and serve rounds scored on it.
        let mut bad_posteriors = vec![crowdfusion_jointdist::JointDist::independent(&[
            0.99, 0.99, 0.5, 0.5, 0.5,
        ])
        .unwrap()];
        for entries in [
            "[[3,0.5],[1,0.5]]",
            "[[1,0.5],[1,0.5]]",
            "[[0,0.5],[8,0.5]]",
            "[[0,4.0],[1,4.0]]",
            "[[0,1.5],[1,-0.5]]",
            "[]",
        ] {
            let json = format!(r#"{{"n":3,"entries":{entries}}}"#);
            bad_posteriors.push(serde_json::from_str(&json).unwrap());
        }
        let trace_before = svc.handle(Request::Trace);
        for posterior in bad_posteriors {
            let mut snap = snapshot::load(&good).unwrap();
            snap.sessions[0].snapshot.dist = posterior.clone();
            let bad = dir.join("bad.json");
            snapshot::save(&snap, &bad).unwrap();
            assert!(
                matches!(
                    svc.handle(Request::Restore {
                        path: bad.to_string_lossy().into_owned(),
                    }),
                    Response::Error { ref message } if message.contains("posterior")
                ),
                "{posterior:?} restored"
            );
        }
        // The previous registry keeps serving, untouched.
        assert_eq!(svc.handle(Request::Trace), trace_before);
        assert!(matches!(
            svc.handle(Request::Select { session: 0 }),
            Response::Round { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let svc = service();
        assert!(!svc.shutdown_requested());
        assert_eq!(svc.handle(Request::Shutdown), Response::Bye);
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn shard_count_is_invisible_in_traces_and_snapshots() {
        // The same workload at 1, 2 and 8 shards produces byte-identical
        // traces, metrics and snapshots.
        let mut outputs = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut config = base_config();
            config.shards = shards;
            let svc = Service::new(config).unwrap();
            for _ in 0..3 {
                let id = open_one(&svc, None)[0].session;
                let Response::Round { tasks, .. } = svc.handle(Request::Select { session: id })
                else {
                    panic!("select failed");
                };
                let answers: Vec<WA> = tasks
                    .iter()
                    .map(|t| WA {
                        task: t.id,
                        value: true,
                    })
                    .collect();
                svc.handle(Request::Absorb {
                    session: id,
                    answers,
                });
            }
            let trace = crate::protocol::encode(&svc.handle(Request::Trace));
            let metrics = crate::protocol::encode(&svc.handle(Request::Metrics));
            outputs.push((trace, metrics));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn group_commit_defers_fsync_until_flush_wal() {
        // With group_commit on, journalled effects survive only after the
        // explicit flush; the append path itself never fsyncs. (Appends
        // still hit the page cache, so this asserts the *flush contract*:
        // flush_wal succeeds and a restart recovers everything.)
        let dir = temp_dir("group-commit");
        let mut config = base_config();
        let mut durability = DurabilityConfig::new(&dir);
        durability.group_commit = true;
        config.durability = Some(durability);
        let svc = Service::new(config.clone()).unwrap();
        let id = open_one(&svc, None)[0].session;
        svc.handle(Request::Select { session: id });
        svc.flush_wal().unwrap();
        drop(svc);
        let revived = Service::new(config).unwrap();
        let Response::Status { pending, .. } = revived.handle(Request::Status { session: id })
        else {
            panic!("status failed");
        };
        assert_eq!(pending, 2, "group-committed effects must recover");
    }

    #[test]
    fn hello_negotiates_the_wire_version() {
        let svc = service();
        assert_eq!(
            svc.handle(Request::Hello { v: 1 }),
            Response::Welcome {
                v: 1,
                min: crate::protocol::WIRE_VERSION_MIN,
                max: crate::protocol::WIRE_VERSION_MAX,
            }
        );
        assert_eq!(
            svc.handle(Request::Hello { v: 99 }),
            Response::UnsupportedVersion {
                requested: 99,
                min: crate::protocol::WIRE_VERSION_MIN,
                max: crate::protocol::WIRE_VERSION_MAX,
            }
        );
    }

    #[test]
    fn handle_line_echoes_the_request_framing() {
        use serde::{Deserialize, Value};
        let svc = service();
        // Bare in, bare out — byte-identical to the pre-envelope wire.
        let bare = svc.handle_line(&crate::protocol::encode(&Request::Metrics));
        assert_eq!(bare, crate::protocol::encode(&svc.handle(Request::Metrics)));
        // Enveloped in, enveloped out, same version.
        let versioned = svc.handle_line(r#"{"v": 1, "body": "Metrics"}"#);
        let value: Value = serde_json::from_str(&versioned).unwrap();
        assert_eq!(value.get_field("v"), Some(&Value::Int(1)));
        assert!(value.get_field("body").is_some());
        // An unsupported version is refused with the supported range.
        let refused = svc.handle_line(r#"{"v": 7, "body": "Metrics"}"#);
        let value: Value = serde_json::from_str(&refused).unwrap();
        let body = value.get_field("body").unwrap();
        assert_eq!(
            Response::from_value(body).unwrap(),
            crate::protocol::unsupported_version(7)
        );
    }

    // ---- global budget scheduler ----------------------------------

    fn global_config(budget: u64) -> ServiceConfig {
        let mut config = base_config();
        config.budget_mode = BudgetMode::Global;
        config.global_budget = budget;
        config
    }

    fn open_entity(svc: &Service, spec: EntitySpec) -> u64 {
        let Response::Opened { sessions } = svc.handle(Request::Open {
            request: None,
            entities: vec![spec],
            k: None,
            budget: None,
            pc: None,
        }) else {
            panic!("open failed");
        };
        sessions[0].session
    }

    /// Near-certain marginals: tiny entropy, tiny marginal gain.
    fn easy_spec() -> EntitySpec {
        EntitySpec::simple("easy", vec![0.95, 0.9, 0.92], vec![true, true, true])
    }

    /// Coin-flip marginals: maximal entropy, maximal marginal gain.
    fn hard_spec() -> EntitySpec {
        EntitySpec::simple("hard", vec![0.5, 0.5, 0.5], vec![true, false, true])
    }

    fn absorb_all(svc: &Service, session: u64, tasks: &[PublishedTask]) {
        let answers: Vec<WA> = tasks
            .iter()
            .map(|t| WA {
                task: t.id,
                value: true,
            })
            .collect();
        let Response::Absorbed { pending, .. } = svc.handle(Request::Absorb { session, answers })
        else {
            panic!("absorb failed");
        };
        assert_eq!(pending, 0, "round must close");
    }

    #[test]
    fn global_mode_admits_by_descending_marginal_gain() {
        let svc = Service::new(global_config(40)).unwrap();
        let easy = open_entity(&svc, easy_spec());
        let hard = open_entity(&svc, hard_spec());
        // The scheduler prefers the high-entropy session...
        let Response::Budget {
            mode,
            budget,
            spent,
            next_session,
            ..
        } = svc.handle(Request::BudgetStatus)
        else {
            panic!("budget status failed");
        };
        assert_eq!((mode.as_str(), budget, spent), ("global", 40, 0));
        assert_eq!(next_session, Some(hard));
        // ...so selecting the easy one is deferred, naming the winner.
        assert_eq!(
            svc.handle(Request::Select { session: easy }),
            Response::Deferred {
                session: easy,
                preferred: Some(hard),
            }
        );
        // Select on the winner is admitted and charged to the pool.
        let Response::Round { session, tasks, .. } = svc.handle(Request::Select { session: hard })
        else {
            panic!("admitted select failed");
        };
        assert_eq!(session, hard);
        let Response::Budget { spent, .. } = svc.handle(Request::BudgetStatus) else {
            panic!("budget status failed");
        };
        assert_eq!(spent, tasks.len() as u64);
        // While the round is open the session is dequeued: the easy one
        // is now the scheduler's best.
        let Response::Budget { next_session, .. } = svc.handle(Request::BudgetStatus) else {
            panic!("budget status failed");
        };
        assert_eq!(next_session, Some(easy));
        // Re-selecting the busy session stays an idempotent pure read.
        let Response::Round { tasks: again, .. } = svc.handle(Request::Select { session: hard })
        else {
            panic!("re-select failed");
        };
        assert_eq!(again, tasks);
        // Absorbing the round re-queues it with a fresh gain.
        absorb_all(&svc, hard, &tasks);
        let Response::Budget { next_session, .. } = svc.handle(Request::BudgetStatus) else {
            panic!("budget status failed");
        };
        assert!(next_session.is_some());
    }

    #[test]
    fn equal_gains_break_ties_toward_the_lower_session_id() {
        let svc = Service::new(global_config(40)).unwrap();
        let first = open_entity(&svc, hard_spec());
        let second = open_entity(&svc, hard_spec());
        assert!(first < second);
        let Response::Budget { next_session, .. } = svc.handle(Request::BudgetStatus) else {
            panic!("budget status failed");
        };
        assert_eq!(next_session, Some(first));
    }

    #[test]
    fn schedule_drains_the_pool_then_reports_no_work() {
        // Pool of 2 with k=2: one admitted round spends everything.
        let svc = Service::new(global_config(2)).unwrap();
        let easy = open_entity(&svc, easy_spec());
        let hard = open_entity(&svc, hard_spec());
        let Response::Round { session, tasks, .. } =
            svc.handle(Request::Schedule { request: None })
        else {
            panic!("schedule failed");
        };
        assert_eq!(session, hard, "best gain first");
        assert_eq!(tasks.len(), 2);
        assert_eq!(
            svc.handle(Request::Schedule { request: None }),
            Response::NoWork { remaining: 0 }
        );
        // An exhausted pool defers every round-opening select too.
        assert_eq!(
            svc.handle(Request::Select { session: easy }),
            Response::Deferred {
                session: easy,
                preferred: None,
            }
        );
    }

    #[test]
    fn schedule_token_retries_reread_instead_of_recharging() {
        let svc = Service::new(global_config(40)).unwrap();
        open_entity(&svc, easy_spec());
        let hard = open_entity(&svc, hard_spec());
        let Response::Round { session, tasks, .. } =
            svc.handle(Request::Schedule { request: Some(9) })
        else {
            panic!("schedule failed");
        };
        assert_eq!(session, hard);
        let spent_once = {
            let Response::Budget { spent, .. } = svc.handle(Request::BudgetStatus) else {
                panic!("budget status failed");
            };
            spent
        };
        // Retry with the round still open: same round, same tasks, no
        // new charge, no second admission.
        let Response::Round {
            session: replayed,
            tasks: replayed_tasks,
            ..
        } = svc.handle(Request::Schedule { request: Some(9) })
        else {
            panic!("retry failed");
        };
        assert_eq!((replayed, &replayed_tasks), (hard, &tasks));
        // Retry after the round absorbed: empty task list says the
        // admission is complete.
        absorb_all(&svc, hard, &tasks);
        let Response::Round {
            tasks: done_tasks, ..
        } = svc.handle(Request::Schedule { request: Some(9) })
        else {
            panic!("post-absorb retry failed");
        };
        assert!(done_tasks.is_empty());
        let Response::Budget { spent, .. } = svc.handle(Request::BudgetStatus) else {
            panic!("budget status failed");
        };
        assert_eq!(spent, spent_once, "retries never re-charge");
    }

    #[test]
    fn schedule_requires_global_mode_and_status_aggregates_per_session() {
        let svc = service();
        let response = svc.handle(Request::Schedule { request: None });
        assert!(
            matches!(response, Response::Error { ref message } if message.contains("budget-mode")),
            "{response:?}"
        );
        // BudgetStatus still answers: the per-session aggregate.
        let id = open_one(&svc, None)[0].session;
        let Response::Budget {
            mode,
            budget,
            spent,
            remaining,
            next_session,
            ..
        } = svc.handle(Request::BudgetStatus)
        else {
            panic!("budget status failed");
        };
        assert_eq!(mode, "per-session");
        assert_eq!((budget, spent, remaining), (6, 0, 6));
        assert_eq!(next_session, None);
        let _ = id;
    }

    #[test]
    fn global_sched_state_survives_restart() {
        let dir = temp_dir("sched-restart");
        let mut config = global_config(40);
        config.durability = Some(DurabilityConfig::new(&dir));
        let svc = Service::new(config.clone()).unwrap();
        open_entity(&svc, easy_spec());
        let hard = open_entity(&svc, hard_spec());
        let Response::Round { session, tasks, .. } =
            svc.handle(Request::Schedule { request: Some(3) })
        else {
            panic!("schedule failed");
        };
        assert_eq!(session, hard);
        let before = svc.handle(Request::BudgetStatus);
        // No shutdown, no drain: the journal alone must carry the
        // ledger (recharged from the replayed Schedule effect), the
        // admission mark, and the material to rebuild the queue.
        drop(svc);
        let revived = Service::new(config).unwrap();
        assert_eq!(revived.handle(Request::BudgetStatus), before);
        // The admitted round survives and the token still re-reads it.
        let Response::Round {
            session: replayed,
            tasks: replayed_tasks,
            ..
        } = revived.handle(Request::Schedule { request: Some(3) })
        else {
            panic!("post-restart retry failed");
        };
        assert_eq!((replayed, &replayed_tasks), (hard, &tasks));
    }
}
