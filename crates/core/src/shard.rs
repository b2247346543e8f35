//! Lock-striped session registry: the one registry behind the serving
//! daemon and the offline reference replays.
//!
//! [`ShardedRegistry`] holds many [`SessionState`]s in N shards, each
//! behind its own mutex, so select/absorb traffic on different sessions
//! proceeds in parallel. Sessions are hashed to shards by the cheapest
//! stable function there is — `session_id % shard_count` — which the
//! determinism story depends on *not at all*: shard placement only decides
//! which lock serialises a session's operations, never what those
//! operations compute. A 1-shard registry is the single-map reference the
//! wider stripings are tested against.
//!
//! **Determinism contract.** Everything observable is assembled in
//! ascending *global session-id* order, whatever the shard count:
//!
//! * [`ShardedRegistry::snapshot`] merges per-shard sessions into one
//!   globally id-sorted [`RegistrySnapshot`], which is therefore
//!   **shard-count independent**: a snapshot taken at 8 shards restores
//!   into 2 (or 1) without loss;
//! * [`ShardedRegistry::trace`] and [`ShardedRegistry::metrics`] fold
//!   sessions in id order, so floating-point sums associate identically;
//! * the master RNG and session-id counter stay global (one mutex): seeds
//!   are drawn in open order, the same schedule the offline
//!   `run_sharded` draws for its entities.
//!
//! Lock hierarchy (a cycle-free acquisition order): `master` → shard
//! mutexes in ascending index. Per-session operations take only the
//! owning shard's lock; opens take `master` and then touch shards one at
//! a time; whole-registry reads (snapshot/trace/metrics) take `master`
//! followed by every shard in index order.

use crate::pool::Pool;
use crate::round::RoundConfig;
use crate::selection::TaskSelector;
use crate::session::{
    AbsorbReport, EntitySpec, NumberedSnapshot, OpenedSession, RegistryMetrics, RegistrySnapshot,
    SelectOutcome, SessionState,
};
use crate::system::{assemble_trace, EntitySeries, ExperimentTrace};
use crate::CoreError;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// The global (un-sharded) half of the registry: the seed schedule.
struct Master {
    rng: StdRng,
    next_index: u64,
}

/// One shard: the sessions whose id hashes here.
type Shard = BTreeMap<u64, SessionState>;

/// A session registry striped over N locks. See the module docs for the
/// determinism contract and lock hierarchy.
pub struct ShardedRegistry {
    pool: Pool,
    defaults: RoundConfig,
    master: Mutex<Master>,
    shards: Vec<Mutex<Shard>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic mid-apply can only come from a library bug (session apply is
    // pure computation); propagating the poison as a panic is the honest
    // failure mode.
    m.lock().expect("sharded registry lock poisoned")
}

impl ShardedRegistry {
    /// Creates a registry striped over `shard_count` locks (clamped to at
    /// least 1) with the given master seed, defaults and worker pool.
    pub fn new(
        seed: u64,
        defaults: RoundConfig,
        pool: Pool,
        shard_count: usize,
    ) -> ShardedRegistry {
        let shard_count = shard_count.max(1);
        ShardedRegistry {
            pool,
            defaults,
            master: Mutex::new(Master {
                rng: StdRng::seed_from_u64(seed),
                next_index: 0,
            }),
            shards: (0..shard_count).map(|_| Mutex::new(Shard::new())).collect(),
        }
    }

    /// The registry's worker pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The default round configuration.
    pub fn defaults(&self) -> RoundConfig {
        self.defaults
    }

    /// Number of shards (lock stripes).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns a session id.
    fn shard_of(&self, session: u64) -> &Mutex<Shard> {
        &self.shards[(session % self.shards.len() as u64) as usize]
    }

    /// Opens one session per spec: priors built in parallel on the pool,
    /// then ids and `(answer_seed, selector_seed)` pairs drawn from the
    /// global master RNG in spec order — the identical schedule at every
    /// shard count. Atomic: a failing spec opens nothing and draws no seed.
    pub fn open_batch(
        &self,
        specs: Vec<EntitySpec>,
        config: Option<RoundConfig>,
    ) -> Result<Vec<OpenedSession>, CoreError> {
        for spec in &specs {
            spec.validate()?;
        }
        let config = config.unwrap_or(self.defaults);
        let cases = self.pool.map_reduce(
            specs.len(),
            |i| specs[i].clone().into_case(),
            Ok(Vec::with_capacity(specs.len())),
            |acc: Result<Vec<_>, CoreError>, case| {
                let mut acc = acc?;
                acc.push(case?);
                Ok(acc)
            },
        )?;
        let mut master = lock(&self.master);
        let mut opened = Vec::with_capacity(cases.len());
        for case in cases {
            let answer_seed = master.rng.next_u64();
            let selector_seed = master.rng.next_u64();
            let id = master.next_index;
            master.next_index += 1;
            let state = SessionState::new(case, config, selector_seed, id << 32)?;
            // `new` has just measured the prior; entropy is its negation.
            let utility = state.series().prior_utility;
            opened.push(OpenedSession {
                session: id,
                name: state.name().to_string(),
                facts: state.num_facts(),
                answer_seed,
                utility,
                entropy: -utility,
            });
            lock(self.shard_of(id)).insert(id, state);
        }
        Ok(opened)
    }

    /// Runs the *select* phase on one session (owning shard lock only).
    pub fn select(
        &self,
        session: u64,
        selector: &dyn TaskSelector,
    ) -> Result<SelectOutcome, CoreError> {
        self.select_capped(session, selector, None)
    }

    /// Runs the *select* phase on one session under an external task cap
    /// (see [`SessionState::select_capped`]; owning shard lock only).
    pub fn select_capped(
        &self,
        session: u64,
        selector: &dyn TaskSelector,
        cap: Option<usize>,
    ) -> Result<SelectOutcome, CoreError> {
        let mut shard = lock(self.shard_of(session));
        shard
            .get_mut(&session)
            .ok_or(CoreError::UnknownSession { session })?
            .select_capped(selector, cap)
    }

    /// Ingests answers into one session (owning shard lock only).
    pub fn absorb(&self, session: u64, answers: &[(u64, bool)]) -> Result<AbsorbReport, CoreError> {
        let mut shard = lock(self.shard_of(session));
        shard
            .get_mut(&session)
            .ok_or(CoreError::UnknownSession { session })?
            .absorb(answers)
    }

    /// Removes a session, returning its final state. The master RNG is
    /// untouched: the seed schedule continues as if the session lived.
    pub fn evict(&self, session: u64) -> Result<SessionState, CoreError> {
        lock(self.shard_of(session))
            .remove(&session)
            .ok_or(CoreError::UnknownSession { session })
    }

    /// Reads one session under its shard lock.
    pub fn with_session<R>(
        &self,
        session: u64,
        f: impl FnOnce(&SessionState) -> R,
    ) -> Result<R, CoreError> {
        let shard = lock(self.shard_of(session));
        shard
            .get(&session)
            .map(f)
            .ok_or(CoreError::UnknownSession { session })
    }

    /// Number of live sessions (sums shard sizes).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Session ids in ascending global order.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| lock(s).keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The registry-wide quality-vs-cost trace, assembled over sessions in
    /// ascending id order — bit-identical at every shard count.
    pub fn trace(&self, selector: String) -> ExperimentTrace {
        let mut series: Vec<(u64, EntitySeries)> = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            series.extend(shard.iter().map(|(&id, s)| (id, s.series().clone())));
        }
        series.sort_by_key(|(id, _)| *id);
        let series: Vec<EntitySeries> = series.into_iter().map(|(_, s)| s).collect();
        assemble_trace(&series, selector)
    }

    /// Aggregate metrics, folded in ascending session-id order so the
    /// floating-point utility sum is the same at every shard count.
    pub fn metrics(&self) -> RegistryMetrics {
        // (open round?, rounds, spent, remaining, utility) per session id.
        type Counters = (bool, usize, usize, usize, f64);
        let mut rows: Vec<(u64, Counters)> = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            rows.extend(shard.iter().map(|(&id, s)| {
                (
                    id,
                    (
                        s.has_open_round(),
                        s.rounds(),
                        s.spent(),
                        s.remaining(),
                        s.utility(),
                    ),
                )
            }));
        }
        rows.sort_by_key(|(id, _)| *id);
        let mut m = RegistryMetrics {
            sessions: rows.len() as u64,
            open_rounds: 0,
            rounds: 0,
            judgments: 0,
            remaining: 0,
            utility: 0.0,
        };
        for (_, (open, rounds, spent, remaining, utility)) in rows {
            m.open_rounds += u64::from(open);
            m.rounds += rounds as u64;
            m.judgments += spent as u64;
            m.remaining += remaining as u64;
            m.utility += utility;
        }
        m
    }

    /// Serialises the whole registry ([`RegistrySnapshot`], sessions
    /// globally id-sorted): shard count is a runtime tuning knob, never a
    /// persistence concern, so a snapshot taken at any shard count restores
    /// at any other.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let master = lock(&self.master);
        let mut sessions: Vec<NumberedSnapshot> = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            sessions.extend(shard.iter().map(|(&session, state)| NumberedSnapshot {
                session,
                snapshot: state.snapshot(),
            }));
        }
        sessions.sort_by_key(|n| n.session);
        RegistrySnapshot {
            master_state: master.rng.state(),
            next_index: master.next_index,
            defaults: self.defaults,
            sessions,
        }
    }

    /// Rebuilds a registry from a snapshot, striping sessions over
    /// `shard_count` locks — which need not match the count the snapshot
    /// was taken under.
    ///
    /// Besides each session's own checks, the defaults must pass
    /// [`RoundConfig::new`] (later `Open`s inherit them) and session ids
    /// must be unique and below `next_index` (the next `Open` would
    /// otherwise replace a restored session).
    pub fn from_snapshot(
        snap: RegistrySnapshot,
        pool: Pool,
        shard_count: usize,
    ) -> Result<ShardedRegistry, CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidSnapshot(reason));
        if let Err(e) = snap.defaults.checked() {
            return invalid(format!("registry defaults: {e}"));
        }
        let registry = ShardedRegistry::new(0, snap.defaults, pool, shard_count);
        {
            let mut master = lock(&registry.master);
            master.rng = StdRng::from_state(snap.master_state);
            master.next_index = snap.next_index;
        }
        for numbered in snap.sessions {
            let id = numbered.session;
            if id >= snap.next_index {
                return invalid(format!(
                    "session id {id} at or above the next index {}",
                    snap.next_index
                ));
            }
            let state = SessionState::from_snapshot(numbered.snapshot)?;
            if lock(registry.shard_of(id)).insert(id, state).is_some() {
                return invalid(format!("session id {id} listed twice"));
            }
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::GreedySelector;

    fn specs() -> Vec<EntitySpec> {
        vec![
            EntitySpec::simple("a", vec![0.5, 0.6, 0.7], vec![true, false, true]),
            EntitySpec::simple("b", vec![0.3, 0.8], vec![false, true]),
            EntitySpec::simple(
                "c",
                vec![0.55, 0.45, 0.6, 0.7],
                vec![true, true, false, true],
            ),
        ]
    }

    fn config() -> RoundConfig {
        RoundConfig::new(2, 6, 0.8).unwrap()
    }

    /// Drives a 1-shard registry and a wider one through the same workload
    /// and compares every observable surface.
    #[test]
    fn sharded_registry_matches_the_single_map_registry_bit_for_bit() {
        let selector = GreedySelector::fast();
        for shard_count in [2usize, 3, 8] {
            let single = ShardedRegistry::new(42, config(), Pool::serial(), 1);
            let sharded = ShardedRegistry::new(42, config(), Pool::serial(), shard_count);

            let a = single.open_batch(specs(), None).unwrap();
            let b = sharded.open_batch(specs(), None).unwrap();
            assert_eq!(a, b, "open summaries must match at {shard_count} shards");

            for &id in &[0u64, 1, 2] {
                loop {
                    let s1 = single.select(id, &selector).unwrap();
                    let s2 = sharded.select(id, &selector).unwrap();
                    let round = match (&s1, &s2) {
                        (SelectOutcome::Exhausted, SelectOutcome::Exhausted) => break,
                        (SelectOutcome::Round(r1), SelectOutcome::Round(r2)) => {
                            assert_eq!(r1, r2);
                            r1.clone()
                        }
                        other => panic!("outcomes diverged: {other:?}"),
                    };
                    let answers: Vec<(u64, bool)> = round
                        .tasks
                        .iter()
                        .map(|t| (t.id, t.fact % 2 == 0))
                        .collect();
                    let r1 = single.absorb(id, &answers).unwrap();
                    let r2 = sharded.absorb(id, &answers).unwrap();
                    assert_eq!(r1, r2);
                }
            }

            assert_eq!(single.metrics(), sharded.metrics());
            assert_eq!(
                single.trace("greedy".into()),
                sharded.trace("greedy".into())
            );
            assert_eq!(single.snapshot(), sharded.snapshot());
            assert_eq!(single.ids(), sharded.ids());
        }
    }

    #[test]
    fn snapshots_are_shard_count_independent() {
        let selector = GreedySelector::fast();
        let sharded = ShardedRegistry::new(7, config(), Pool::serial(), 8);
        sharded.open_batch(specs(), None).unwrap();
        for id in [0u64, 1, 2] {
            if let SelectOutcome::Round(round) = sharded.select(id, &selector).unwrap() {
                // Absorb only half the round: the open partial round must
                // survive the re-striping.
                let half: Vec<(u64, bool)> =
                    round.tasks.iter().take(1).map(|t| (t.id, true)).collect();
                sharded.absorb(id, &half).unwrap();
            }
        }
        let snap = sharded.snapshot();
        // Restore at a different stripe width, then confirm the restored
        // registry re-snapshots to the identical bytes.
        let restored = ShardedRegistry::from_snapshot(snap.clone(), Pool::serial(), 2).unwrap();
        assert_eq!(restored.shard_count(), 2);
        assert_eq!(restored.snapshot(), snap);
        // And future opens continue the master seed schedule identically.
        let more_a = restored.open_batch(vec![specs()[0].clone()], None).unwrap();
        let from_eight = ShardedRegistry::from_snapshot(snap, Pool::serial(), 8).unwrap();
        let more_b = from_eight
            .open_batch(vec![specs()[0].clone()], None)
            .unwrap();
        assert_eq!(more_a, more_b);
    }

    #[test]
    fn restore_rejects_bad_defaults_and_bad_session_ids() {
        let registry = ShardedRegistry::new(7, config(), Pool::serial(), 2);
        registry.open_batch(specs(), None).unwrap();
        let good = registry.snapshot();
        let rejected = |snap: RegistrySnapshot| {
            matches!(
                ShardedRegistry::from_snapshot(snap, Pool::serial(), 2),
                Err(CoreError::InvalidSnapshot(_))
            )
        };
        // Defaults every later `Open` would inherit.
        for (k, pc) in [(0, 0.8), (2, 3.0), (0, 3.0), (2, f64::NAN)] {
            let mut snap = good.clone();
            snap.defaults.k = k;
            snap.defaults.pc_assumed = pc;
            assert!(rejected(snap), "defaults k {k} pc {pc} restored");
        }
        // A session id the next `Open` would be handed again.
        let mut snap = good.clone();
        snap.sessions[2].session = snap.next_index;
        assert!(rejected(snap));
        let mut snap = good.clone();
        snap.next_index = 2;
        assert!(rejected(snap));
        // The same id twice: one of the two sessions would vanish.
        let mut snap = good.clone();
        snap.sessions[1].session = 0;
        assert!(rejected(snap));
        // The untouched snapshot still restores.
        assert!(ShardedRegistry::from_snapshot(good, Pool::serial(), 2).is_ok());
    }

    #[test]
    fn eviction_keeps_the_seed_schedule() {
        let sharded = ShardedRegistry::new(11, config(), Pool::serial(), 4);
        let shadow = ShardedRegistry::new(11, config(), Pool::serial(), 4);
        sharded.open_batch(specs(), None).unwrap();
        shadow.open_batch(specs(), None).unwrap();
        // Eviction hands back the session's final state.
        assert_eq!(sharded.evict(1).unwrap().name(), "b");
        assert!(matches!(
            sharded.evict(1),
            Err(CoreError::UnknownSession { session: 1 })
        ));
        assert_eq!(sharded.len(), 2);
        assert_eq!(sharded.ids(), vec![0, 2]);
        // The next open draws the same seeds whether or not an eviction
        // happened in between.
        let a = sharded.open_batch(vec![specs()[1].clone()], None).unwrap();
        let b = shadow.open_batch(vec![specs()[1].clone()], None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_cross_shard_traffic_is_safe_and_deterministic() {
        use std::sync::Arc;
        let sharded = Arc::new(ShardedRegistry::new(3, config(), Pool::serial(), 4));
        let many: Vec<EntitySpec> = (0..16)
            .map(|i| {
                EntitySpec::simple(
                    format!("e{i}"),
                    vec![0.4, 0.6, 0.55],
                    vec![true, false, true],
                )
            })
            .collect();
        sharded.open_batch(many, None).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let registry = Arc::clone(&sharded);
            handles.push(std::thread::spawn(move || {
                let selector = GreedySelector::fast();
                // Each thread drives a disjoint quarter of the sessions.
                for id in (t..16).step_by(4) {
                    while let SelectOutcome::Round(round) = registry.select(id, &selector).unwrap()
                    {
                        let answers: Vec<(u64, bool)> =
                            round.tasks.iter().map(|x| (x.id, true)).collect();
                        registry.absorb(id, &answers).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Reference: the same workload, serially, on a 1-shard registry.
        let single = ShardedRegistry::new(3, config(), Pool::serial(), 1);
        let many: Vec<EntitySpec> = (0..16)
            .map(|i| {
                EntitySpec::simple(
                    format!("e{i}"),
                    vec![0.4, 0.6, 0.55],
                    vec![true, false, true],
                )
            })
            .collect();
        single.open_batch(many, None).unwrap();
        let selector = GreedySelector::fast();
        for id in 0..16u64 {
            while let SelectOutcome::Round(round) = single.select(id, &selector).unwrap() {
                let answers: Vec<(u64, bool)> = round.tasks.iter().map(|x| (x.id, true)).collect();
                single.absorb(id, &answers).unwrap();
            }
        }
        assert_eq!(
            single.trace("greedy".into()),
            sharded.trace("greedy".into())
        );
        assert_eq!(single.snapshot(), sharded.snapshot());
    }
}
