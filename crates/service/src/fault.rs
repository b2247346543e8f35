//! Deterministic fault injection for the durability layer.
//!
//! A [`FaultPlan`] is a schedule: "the Nth time execution reaches fault
//! point P, do action A". The durability code calls [`FaultPlan::check`]
//! at each instrumented point; production services carry
//! [`FaultPlan::none`], which compiles down to an always-`None` branch.
//! Because the schedule keys on (point, occurrence-count) rather than
//! time or randomness, a chaos test replays the exact same failure at the
//! exact same operation every run — which is what lets the `chaos` suite
//! assert byte-identical recovery rather than "usually recovers".
//!
//! A *crash* here is simulated: the instrumented call returns a
//! [`SimulatedCrash`] error that unwinds out of the service. The chaos
//! harness treats it as process death — it drops the service value on the
//! floor (no destructors run the drain path; the journal file is simply
//! left wherever the OS-visible writes got to) and re-opens the
//! durability directory, exactly as a restarted daemon would.
//!
//! Occurrence counters live behind an [`Arc`], so cloning a plan into a
//! rebuilt service resumes counting where the crashed incarnation left
//! off — a plan that kills the first snapshot write does not also kill
//! the first snapshot write of every recovery.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Instrumented points in the durability and transport code, in the order
/// a single mutating request would reach them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultPoint {
    /// A journal record is about to be written (before any bytes land).
    JournalAppend,
    /// Journalled appends are about to be fsynced (checked only when
    /// appends are pending).
    JournalSync,
    /// A journaled effect is about to be applied to in-memory state.
    EffectApply,
    /// The snapshot temp file is about to be written.
    SnapshotWrite,
    /// The snapshot temp file is about to be renamed over the live one.
    SnapshotRename,
    /// The journal is about to be truncated after a durable snapshot.
    JournalTruncate,
    /// A connection is about to hand a decoded line to the service.
    ConnectionRead,
}

impl FaultPoint {
    /// Stable name used in test matrices and failure messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::JournalAppend => "journal-append",
            FaultPoint::JournalSync => "journal-sync",
            FaultPoint::EffectApply => "effect-apply",
            FaultPoint::SnapshotWrite => "snapshot-write",
            FaultPoint::SnapshotRename => "snapshot-rename",
            FaultPoint::JournalTruncate => "journal-truncate",
            FaultPoint::ConnectionRead => "connection-read",
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Die here: the operation returns [`SimulatedCrash`] without doing
    /// its work (for write points, after writing whatever `Torn` left).
    Crash,
    /// Write only the first `keep_bytes` of the payload, then crash — a
    /// torn write, as when power fails mid-`write(2)`.
    Torn {
        /// Bytes of the payload that land before the crash.
        keep_bytes: usize,
    },
    /// Drop the operation silently (connection points: close the socket).
    Drop,
}

/// The trigger condition for one rule: fire when the point's occurrence
/// counter (1-based) equals `occurrence`.
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    occurrence: u64,
    action: FaultAction,
}

/// The error a simulated crash surfaces as. Carries the point so chaos
/// assertions can verify the right fault actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulatedCrash {
    /// Where the crash was injected.
    pub point: FaultPoint,
}

impl fmt::Display for SimulatedCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulated crash at fault point `{}`", self.point)
    }
}

impl std::error::Error for SimulatedCrash {}

impl From<SimulatedCrash> for std::io::Error {
    fn from(crash: SimulatedCrash) -> std::io::Error {
        std::io::Error::other(crash)
    }
}

/// True when `err` is an injected [`SimulatedCrash`] rather than a real
/// I/O failure — the chaos harness keys its "treat as process death"
/// behaviour off this.
pub fn is_simulated_crash(err: &std::io::Error) -> bool {
    as_simulated_crash(err).is_some()
}

/// Recovers the [`SimulatedCrash`] an `io::Error` wraps, if any.
pub fn as_simulated_crash(err: &std::io::Error) -> Option<SimulatedCrash> {
    err.get_ref()
        .and_then(|inner| inner.downcast_ref::<SimulatedCrash>())
        .cloned()
}

struct PlanState {
    rules: Mutex<BTreeMap<FaultPoint, Vec<FaultRule>>>,
    counters: Mutex<BTreeMap<FaultPoint, u64>>,
    fired: AtomicU64,
}

/// A shared, deterministic fault schedule. Cloning shares rules and
/// occurrence counters (see module docs for why that matters across
/// crash/recovery cycles).
#[derive(Clone)]
pub struct FaultPlan {
    state: Arc<PlanState>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("fired", &self.fired())
            .finish()
    }
}

impl FaultPlan {
    /// The empty plan: every `check` returns `None`.
    pub fn none() -> FaultPlan {
        FaultPlan {
            state: Arc::new(PlanState {
                rules: Mutex::new(BTreeMap::new()),
                counters: Mutex::new(BTreeMap::new()),
                fired: AtomicU64::new(0),
            }),
        }
    }

    /// Builder: fire `action` the `occurrence`-th (1-based) time execution
    /// reaches `point`.
    pub fn on(self, point: FaultPoint, occurrence: u64, action: FaultAction) -> FaultPlan {
        assert!(occurrence >= 1, "occurrences are 1-based");
        self.state
            .rules
            .lock()
            .expect("fault plan poisoned")
            .entry(point)
            .or_default()
            .push(FaultRule { occurrence, action });
        self
    }

    /// Counts this arrival at `point` and returns the scheduled action, if
    /// any rule's occurrence matches.
    pub fn check(&self, point: FaultPoint) -> Option<FaultAction> {
        let count = {
            let mut counters = self.state.counters.lock().expect("fault plan poisoned");
            let slot = counters.entry(point).or_insert(0);
            *slot += 1;
            *slot
        };
        let rules = self.state.rules.lock().expect("fault plan poisoned");
        let hit = rules
            .get(&point)?
            .iter()
            .find(|r| r.occurrence == count)
            .map(|r| r.action);
        if hit.is_some() {
            self.state.fired.fetch_add(1, Ordering::SeqCst);
        }
        hit
    }

    /// Convenience for crash-only points: returns `Err(SimulatedCrash)` if
    /// a `Crash` is scheduled here. `Torn`/`Drop` at a crash-only point is
    /// a plan bug and panics loudly rather than being silently ignored.
    pub fn crash_if_scheduled(&self, point: FaultPoint) -> Result<(), SimulatedCrash> {
        match self.check(point) {
            None => Ok(()),
            Some(FaultAction::Crash) => Err(SimulatedCrash { point }),
            Some(other) => panic!("fault point `{point}` cannot honour {other:?}"),
        }
    }

    /// How many scheduled faults have fired so far. Chaos tests assert
    /// this matches the plan, so a fault that never triggered (wrong
    /// occurrence count, dead code path) fails the test instead of
    /// silently weakening it.
    pub fn fired(&self) -> u64 {
        self.state.fired.load(Ordering::SeqCst)
    }

    /// How many times execution has reached `point` (fired or not).
    pub fn arrivals(&self, point: FaultPoint) -> u64 {
        *self
            .state
            .counters
            .lock()
            .expect("fault plan poisoned")
            .get(&point)
            .unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        for _ in 0..10 {
            assert_eq!(plan.check(FaultPoint::JournalAppend), None);
        }
        assert_eq!(plan.fired(), 0);
        assert_eq!(plan.arrivals(FaultPoint::JournalAppend), 10);
    }

    #[test]
    fn rule_fires_on_exact_occurrence_only() {
        let plan = FaultPlan::none().on(FaultPoint::SnapshotWrite, 3, FaultAction::Crash);
        assert_eq!(plan.check(FaultPoint::SnapshotWrite), None);
        assert_eq!(plan.check(FaultPoint::SnapshotWrite), None);
        assert_eq!(
            plan.check(FaultPoint::SnapshotWrite),
            Some(FaultAction::Crash)
        );
        assert_eq!(plan.check(FaultPoint::SnapshotWrite), None);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn clones_share_counters_across_recovery() {
        let plan = FaultPlan::none().on(FaultPoint::JournalAppend, 2, FaultAction::Crash);
        assert_eq!(plan.check(FaultPoint::JournalAppend), None);
        // "Recovered service" gets a clone; the next arrival is the 2nd.
        let recovered = plan.clone();
        assert_eq!(
            recovered.check(FaultPoint::JournalAppend),
            Some(FaultAction::Crash)
        );
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn points_count_independently() {
        let plan = FaultPlan::none().on(FaultPoint::EffectApply, 1, FaultAction::Crash);
        assert_eq!(plan.check(FaultPoint::JournalAppend), None);
        assert_eq!(
            plan.check(FaultPoint::EffectApply),
            Some(FaultAction::Crash)
        );
    }

    #[test]
    fn crash_if_scheduled_surfaces_the_point() {
        let plan = FaultPlan::none().on(FaultPoint::EffectApply, 1, FaultAction::Crash);
        let err = plan
            .crash_if_scheduled(FaultPoint::EffectApply)
            .unwrap_err();
        assert_eq!(err.point, FaultPoint::EffectApply);
        assert!(err.to_string().contains("effect-apply"));
    }

    #[test]
    fn simulated_crash_survives_io_error_wrapping() {
        let err: std::io::Error = SimulatedCrash {
            point: FaultPoint::JournalAppend,
        }
        .into();
        assert!(is_simulated_crash(&err));
        let real = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        assert!(!is_simulated_crash(&real));
    }

    #[test]
    #[should_panic(expected = "cannot honour")]
    fn torn_at_crash_only_point_is_a_plan_bug() {
        let plan = FaultPlan::none().on(
            FaultPoint::EffectApply,
            1,
            FaultAction::Torn { keep_bytes: 4 },
        );
        let _ = plan.crash_if_scheduled(FaultPoint::EffectApply);
    }
}
