//! Durability: auto-snapshot + journal = crash-safe daemon state.
//!
//! A durable daemon owns one directory holding two files:
//!
//! * `snapshot.json` — a [`DurableSnapshot`]: the full registry snapshot,
//!   the idempotency ledger of completed `Open`s, and `applied_seq`, the
//!   last journal sequence the snapshot covers.
//! * `wal.log` — the framed effect journal (see [`crate::journal`]) of
//!   everything applied after that snapshot.
//!
//! **Invariant:** on-disk state always reconstructs in-memory state.
//! Every mutation is journalled before it is applied; snapshots are
//! written to a `.tmp` sibling, fsynced, renamed over the live file, the
//! directory is fsynced, and only *then* is the journal truncated. Each crash window therefore
//! recovers:
//!
//! * before the journal append — the effect never happened;
//! * between append and apply — replay applies it (a journalled effect
//!   that *failed* to apply fails identically on replay: application is
//!   deterministic, so journalling attempted mutations is consistent);
//! * during the snapshot tmp write — garbage `.tmp`, previous
//!   snapshot + full journal still present;
//! * between rename and journal truncate — the new snapshot's
//!   `applied_seq` makes replay skip every journal record it covers.
//!
//! Sequence numbers are monotone across the daemon's whole life (they do
//! not reset at truncation), so a stale journal can never replay into a
//! newer snapshot.

use crate::fault::FaultPlan;
use crate::journal::{read_journal, JournalWriter, Record};
use crate::sched::SchedSnapshot;
use crowdfusion_core::session::{OpenedSession, RegistrySnapshot};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::io;
use std::path::{Path, PathBuf};

/// The snapshot file inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// The journal file inside a durability directory.
pub const JOURNAL_FILE: &str = "wal.log";

/// Tuning for the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The directory owning `snapshot.json` and `wal.log` (created if
    /// absent).
    pub dir: PathBuf,
    /// Auto-snapshot (and truncate the journal) after this many applied
    /// effects. `0` disables auto-snapshots: the journal grows until
    /// shutdown's final snapshot.
    pub snapshot_every: usize,
    /// Fsync the journal every this-many appends (min 1). Ignored when
    /// `group_commit` is on.
    pub sync_every: usize,
    /// Group commit: appends never fsync inline; the transport calls
    /// `Service::flush_wal` once per ready-batch, so one fsync covers
    /// every shard's pending appends. Journal-before-apply ordering is
    /// untouched — the record is *written* before the effect applies;
    /// only its durability is batched. Snapshots still sync the journal
    /// first, so the recovery invariant holds at every cadence point.
    pub group_commit: bool,
}

impl DurabilityConfig {
    /// Defaults: snapshot every 256 effects, fsync every append, no
    /// group commit.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: 256,
            sync_every: 1,
            group_commit: false,
        }
    }
}

/// One completed `Open` in the idempotency ledger: a retry carrying
/// `request` gets `sessions` back instead of opening duplicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedOpen {
    /// The client's idempotency token.
    pub request: u64,
    /// The original `Opened` payload.
    pub sessions: Vec<OpenedSession>,
}

/// Everything a restarted daemon needs, as one JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableSnapshot {
    /// Last journal sequence this snapshot covers; replay skips records
    /// at or below it.
    pub applied_seq: u64,
    /// The whole registry (posteriors, ledgers, RNG states, open rounds).
    pub registry: RegistrySnapshot,
    /// The idempotency ledger, ascending by request id.
    pub opens: Vec<CompletedOpen>,
    /// Global-scheduler state (ledger + admission marks), present only
    /// when the daemon runs `--budget-mode global`.
    pub sched: Option<SchedSnapshot>,
}

// Hand-rolled: the `sched` field is *omitted* (not serialised as null)
// when absent, so per-session daemons write snapshots byte-identical to
// the pre-scheduler format — and can read snapshots from either era.
impl Serialize for DurableSnapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("applied_seq".to_string(), self.applied_seq.to_value()),
            ("registry".to_string(), self.registry.to_value()),
            ("opens".to_string(), self.opens.to_value()),
        ];
        if let Some(sched) = &self.sched {
            fields.push(("sched".to_string(), sched.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for DurableSnapshot {
    fn from_value(v: &Value) -> Result<DurableSnapshot, SerdeError> {
        if v.as_map().is_none() {
            return Err(SerdeError::custom(format!(
                "expected an object, found {}",
                v.kind()
            )));
        }
        let field = |name: &str| v.get_field(name).unwrap_or(&Value::Null);
        Ok(DurableSnapshot {
            applied_seq: Deserialize::from_value(field("applied_seq"))?,
            registry: Deserialize::from_value(field("registry"))?,
            opens: Deserialize::from_value(field("opens"))?,
            sched: match v.get_field("sched") {
                None | Some(Value::Null) => None,
                Some(value) => Some(Deserialize::from_value(value)?),
            },
        })
    }
}

/// What [`recover`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// The durable snapshot, if one was ever completed.
    pub snapshot: Option<DurableSnapshot>,
    /// Journal records to replay (already filtered to
    /// `seq > snapshot.applied_seq`).
    pub replay: Vec<Record>,
    /// Whether the journal carried a torn tail (dropped).
    pub torn: bool,
    /// Byte length of the journal's valid prefix.
    pub valid_len: u64,
    /// Highest sequence represented on disk (snapshot or journal); fresh
    /// appends continue above it.
    pub last_seq: u64,
}

/// Reads the durable state out of `dir` (creating the directory when
/// absent — first boot). A corrupt `snapshot.json` is a hard error:
/// snapshots only ever land complete (tmp + rename), so corruption there
/// means real damage that silently discarding would turn into data loss.
/// A torn journal tail is expected damage and is dropped.
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    std::fs::create_dir_all(dir)?;
    let snapshot = match std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
        Ok(text) => Some(
            crate::protocol::decode::<DurableSnapshot>(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt durable snapshot: {e}"),
                )
            })?,
        ),
        Err(err) if err.kind() == io::ErrorKind::NotFound => None,
        Err(err) => return Err(err),
    };
    let applied_seq = snapshot.as_ref().map_or(0, |s| s.applied_seq);
    let contents = read_journal(&dir.join(JOURNAL_FILE))?;
    let replay: Vec<Record> = contents
        .records
        .into_iter()
        .filter(|r| r.seq > applied_seq)
        .collect();
    let last_seq = replay.last().map_or(applied_seq, |r| r.seq);
    Ok(Recovery {
        snapshot,
        replay,
        torn: contents.torn,
        valid_len: contents.valid_len,
        last_seq,
    })
}

/// The live durability engine: owns the journal writer and the snapshot
/// cadence. The service journals through it before every apply and hands
/// it fresh [`DurableSnapshot`]s when one is due.
pub struct Durability {
    config: DurabilityConfig,
    writer: JournalWriter,
    next_seq: u64,
    since_snapshot: usize,
    faults: FaultPlan,
}

impl Durability {
    /// Opens the journal for appending after [`recover`], truncating any
    /// torn tail so fresh frames land on a record boundary.
    pub fn open(
        config: DurabilityConfig,
        faults: FaultPlan,
        recovery: &Recovery,
    ) -> io::Result<Durability> {
        // Group commit defers every fsync to the explicit sync() the
        // transport drives once per ready-batch.
        let sync_every = if config.group_commit {
            usize::MAX
        } else {
            config.sync_every
        };
        let writer = JournalWriter::open(
            &config.dir.join(JOURNAL_FILE),
            recovery.valid_len,
            sync_every,
            faults.clone(),
        )?;
        Ok(Durability {
            config,
            writer,
            next_seq: recovery.last_seq + 1,
            since_snapshot: 0,
            faults,
        })
    }

    /// Journals one effect, assigning it the next sequence. Once this
    /// returns (and the batched fsync lands) the effect survives a crash.
    pub fn journal(&mut self, effect: crate::journal::Effect) -> io::Result<u64> {
        let seq = self.next_seq;
        self.writer.append(&Record { seq, effect })?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// The last sequence journalled (what a snapshot taken now covers).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Records that a journalled effect was applied; returns whether the
    /// auto-snapshot cadence says a snapshot is now due.
    pub fn effect_applied(&mut self) -> bool {
        self.since_snapshot += 1;
        self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every
    }

    /// Writes `snapshot` durably (tmp → fsync → rename → directory fsync)
    /// and truncates the journal it supersedes. On any error the previous snapshot and the
    /// journal are still intact — recovery works from them.
    pub fn snapshot_now(&mut self, snapshot: &DurableSnapshot) -> io::Result<()> {
        // The journal must be durable before the snapshot claims to cover
        // it (a crash mid-snapshot falls back to snapshot' + journal).
        self.writer.sync()?;
        let text = crate::protocol::encode(snapshot);
        crate::snapshot::replace_file(
            &self.config.dir.join(SNAPSHOT_FILE),
            text.as_bytes(),
            &self.faults,
        )?;
        self.writer.truncate_all()?;
        self.since_snapshot = 0;
        Ok(())
    }

    /// Forces batched journal appends to disk.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()
    }

    /// The directory this engine persists into.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPoint};
    use crate::journal::Effect;
    use crowdfusion_core::pool::Pool;
    use crowdfusion_core::round::RoundConfig;
    use crowdfusion_core::session::EntitySpec;
    use crowdfusion_core::shard::ShardedRegistry;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crowdfusion-durable-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_snapshot(applied_seq: u64) -> DurableSnapshot {
        let reg = ShardedRegistry::new(3, RoundConfig::new(2, 6, 0.8).unwrap(), Pool::serial(), 1);
        reg.open_batch(
            vec![EntitySpec::simple("b", vec![0.4, 0.6], vec![true, false])],
            None,
        )
        .unwrap();
        DurableSnapshot {
            applied_seq,
            registry: reg.snapshot(),
            opens: vec![CompletedOpen {
                request: 41,
                sessions: vec![],
            }],
            sched: None,
        }
    }

    fn effect(n: u64) -> Effect {
        Effect::Select { session: n }
    }

    #[test]
    fn fresh_directory_recovers_to_nothing() {
        let dir = temp_dir().join("deeper"); // also exercises create_dir_all
        let recovery = recover(&dir).unwrap();
        assert!(recovery.snapshot.is_none());
        assert!(recovery.replay.is_empty());
        assert!(!recovery.torn);
        assert_eq!(recovery.last_seq, 0);
    }

    #[test]
    fn journalled_effects_come_back_in_order() {
        let dir = temp_dir();
        let recovery = recover(&dir).unwrap();
        let mut durable =
            Durability::open(DurabilityConfig::new(&dir), FaultPlan::none(), &recovery).unwrap();
        for n in 0..5 {
            assert_eq!(durable.journal(effect(n)).unwrap(), n + 1);
        }
        assert_eq!(durable.last_seq(), 5);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.replay.len(), 5);
        assert_eq!(recovered.last_seq, 5);
        assert_eq!(recovered.replay[2].effect, effect(2));
    }

    #[test]
    fn snapshot_truncates_journal_and_replay_resumes_above_it() {
        let dir = temp_dir();
        let recovery = recover(&dir).unwrap();
        let mut durable =
            Durability::open(DurabilityConfig::new(&dir), FaultPlan::none(), &recovery).unwrap();
        for n in 0..3 {
            durable.journal(effect(n)).unwrap();
        }
        durable
            .snapshot_now(&sample_snapshot(durable.last_seq()))
            .unwrap();
        durable.journal(effect(99)).unwrap();

        let recovered = recover(&dir).unwrap();
        let snapshot = recovered.snapshot.as_ref().expect("snapshot must exist");
        assert_eq!(snapshot.applied_seq, 3);
        assert_eq!(snapshot.opens[0].request, 41);
        // Only the post-snapshot record replays.
        assert_eq!(recovered.replay.len(), 1);
        assert_eq!(recovered.replay[0].seq, 4);
        assert_eq!(recovered.last_seq, 4);

        // And appends continue the global sequence after a reopen.
        let mut durable =
            Durability::open(DurabilityConfig::new(&dir), FaultPlan::none(), &recovered).unwrap();
        assert_eq!(durable.journal(effect(1)).unwrap(), 5);
    }

    #[test]
    fn crash_between_rename_and_truncate_skips_covered_records() {
        let dir = temp_dir();
        let recovery = recover(&dir).unwrap();
        let plan = FaultPlan::none().on(FaultPoint::JournalTruncate, 1, FaultAction::Crash);
        let mut durable = Durability::open(DurabilityConfig::new(&dir), plan, &recovery).unwrap();
        for n in 0..4 {
            durable.journal(effect(n)).unwrap();
        }
        let err = durable
            .snapshot_now(&sample_snapshot(durable.last_seq()))
            .unwrap_err();
        assert!(crate::fault::is_simulated_crash(&err));
        drop(durable); // process death

        // Disk now holds the NEW snapshot and the UN-truncated journal.
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().applied_seq, 4);
        assert!(
            recovered.replay.is_empty(),
            "records covered by the snapshot must not replay"
        );
        assert_eq!(recovered.last_seq, 4);
    }

    #[test]
    fn torn_snapshot_write_preserves_the_previous_snapshot() {
        let dir = temp_dir();
        let recovery = recover(&dir).unwrap();
        let mut durable =
            Durability::open(DurabilityConfig::new(&dir), FaultPlan::none(), &recovery).unwrap();
        durable.journal(effect(0)).unwrap();
        let first = sample_snapshot(durable.last_seq());
        durable.snapshot_now(&first).unwrap();
        drop(durable);

        // Second incarnation tears its snapshot write mid-file.
        let recovery = recover(&dir).unwrap();
        let plan = FaultPlan::none().on(
            FaultPoint::SnapshotWrite,
            1,
            FaultAction::Torn { keep_bytes: 10 },
        );
        let mut durable = Durability::open(DurabilityConfig::new(&dir), plan, &recovery).unwrap();
        durable.journal(effect(1)).unwrap();
        let err = durable
            .snapshot_now(&sample_snapshot(durable.last_seq()))
            .unwrap_err();
        assert!(crate::fault::is_simulated_crash(&err));
        drop(durable);

        // The torn tmp exists, but recovery reads the previous snapshot
        // and replays the journalled effect on top.
        assert!(dir.join("snapshot.tmp").exists());
        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot.unwrap(), first);
        assert_eq!(recovered.replay.len(), 1);
        assert_eq!(recovered.replay[0].seq, 2);
    }

    #[test]
    fn crash_before_rename_preserves_the_previous_snapshot() {
        let dir = temp_dir();
        let recovery = recover(&dir).unwrap();
        let mut durable =
            Durability::open(DurabilityConfig::new(&dir), FaultPlan::none(), &recovery).unwrap();
        let first = sample_snapshot(0);
        durable.snapshot_now(&first).unwrap();
        drop(durable);

        let recovery = recover(&dir).unwrap();
        let plan = FaultPlan::none().on(FaultPoint::SnapshotRename, 1, FaultAction::Crash);
        let mut durable = Durability::open(DurabilityConfig::new(&dir), plan, &recovery).unwrap();
        durable.journal(effect(7)).unwrap();
        let err = durable
            .snapshot_now(&sample_snapshot(durable.last_seq()))
            .unwrap_err();
        assert!(crate::fault::is_simulated_crash(&err));
        drop(durable);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot.unwrap(), first);
        assert_eq!(
            recovered.replay.len(),
            1,
            "journal survives a failed snapshot"
        );
    }

    #[test]
    fn sched_state_is_omitted_when_absent_and_round_trips_when_present() {
        // Per-session daemons must keep writing the pre-scheduler format:
        // no "sched" key at all, not a null.
        let plain = sample_snapshot(2);
        let text = crate::protocol::encode(&plain);
        assert!(!text.contains("sched"), "got {text}");
        let back: DurableSnapshot = crate::protocol::decode(&text).unwrap();
        assert_eq!(back, plain);

        // Global daemons carry the ledger and admission marks.
        let mut sched = crate::sched::SchedState::new(50);
        sched.ledger.charge(17).unwrap();
        sched.mark(Some(9), 1);
        let global = DurableSnapshot {
            sched: Some(sched.snapshot()),
            ..plain.clone()
        };
        let text = crate::protocol::encode(&global);
        assert!(text.contains("sched"));
        let back: DurableSnapshot = crate::protocol::decode(&text).unwrap();
        assert_eq!(back, global);
        let revived = back.sched.unwrap();
        assert_eq!(revived.ledger.spent, 17);
        assert_eq!(revived.scheduled.len(), 1);

        // And an explicit null (a hand-edited or future-era file) reads
        // as absent rather than erroring.
        let nulled = text.replace(
            &crate::protocol::encode(&global.sched.clone().unwrap()),
            "null",
        );
        let back: DurableSnapshot = crate::protocol::decode(&nulled).unwrap();
        assert!(back.sched.is_none());
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = temp_dir();
        std::fs::write(dir.join(SNAPSHOT_FILE), "{broken").unwrap();
        let err = recover(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
