//! Snapshot persistence: the whole registry as one JSON document on disk.
//!
//! The snapshot carries everything [`RegistrySnapshot`] serialises —
//! posteriors, budget ledgers, selector RNG states, partially answered
//! open rounds and the master RNG state — so a restarted daemon continues
//! every session mid-round, and future `open`s continue the same seed
//! schedule. Both snapshot writers — this module's client export and the
//! durability layer's auto-snapshot — replace their file through
//! `replace_file`, so a crash mid-write never clobbers the previous good
//! snapshot and a completed replace survives a power cut.

use crate::fault::{FaultAction, FaultPlan, FaultPoint, SimulatedCrash};
use crowdfusion_core::session::RegistrySnapshot;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Writes a registry snapshot atomically and durably: a `path.tmp`
/// sibling, fsynced, renamed over `path`, then a directory fsync.
pub fn save(snapshot: &RegistrySnapshot, path: &Path) -> io::Result<()> {
    let text = serde_json::to_string(snapshot)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    replace_file(path, text.as_bytes(), &FaultPlan::none())
}

/// Replaces `path` with `bytes`: write a `path.tmp` sibling, fsync it,
/// rename it over `path`, then fsync the directory. The last step makes
/// the rename itself durable — POSIX does not order it before a later
/// write to another file, such as the journal truncate that follows an
/// auto-snapshot. `faults` is checked at [`FaultPoint::SnapshotWrite`]
/// and [`FaultPoint::SnapshotRename`].
pub(crate) fn replace_file(path: &Path, bytes: &[u8], faults: &FaultPlan) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let crash = SimulatedCrash {
        point: FaultPoint::SnapshotWrite,
    };
    match faults.check(FaultPoint::SnapshotWrite) {
        None => {}
        Some(FaultAction::Crash) => return Err(crash.into()),
        Some(FaultAction::Torn { keep_bytes }) => {
            // Persist a prefix — what a power cut mid-write leaves — then
            // die.
            std::fs::write(&tmp, &bytes[..keep_bytes.min(bytes.len())])?;
            return Err(crash.into());
        }
        Some(other) => panic!("snapshot write cannot honour {other:?}"),
    }
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    faults.crash_if_scheduled(FaultPoint::SnapshotRename)?;
    std::fs::rename(&tmp, path)?;
    let dir = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// Reads a registry snapshot.
pub fn load(path: &Path) -> io::Result<RegistrySnapshot> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfusion_core::pool::Pool;
    use crowdfusion_core::round::RoundConfig;
    use crowdfusion_core::session::EntitySpec;
    use crowdfusion_core::shard::ShardedRegistry;

    #[test]
    fn snapshot_file_roundtrips() {
        let config = RoundConfig::new(2, 6, 0.8).unwrap();
        let reg = ShardedRegistry::new(1, config, Pool::serial(), 1);
        reg.open_batch(
            vec![EntitySpec::simple("b", vec![0.4, 0.6], vec![true, false])],
            None,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("crowdfusion-service-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let snap = reg.snapshot();
        save(&snap, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, snap);
        // The tmp sibling does not linger.
        assert!(!path.with_extension("tmp").exists());
        assert!(load(&dir.join("missing.json")).is_err());
        std::fs::remove_file(&path).ok();
    }
}
