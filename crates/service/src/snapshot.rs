//! Snapshot persistence: the whole registry as one JSON document on disk.
//!
//! The snapshot carries everything [`RegistrySnapshot`] serialises —
//! posteriors, budget ledgers, selector RNG states, partially answered
//! open rounds and the master RNG state — so a restarted daemon continues
//! every session mid-round, and future `open`s continue the same seed
//! schedule. Writes go through a `.tmp` sibling plus rename, so a crash
//! mid-write never clobbers the previous good snapshot.

use crowdfusion_core::session::RegistrySnapshot;
use std::io;
use std::path::Path;

/// Writes a registry snapshot atomically (`path.tmp` then rename).
pub fn save(snapshot: &RegistrySnapshot, path: &Path) -> io::Result<()> {
    let text = serde_json::to_string(snapshot)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
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
