//! The environment every result is stamped with, and process readings
//! (peak RSS) that only the OS can give.

use serde::Serialize;
use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone, Serialize)]
pub struct Stamp {
    /// Cores available to the process.
    pub nproc: usize,
    /// Daemon worker-pool threads (also its reactor count).
    pub daemon_threads: usize,
    /// Daemon registry shards.
    pub daemon_shards: usize,
    /// Client connections driving the daemon.
    pub connections: usize,
    /// The workload seed.
    pub seed: u64,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Filesystem type under the benchmark's work directory (where the
    /// WAL lives).
    pub wal_fs: String,
}

impl Stamp {
    /// Stamps a run of the given shape.
    pub fn new(
        seed: u64,
        daemon_threads: usize,
        daemon_shards: usize,
        connections: usize,
        work: &Path,
    ) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            daemon_threads,
            daemon_shards,
            connections,
            seed,
            commit: git_commit(Path::new(".")),
            rustc: env!("PERFBENCH_RUSTC"),
            wal_fs: fs_type(work),
        }
    }
}

/// The commit `HEAD` names in `root/.git`, read without running git (the
/// benchmark may run from an exported tree that is no git checkout).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let (Ok(path), Ok(info)) = (
        path.canonicalize(),
        std::fs::read_to_string("/proc/self/mountinfo"),
    ) else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            // Fields: id parent dev root mount-point options [tags] - type …
            let mount = line.split(' ').nth(4)?;
            let fs = line.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}
