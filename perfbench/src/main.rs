//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-small|serve-durable|refine-large|serve-large>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole episodes of the named workload until `--seconds` have been
//! spent (at least one), checks every output, prints a human report, an
//! environment stamp, and — as the last line — one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no tracing at all; with
//! `--trace 1` they are the per-layer ones from the traced run. A failed
//! output check prints the result with `"correct": false` and exits 1;
//! a failure to run at all exits 2 without a result.
//!
//! All scratch files (WAL directories, snapshots, span dumps) live under
//! `.perfbench_work/` in the working directory.

mod env;
mod refine;
mod serve;
mod spans;
mod stats;
mod traced;
mod workload;

use crate::env::Stamp;
use crate::stats::failed_share;
use crate::workload::{Tally, Workload, CONNECTIONS, DAEMON_THREADS};
use crowdfusion::core::pool::Pool;
use crowdfusion::service::DEFAULT_SHARDS;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The scratch directory, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        for entry in std::fs::read_dir(&self.0).into_iter().flatten().flatten() {
            // Span dumps are the traced run's output; keep them.
            if !entry.file_name().to_string_lossy().starts_with("spans-") {
                let path = entry.path();
                let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
            }
        }
    }
}

/// Runs episodes until `seconds` are spent: another episode starts only
/// if the last one's duration still fits.
pub(crate) fn run_episodes(
    seconds: f64,
    mut episode: impl FnMut(u64) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut index = 0u64;
    loop {
        let before = start.elapsed().as_secs_f64();
        episode(index)?;
        index += 1;
        let after = start.elapsed().as_secs_f64();
        if after + (after - before) > seconds {
            return Ok(());
        }
    }
}

/// What a run reports on its last line.
#[derive(Serialize)]
pub struct Outcome {
    /// Every output check passed and every metric was measured.
    pub correct: bool,
    /// Requests (and offline entities) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
}

/// Metric name, value and unit, in `BENCHMARK.json` order. Serialises as
/// one JSON object keyed by name; a value that could not be measured
/// (NaN) prints as `null` and fails the run's correctness.
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

/// One metric's entry in the result line.
#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|&(ref name, value, unit)| (name.clone(), Reading { value, unit }.to_value()))
                .collect(),
        )
    }
}

fn report_end_to_end(workload: Workload, tally: &Tally) -> Vec<(String, f64, &'static str)> {
    println!("== {} ({} episodes)", workload.name(), tally.episodes);
    for (verb, c) in &tally.requests.counts {
        println!(
            "  {verb:<9} attempted {:>7}  ok {:>7}  failed {:>3}  failed_share {}",
            c.attempted,
            c.ok,
            c.failed,
            failed_share(c.failed, c.attempted)
        );
    }
    for (verb, latency) in tally.latencies() {
        println!("  latency {verb:<9} {}", latency.describe());
    }
    let (attempted, failed) = tally.attempted_failed();
    println!("  failed_share {}", failed_share(failed, attempted));
    for (name, ok) in &tally.checks {
        if !ok {
            println!("  CHECK FAILED: {name}");
        }
    }
    println!(
        "  checks: {} run, {} failed",
        tally.checks.len(),
        tally.checks.iter().filter(|(_, ok)| !ok).count()
    );
    let metrics: Vec<(String, f64, &str)> = tally
        .metrics()
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect();
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>14.4} {unit}");
    }
    metrics
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let shape = args.workload.shape(args.trace);
    let stamp = Stamp::new(args.seed, DAEMON_THREADS, DEFAULT_SHARDS, CONNECTIONS, work);
    println!(
        "env {}",
        serde_json::to_string(&stamp).map_err(|e| e.to_string())?
    );
    if args.trace {
        return traced::run(args.workload, &shape, args.seed, args.seconds, work);
    }
    let mut tally = Tally::default();
    match args.workload {
        Workload::ServeSmall | Workload::ServeDurable | Workload::ServeLarge => {
            let pool = Pool::new(DAEMON_THREADS);
            run_episodes(args.seconds, |e| {
                if shape.durable {
                    serve::durable_episode(&shape, args.seed, e, work, &pool, &mut tally)
                } else {
                    serve::small_episode(&shape, args.seed, e, work, &pool, &mut tally)
                }
            })?;
        }
        Workload::RefineLarge => {
            run_episodes(args.seconds, |e| {
                refine::episode(&shape, args.seed, e, work, &mut tally)
            })?;
        }
    }
    let metrics = report_end_to_end(args.workload, &tally);
    let measured = metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);
    if !measured {
        println!("  a metric could not be measured");
    }
    let (attempted, failed) = tally.attempted_failed();
    Ok(Outcome {
        correct: tally.correct() && measured && failed == 0,
        attempted,
        failed,
        metrics: Metrics(metrics),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        std::process::exit(2);
    }
    let guard = WorkDir(work.clone());
    let outcome = run(&args, &work);
    drop(guard);
    match outcome {
        Ok(outcome) => {
            let line = serde_json::to_string(&outcome).expect("a result always serialises");
            println!("{line}");
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}
