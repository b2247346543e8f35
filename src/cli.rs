//! The `crowdfusion` command-line tool.
//!
//! Thin, dependency-free argument handling over the library pipeline:
//!
//! ```text
//! crowdfusion generate-books  --out books.json [--books N] [--sources N] [--seed S]
//!                             [--min-statements N] [--max-statements N]
//! crowdfusion generate-countries --out countries.json [--countries N] [--seed S]
//! crowdfusion fuse            --dataset books.json --method NAME [--out fusion.json]
//!                             [--report report.json]
//! crowdfusion refine          --dataset books.json [--method NAME] [--k K] [--budget B]
//!                             [--pc PC] [--selector greedy|greedy-pre|random] [--seed S]
//!                             [--threads N] [--out trace.json] [--csv trace.csv]
//! crowdfusion serve           [--config FILE] [--addr HOST:PORT] [--transport tcp|stdio]
//!                             [--threads N] [--shards N] [--selector NAME] [--method NAME]
//!                             [--k K] [--budget B] [--pc PC] [--seed S]
//!                             [--ready-file PATH] [--snapshot-dir DIR]
//!                             [--wal-dir DIR] [--snapshot-every N] [--sync-every N]
//!                             [--group-commit BOOL] [--session-ttl-ms MS]
//!                             [--read-deadline-ms MS] [--max-line-bytes N]
//!                             [--budget-mode per-session|global] [--global-budget N]
//! crowdfusion demo            # the paper's running example
//! ```
//!
//! All commands are pure functions of their arguments (seeded RNG), so
//! runs are reproducible byte for byte. `refine --threads N` (default
//! `CROWDFUSION_THREADS`, else 1) only sizes the pool the entities are
//! sharded across: per-entity RNG streams are derived from the seed, not
//! the schedule, so every thread count yields the same bytes.

use crate::pipeline::entity_cases_from_books;
use crowdfusion_core::metrics::quality_points_to_csv;
use crowdfusion_core::pool::Pool;
use crowdfusion_core::round::RoundConfig;
use crowdfusion_core::selection::{GreedySelector, TaskSelector};
use crowdfusion_core::system::Experiment;
use crowdfusion_crowd::{CrowdPlatform, UniformAccuracy, WorkerPool};
use crowdfusion_datagen::book::generate as generate_books;
use crowdfusion_datagen::country::generate as generate_countries;
use crowdfusion_datagen::{export, BookGenConfig, CountryGenConfig, GeneratedBooks};
use crowdfusion_fusion::{
    FusionMethod, FusionReport, FusionResult, StrategyRegistry, DEFAULT_METHOD,
};
use crowdfusion_service::SelectorChoice;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Usage text printed by `help` and on argument errors.
pub const USAGE: &str = "\
crowdfusion — crowdsourced data fusion refinement (ICDE 2017 reproduction)

USAGE:
  crowdfusion generate-books --out PATH [--books N] [--sources N] [--seed S]
                             [--min-statements N] [--max-statements N]
                             [--attributes true|false]
  crowdfusion generate-countries --out PATH [--countries N] [--seed S]
  crowdfusion fuse --dataset PATH --method NAME [--out PATH] [--report PATH]
  crowdfusion refine --dataset PATH [--method NAME] [--k K] [--budget B]
                     [--pc PC] [--selector greedy|greedy-pre|random] [--seed S]
                     [--threads N] [--out trace.json] [--csv trace.csv]
  crowdfusion serve  [--config FILE] [--addr HOST:PORT] [--transport tcp|stdio]
                     [--threads N] [--shards N]
                     [--selector greedy|greedy-pre|random] [--method NAME]
                     [--k K] [--budget B]
                     [--pc PC] [--seed S] [--ready-file PATH] [--snapshot-dir DIR]
                     [--wal-dir DIR] [--snapshot-every N] [--sync-every N]
                     [--group-commit BOOL] [--session-ttl-ms MS]
                     [--read-deadline-ms MS] [--max-line-bytes N]
                     [--budget-mode per-session|global] [--global-budget N]
  crowdfusion demo
  crowdfusion help            (also COMMAND --help or COMMAND -h)

Fusion methods (the strategy registry; modified-crh is the default):
  uniform, majority, crh, modified-crh, truthfinder, accu — global methods;
  vote, weighted-vote, trust-vote, favour-sources — voting resolvers;
  numeric-average, numeric-median, most-recent, list-union — typed resolvers;
  per-attribute — the composite (authors/pages/published routed to their
  resolvers, modified-crh fallback).
fuse --report PATH writes the JSON fusion report (density, per-attribute
coverage, conflict stats, full provenance) — byte-stable across runs and
thread counts. serve --method NAME validates the daemon's default method
against the registry at startup.
Environment: CROWDFUSION_THREADS=N is the default for refine/serve --threads.
serve speaks line-delimited JSON (one request per line; see crowdfusion_service)
over TCP (default 127.0.0.1:7464) or stdio; --ready-file receives the bound
address once the daemon is listening; --snapshot-dir confines client
Snapshot/Restore paths to bare file names inside DIR. --wal-dir makes the
daemon crash-safe: mutations are journalled there before they apply, the
registry auto-snapshots every --snapshot-every effects (journal fsync
batched per --sync-every appends), and a restart recovers every session.
--session-ttl-ms evicts idle sessions; --read-deadline-ms closes silent
connections; --max-line-bytes bounds one protocol line. serve --config FILE
loads all of the above from one JSON document (partial files merge over the
defaults; explicit flags still win); --shards sets the registry lock-stripe
count (traces are identical at any value); --group-commit true batches
journal fsyncs per event-loop ready-batch. --budget-mode global grants one
shared pool of --global-budget judgments spent across ALL sessions in
descending marginal-gain order: the Schedule verb admits the best idle
session, Select on a non-preferred session answers Deferred, and
BudgetStatus reports the shared ledger.
";

/// Parsed flag map: `--name value` pairs. Ordered so diagnostics (e.g.
/// which unknown flag gets reported) don't depend on hash order.
struct Flags(BTreeMap<String, String>);

impl Flags {
    /// `None` when `--help` or `-h` stands where a flag name is expected.
    fn parse(args: &[String]) -> Result<Option<Flags>, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--help" || flag == "-h" {
                return Ok(None);
            }
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} is missing its value"));
            };
            if map.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        Ok(Some(Flags(map)))
    }

    fn take<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    fn required(&self, name: &str) -> Result<String, String> {
        self.0
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn optional(&self, name: &str) -> Option<String> {
        self.0.get(name).cloned()
    }

    fn ensure_known(&self, known: &[&str]) -> Result<(), String> {
        for key in self.0.keys() {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

/// Resolves a method name through the one [`StrategyRegistry`] every
/// consumer shares; unknown names error with the full registered list.
fn build_method(name: &str) -> Result<Box<dyn FusionMethod>, String> {
    StrategyRegistry::standard()
        .build(name)
        .map_err(|e| e.to_string())
}

fn load_books(path: &str) -> Result<GeneratedBooks, String> {
    export::load_books(Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))
}

fn write_json<T: serde::Serialize>(value: &T, path: &str) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(PathBuf::from(path), text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs one CLI invocation; returns the human-readable report to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    let Some(flags) = Flags::parse(&args[1..])? else {
        return Ok(USAGE.to_string());
    };
    match command.as_str() {
        "generate-books" => {
            flags.ensure_known(&[
                "out",
                "books",
                "sources",
                "seed",
                "min-statements",
                "max-statements",
                "attributes",
            ])?;
            let out = flags.required("out")?;
            let seed = flags.take("seed", 42u64)?;
            let config = BookGenConfig {
                n_books: flags.take("books", 100usize)?,
                n_sources: flags.take("sources", 10usize)?,
                statements_per_book: (
                    flags.take("min-statements", 3usize)?,
                    flags.take("max-statements", 8usize)?,
                ),
                seed,
                ..BookGenConfig::default()
            };
            config.validate()?;
            let mut books = generate_books(config);
            // --attributes true rebuilds the dataset with typed claims
            // (authors/pages/published) for the per-attribute resolvers;
            // plain output is byte-identical to pre-attribute builds.
            if flags.take("attributes", false)? {
                books = books.with_attributes(seed);
            }
            export::save_books(&books, Path::new(&out)).map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote {} books / {} statements / {} claims to {out}\nraw claims correct: {:.1}%",
                books.dataset.entities().len(),
                books.dataset.statements().len(),
                books.dataset.claims().len(),
                100.0 * books.raw_claim_true_rate()
            ))
        }
        "generate-countries" => {
            flags.ensure_known(&["out", "countries", "seed"])?;
            let out = flags.required("out")?;
            let config = CountryGenConfig {
                n_countries: flags.take("countries", 20usize)?,
                seed: flags.take("seed", 7u64)?,
                ..CountryGenConfig::default()
            };
            config.validate()?;
            let countries = generate_countries(config);
            export::save_countries(&countries, Path::new(&out)).map_err(|e| e.to_string())?;
            Ok(format!("wrote {} countries to {out}", countries.len()))
        }
        "fuse" => {
            flags.ensure_known(&["dataset", "method", "out", "report"])?;
            let books = load_books(&flags.required("dataset")?)?;
            let method = build_method(&flags.required("method")?)?;
            // The provenance-carrying path returns the exact FusionResult
            // `fuse` would (a tested invariant of every method), so taking
            // it unconditionally keeps plain runs byte-identical.
            let (result, ledger): (FusionResult, _) = method
                .fuse_with_provenance(&books.dataset)
                .map_err(|e| format!("fusion failed: {e}"))?;
            let accuracy = result.accuracy_against(&books.gold);
            if let Some(out) = flags.optional("out") {
                write_json(&result, &out)?;
            }
            if let Some(path) = flags.optional("report") {
                let mut report = FusionReport::generate(&books.dataset, &result, ledger);
                report.accuracy = Some(accuracy);
                std::fs::write(&path, report.to_json_pretty())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            Ok(format!(
                "{}: statement accuracy vs gold = {accuracy:.3} over {} statements",
                result.method(),
                result.probs().len()
            ))
        }
        "refine" => {
            flags.ensure_known(&[
                "dataset", "method", "k", "budget", "pc", "selector", "seed", "out", "csv",
                "threads",
            ])?;
            let books = load_books(&flags.required("dataset")?)?;
            let method_name = flags.take("method", DEFAULT_METHOD.to_string())?;
            // Registry lookup + fuse in one step, shared with the offline
            // pipeline (same path a `fuse` of the same name runs).
            let fusion =
                crate::pipeline::fuse_books(&books, &method_name).map_err(|e| e.to_string())?;
            let cases = entity_cases_from_books(&books, &fusion).map_err(|e| e.to_string())?;
            let k = flags.take("k", 2usize)?;
            let budget = flags.take("budget", 60usize)?;
            let pc = flags.take("pc", 0.8f64)?;
            let seed = flags.take("seed", 7u64)?;
            // `--threads N` (or, when the flag is absent, the
            // CROWDFUSION_THREADS environment variable) sizes the pool the
            // entities are sharded across; results are a pure function of
            // the seed — identical for every N.
            let threads = flags
                .optional("threads")
                .map(|raw| {
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&t| t > 0)
                        .ok_or_else(|| format!("invalid value {raw:?} for --threads"))
                })
                .transpose()?
                .or_else(crowdfusion_core::pool::threads_from_env);
            // The daemon's selector table: the same names build the same
            // serial selectors, so an offline run is comparable to a served
            // one.
            let selector =
                SelectorChoice::parse(&flags.take("selector", "greedy".to_string())?)?.build();
            let config = RoundConfig::new(k, budget, pc).map_err(|e| e.to_string())?;
            let experiment = Experiment::new(cases, config).map_err(|e| e.to_string())?;
            let mut platform = CrowdPlatform::new(
                WorkerPool::uniform(30, pc).map_err(|e| e.to_string())?,
                UniformAccuracy::new(pc),
                seed,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = threads.map_or_else(Pool::serial, Pool::new);
            let trace = experiment
                .run_sharded(selector.as_ref(), &mut platform, &mut rng, &pool)
                .map_err(|e| e.to_string())?;
            if let Some(out) = flags.optional("out") {
                write_json(&trace, &out)?;
            }
            if let Some(csv) = flags.optional("csv") {
                std::fs::write(&csv, quality_points_to_csv(&trace.points))
                    .map_err(|e| format!("cannot write {csv}: {e}"))?;
            }
            let first = &trace.points[0];
            let last = trace.last();
            Ok(format!(
                "{} with {} over {} books, k = {k}, budget {budget}, Pc = {pc}\n\
                 machine-only: F1 = {:.3}, utility = {:.2}\n\
                 refined     : F1 = {:.3}, utility = {:.2} (cost {})",
                selector.name(),
                fusion.method(),
                experiment.cases().len(),
                first.f1,
                first.utility,
                last.f1,
                last.utility,
                last.cost
            ))
        }
        "serve" => {
            flags.ensure_known(&[
                "config",
                "addr",
                "transport",
                "threads",
                "shards",
                "selector",
                "method",
                "k",
                "budget",
                "pc",
                "seed",
                "ready-file",
                "snapshot-dir",
                "wal-dir",
                "snapshot-every",
                "sync-every",
                "group-commit",
                "session-ttl-ms",
                "read-deadline-ms",
                "max-line-bytes",
                "budget-mode",
                "global-budget",
            ])?;
            // One declarative document, then flags override field by
            // field: `--config serve.json --shards 2` serves the file's
            // daemon with two shards.
            let mut serve = match flags.optional("config") {
                Some(path) => {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    crowdfusion_service::ServeConfig::from_json(&text)
                        .map_err(|e| format!("{path}: {e}"))?
                }
                None => crowdfusion_service::ServeConfig::new(),
            };
            serve.seed = flags.take("seed", serve.seed)?;
            serve.k = flags.take("k", serve.k)?;
            serve.budget = flags.take("budget", serve.budget)?;
            serve.pc = flags.take("pc", serve.pc)?;
            if let Some(raw) = flags.optional("threads") {
                let threads: usize = raw
                    .parse()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| format!("invalid value {raw:?} for --threads"))?;
                serve.threads = Some(threads);
            }
            serve.shards = flags.take("shards", serve.shards)?;
            serve.selector = flags.take("selector", serve.selector.clone())?;
            serve.method = flags.take("method", serve.method.clone())?;
            serve.addr = flags.take("addr", serve.addr.clone())?;
            serve.transport = flags.take("transport", serve.transport.clone())?;
            if let Some(path) = flags.optional("ready-file") {
                serve.ready_file = Some(path);
            }
            if let Some(dir) = flags.optional("snapshot-dir") {
                serve.snapshot_dir = Some(dir);
            }
            if let Some(dir) = flags.optional("wal-dir") {
                serve.wal_dir = Some(dir);
            }
            serve.snapshot_every = flags.take("snapshot-every", serve.snapshot_every)?;
            serve.sync_every = flags.take("sync-every", serve.sync_every)?;
            serve.group_commit = flags.take("group-commit", serve.group_commit)?;
            if serve.wal_dir.is_none()
                && (flags.optional("snapshot-every").is_some()
                    || flags.optional("sync-every").is_some())
            {
                return Err(
                    "--snapshot-every/--sync-every require --wal-dir (nothing to journal into)"
                        .to_string(),
                );
            }
            if let Some(raw) = flags.optional("session-ttl-ms") {
                let ttl: u64 = raw
                    .parse()
                    .map_err(|_| format!("invalid value {raw:?} for --session-ttl-ms"))?;
                serve.session_ttl_ms = Some(ttl);
            }
            if let Some(raw) = flags.optional("read-deadline-ms") {
                let deadline: u64 = raw
                    .parse()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| format!("invalid value {raw:?} for --read-deadline-ms"))?;
                serve.read_deadline_ms = Some(deadline);
            }
            serve.max_line_bytes = flags.take("max-line-bytes", serve.max_line_bytes)?;
            serve.budget_mode = flags.take("budget-mode", serve.budget_mode.clone())?;
            serve.global_budget = flags.take("global-budget", serve.global_budget)?;
            // One validation pass for flags and file alike.
            let config = serve.build()?;
            let threads = config.threads;
            match serve.transport()? {
                crowdfusion_service::Transport::Stdio => {
                    let service = crowdfusion_service::Service::new(config)
                        .map_err(|e| format!("serve: cannot recover durable state: {e}"))?;
                    let stdin = std::io::stdin();
                    crowdfusion_service::serve_stdio(&service, stdin.lock(), std::io::stdout())
                        .map_err(|e| format!("serve (stdio): {e}"))?;
                    Ok("crowdfusion-serve (stdio): shut down cleanly".to_string())
                }
                crowdfusion_service::Transport::Tcp => {
                    let listener = std::net::TcpListener::bind(&serve.addr)
                        .map_err(|e| format!("cannot bind {}: {e}", serve.addr))?;
                    let local = listener
                        .local_addr()
                        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
                    if let Some(path) = &serve.ready_file {
                        std::fs::write(path, local.to_string())
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                    }
                    eprintln!(
                        "crowdfusion-serve listening on {local} \
                         ({threads} thread(s), {} shard(s))",
                        serve.shards
                    );
                    let service = crowdfusion_service::Service::new(config)
                        .map_err(|e| format!("serve: cannot recover durable state: {e}"))?;
                    let served =
                        crowdfusion_service::serve_tcp(std::sync::Arc::new(service), listener)
                            .map_err(|e| format!("serve (tcp): {e}"))?;
                    Ok(format!(
                        "crowdfusion-serve on {local}: served {served} connection(s); \
                         shut down cleanly"
                    ))
                }
            }
        }
        "demo" => {
            flags.ensure_known(&[])?;
            let facts = crowdfusion_core::model::FactSet::running_example();
            let mut rng = StdRng::seed_from_u64(0);
            let tasks = GreedySelector::fast()
                .select(facts.dist(), 0.8, 2, &mut rng)
                .map_err(|e| e.to_string())?;
            let names: Vec<String> = tasks.iter().map(|t| format!("f{}", t + 1)).collect();
            Ok(format!(
                "running example: {} facts, utility {:.3}\n\
                 best 2 tasks at Pc = 0.8: {{{}}} (paper: {{f1, f4}})\n\
                 run `cargo run -p crowdfusion-bench --bin running_example` for Tables I–IV",
                facts.len(),
                facts.utility(),
                names.join(", ")
            ))
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("crowdfusion-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&[]).is_err());
        assert!(run(&args(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(run(&args(&["demo", "--bogus", "1"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(run(&args(&["generate-books"]))
            .unwrap_err()
            .contains("--out"));
        assert!(run(&args(&["generate-books", "--out"]))
            .unwrap_err()
            .contains("missing its value"));
        assert!(run(&args(&["generate-books", "--out", "x", "--out", "y"]))
            .unwrap_err()
            .contains("twice"));
        assert!(
            run(&args(&["generate-books", "--out", "x", "--books", "zero"]))
                .unwrap_err()
                .contains("invalid value")
        );
    }

    #[test]
    fn demo_matches_paper() {
        let out = run(&args(&["demo"])).unwrap();
        assert!(out.contains("f1, f4"));
    }

    #[test]
    fn full_cli_pipeline() {
        let books = tmp("books.json");
        let fusion = tmp("fusion.json");
        let trace = tmp("trace.json");
        let csv = tmp("trace.csv");

        let report = run(&args(&[
            "generate-books",
            "--out",
            &books,
            "--books",
            "6",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(report.contains("wrote 6 books"));

        let report = run(&args(&[
            "fuse",
            "--dataset",
            &books,
            "--method",
            "crh",
            "--out",
            &fusion,
        ]))
        .unwrap();
        assert!(report.contains("crh: statement accuracy"));
        assert!(std::fs::metadata(&fusion).unwrap().len() > 0);

        let report = run(&args(&[
            "refine",
            "--dataset",
            &books,
            "--k",
            "2",
            "--budget",
            "8",
            "--pc",
            "0.85",
            "--out",
            &trace,
            "--csv",
            &csv,
        ]))
        .unwrap();
        assert!(report.contains("refined"));
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(csv_text.starts_with("cost,utility,f1,precision,recall"));
        let parsed = crowdfusion_core::metrics::quality_points_from_csv(&csv_text).unwrap();
        assert_eq!(parsed.last().unwrap().cost, 6 * 8);

        for f in [&books, &fusion, &trace, &csv] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn refine_threads_flag_is_thread_count_invariant() {
        let books = tmp("books3.json");
        run(&args(&["generate-books", "--out", &books, "--books", "4"])).unwrap();
        let csv_for = |threads: &str, csv: &str| {
            run(&args(&[
                "refine",
                "--dataset",
                &books,
                "--budget",
                "6",
                "--threads",
                threads,
                "--csv",
                csv,
            ]))
            .unwrap();
            std::fs::read_to_string(csv).unwrap()
        };
        let csv1 = tmp("t1.csv");
        let csv4 = tmp("t4.csv");
        assert_eq!(csv_for("1", &csv1), csv_for("4", &csv4));
        assert!(
            run(&args(&["refine", "--dataset", &books, "--threads", "zero"]))
                .unwrap_err()
                .contains("invalid value")
        );
        assert!(
            run(&args(&["refine", "--dataset", &books, "--threads", "0"]))
                .unwrap_err()
                .contains("invalid value")
        );
        for f in [&books, &csv1, &csv4] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn usage_lists_every_registered_method() {
        // The USAGE text is a constant, so it can drift from the registry;
        // this pins them together.
        for name in StrategyRegistry::standard().names() {
            assert!(USAGE.contains(name), "USAGE is missing method {name:?}");
        }
    }

    #[test]
    fn fuse_report_is_byte_stable_and_method_agnostic() {
        let books = tmp("books-report.json");
        run(&args(&["generate-books", "--out", &books, "--books", "5"])).unwrap();
        let report_a = tmp("report-a.json");
        let report_b = tmp("report-b.json");
        let fuse = |method: &str, report: &str| {
            run(&args(&[
                "fuse",
                "--dataset",
                &books,
                "--method",
                method,
                "--report",
                report,
            ]))
            .unwrap();
            std::fs::read_to_string(report).unwrap()
        };
        // Two identical runs emit identical bytes.
        let first = fuse("crh", &report_a);
        assert_eq!(first, fuse("crh", &report_b));
        assert!(first.contains("\"schema\": \"crowdfusion.fusion-report/v1\""));
        assert!(first.contains("\"provenance\""));
        assert!(first.contains("\"accuracy\""));
        // The composite also reports end to end.
        let composite = fuse("per-attribute", &report_b);
        assert!(composite.contains("\"method\": \"per-attribute\""));
        for f in [&books, &report_a, &report_b] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn refine_runs_atop_registry_strategies() {
        let books = tmp("books-methods.json");
        run(&args(&["generate-books", "--out", &books, "--books", "3"])).unwrap();
        for method in ["vote", "per-attribute"] {
            let report = run(&args(&[
                "refine",
                "--dataset",
                &books,
                "--method",
                method,
                "--budget",
                "4",
            ]))
            .unwrap();
            assert!(report.contains(method), "{report}");
            assert!(report.contains("refined"), "{report}");
        }
        std::fs::remove_file(&books).ok();
    }

    #[test]
    fn serve_validates_flags() {
        assert!(run(&args(&["serve", "--selector", "oracle"]))
            .unwrap_err()
            .contains("unknown selector"));
        assert!(run(&args(&["serve", "--method", "lda"]))
            .unwrap_err()
            .contains("unknown fusion method"));
        assert!(run(&args(&["serve", "--transport", "carrier-pigeon"]))
            .unwrap_err()
            .contains("unknown transport"));
        assert!(run(&args(&["serve", "--k", "0"]))
            .unwrap_err()
            .contains("task set is empty"));
        assert!(run(&args(&["serve", "--threads", "0"]))
            .unwrap_err()
            .contains("invalid value"));
        assert!(run(&args(&["serve", "--addr", "999.999.999.999:1"]))
            .unwrap_err()
            .contains("cannot bind"));
        assert!(run(&args(&["serve", "--budget-mode", "shared"]))
            .unwrap_err()
            .contains("unknown budget mode"));
        assert!(run(&args(&["serve", "--budget-mode", "global"]))
            .unwrap_err()
            .contains("global_budget"));
        assert!(run(&args(&["serve", "--global-budget", "50"]))
            .unwrap_err()
            .contains("budget_mode"));
    }

    #[test]
    fn serve_tcp_drives_a_daemon_to_clean_shutdown() {
        use crowdfusion_service::{Client, Request, Response};
        let ready = tmp("serve-ready.txt");
        std::fs::remove_file(&ready).ok();
        let args_owned = args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--ready-file",
            &ready,
            "--budget",
            "4",
            "--method",
            "truthfinder",
        ]);
        let daemon = std::thread::spawn(move || run(&args_owned));
        // Wait for the daemon to publish its bound address.
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(text) = std::fs::read_to_string(&ready) {
                    if !text.is_empty() {
                        break text.parse().unwrap();
                    }
                }
                tries += 1;
                assert!(tries < 200, "daemon never became ready");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };
        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(
            client.roundtrip(&Request::Metrics).unwrap(),
            Response::Metrics { .. }
        ));
        assert_eq!(client.roundtrip(&Request::Shutdown).unwrap(), Response::Bye);
        let report = daemon.join().unwrap().unwrap();
        assert!(report.contains("shut down cleanly"), "{report}");
        std::fs::remove_file(&ready).ok();
    }

    #[test]
    fn generate_countries_cli() {
        let path = tmp("countries.json");
        let report = run(&args(&[
            "generate-countries",
            "--out",
            &path,
            "--countries",
            "4",
        ]))
        .unwrap();
        assert!(report.contains("wrote 4 countries"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn refine_rejects_bad_selector_and_method() {
        let books = tmp("books2.json");
        run(&args(&["generate-books", "--out", &books, "--books", "3"])).unwrap();
        assert!(run(&args(&[
            "refine",
            "--dataset",
            &books,
            "--selector",
            "oracle"
        ]))
        .unwrap_err()
        .contains("unknown selector"));
        assert!(
            run(&args(&["fuse", "--dataset", &books, "--method", "lda"]))
                .unwrap_err()
                .contains("unknown fusion method")
        );
        std::fs::remove_file(&books).ok();
    }
}
