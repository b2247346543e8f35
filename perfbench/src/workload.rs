//! The workloads: their shapes, their generated inputs, the offline
//! pipeline they share, and the tally their end-to-end metrics come from.

use crate::env::peak_rss_mb;
use crate::stats::{slower_quartile, Latency, Requests};
use crowdfusion::core::pool::Pool;
use crowdfusion::core::round::{EntityCase, RoundConfig};
use crowdfusion::core::selection::GreedySelector;
use crowdfusion::core::session::EntitySpec;
use crowdfusion::core::system::{Experiment, ExperimentTrace};
use crowdfusion::crowd::{CrowdPlatform, UniformAccuracy, WorkerPool};
use crowdfusion::datagen::{book, BookGenConfig, GeneratedBooks};
use crowdfusion::fusion::{FusionResult, DEFAULT_METHOD};
use crowdfusion::pipeline::{entity_cases_from_books, entity_specs_from_books, fuse_books};
use crowdfusion::service::{ServeConfig, ServiceConfig, DEFAULT_SHARDS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Simulated crowd size; the daemon's answer replay and the offline
/// platform must agree on it for traces to match.
pub const CROWD_WORKERS: usize = 30;
/// Daemon worker-pool threads and reactors (the machine has 2 cores).
pub const DAEMON_THREADS: usize = 2;
/// Specs per `Open` request.
pub const OPEN_BATCH: usize = 512;
/// Client connections driving a daemon: one closed loop. (Two racing
/// connections on the durable daemon put its p99 in the sparse gap
/// between fsync-bound requests and the 0.8% stalled behind
/// auto-snapshots, where it swung from 0.9 to 9.8 ms between seeds.)
pub const CONNECTIONS: usize = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tiny sessions over one connection: transport, protocol and
    /// dispatch dominate.
    ServeSmall,
    /// Durable daemon, global budget spent through `Schedule`: journal,
    /// fsync, snapshots and the scheduler dominate.
    ServeDurable,
    /// The offline pipeline on large correlated books: prior, selection
    /// and posterior kernels dominate.
    RefineLarge,
    /// `RefineLarge`'s books served by an in-memory daemon, each request
    /// line sent to `Service::handle_line` on the driving thread: the
    /// daemon's protocol and dispatch around the same kernels.
    ServeLarge,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-small" => Some(Workload::ServeSmall),
            "serve-durable" => Some(Workload::ServeDurable),
            "refine-large" => Some(Workload::RefineLarge),
            "serve-large" => Some(Workload::ServeLarge),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve-small",
            Workload::ServeDurable => "serve-durable",
            Workload::RefineLarge => "refine-large",
            Workload::ServeLarge => "serve-large",
        }
    }

    /// The workload's shape. The traced run drives smaller episodes,
    /// since it pushes every request through two daemons and a shadow.
    pub fn shape(self, traced: bool) -> Shape {
        match self {
            Workload::ServeSmall => Shape {
                k: 2,
                budget: 24,
                pc: 0.8,
                books: if traced { 400 } else { 1000 },
                facts: (3, 6),
                stratify: false,
                large_books: 0,
                global_budget: false,
                durable: false,
                in_process: false,
                split_answers: true,
                recovery_boots: 3,
                refine_runs: 5,
            },
            Workload::ServeDurable => Shape {
                k: 2,
                budget: 24,
                pc: 0.8,
                books: if traced { 150 } else { 300 },
                facts: (3, 6),
                stratify: false,
                large_books: 0,
                global_budget: true,
                durable: true,
                in_process: false,
                split_answers: true,
                recovery_boots: 5,
                refine_runs: 5,
            },
            Workload::RefineLarge => Shape {
                k: 4,
                budget: 16,
                pc: 0.8,
                books: if traced { 1 } else { 2 },
                facts: (10, 16),
                stratify: true,
                large_books: 2,
                global_budget: false,
                durable: false,
                in_process: false,
                split_answers: false,
                recovery_boots: 1,
                refine_runs: 1,
            },
            Workload::ServeLarge => Shape {
                in_process: true,
                split_answers: true,
                recovery_boots: 3,
                ..Workload::RefineLarge.shape(traced)
            },
        }
    }
}

/// What one workload episode runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Tasks per round.
    pub k: usize,
    /// Judgments per session.
    pub budget: usize,
    /// Crowd accuracy, simulated and assumed.
    pub pc: f64,
    /// Generated books (sessions) per episode, besides the large ones;
    /// per statement count when `stratify` is set.
    pub books: usize,
    /// Statements per book, inclusive range.
    pub facts: (usize, usize),
    /// Generate `books` books for every statement count in `facts`
    /// instead of drawing counts at random. Selection cost grows as
    /// 2^statements, so a random mix of a few dozen books makes the
    /// work per episode swing with the seed; a fixed mix does not.
    pub stratify: bool,
    /// Extra `BookGenConfig::large(32)` books (sparse priors).
    pub large_books: usize,
    /// Whether the daemon spends one shared pool via `Schedule`.
    pub global_budget: bool,
    /// Whether the daemon journals into a WAL directory.
    pub durable: bool,
    /// Whether requests go to `Service::handle_line` on the driving
    /// thread instead of over TCP.
    pub in_process: bool,
    /// Whether a round's answers arrive as two partial deliveries (a
    /// streaming crowd) rather than one (a batch round trip, as the
    /// offline pipeline collects them).
    pub split_answers: bool,
    /// Cold boots timed per episode for `recover_s`.
    pub recovery_boots: usize,
    /// Offline-pipeline runs per episode for `refine_entities_per_s`.
    /// Small books take tens of milliseconds a run, so a serving episode
    /// runs them several times.
    pub refine_runs: usize,
}

impl Shape {
    /// The per-session round configuration.
    pub fn round(&self) -> RoundConfig {
        RoundConfig::new(self.k, self.budget, self.pc).expect("workload round shapes are valid")
    }

    /// A round's answers, cut into the deliveries the crowd makes.
    pub fn deliveries<'a>(&self, pairs: &'a [(u64, bool)]) -> Vec<&'a [(u64, bool)]> {
        if self.split_answers {
            halves(pairs).to_vec()
        } else {
            vec![pairs]
        }
    }

    /// The daemon configuration for one episode, built through the same
    /// `ServeConfig` validation `serve --config` uses.
    pub fn serve_config(&self, seed: u64, sessions: usize, wal: Option<&Path>) -> ServiceConfig {
        let mut serve = ServeConfig::new()
            .seed(seed)
            .round(self.k, self.budget, self.pc)
            .threads(DAEMON_THREADS)
            .shards(DEFAULT_SHARDS);
        if let Some(dir) = wal {
            serve = serve.wal_dir(&dir.to_string_lossy());
        }
        if self.global_budget {
            serve = serve.global_budget((sessions * self.budget) as u64);
        }
        serve.build().expect("workload serve configs are valid")
    }
}

/// The verb a delivery's latency is recorded under: `absorb` for the one
/// that completes the round, `absorb_partial` for those before it. With
/// two deliveries of a k = 2 round each kind is exactly half of all
/// absorbs, so one pooled p50 would sit on the seam between the cheap
/// partial ones and the round closes, and jump between them.
pub fn absorb_verb(closing: bool) -> &'static str {
    if closing {
        "absorb"
    } else {
        "absorb_partial"
    }
}

/// A round's answers as two partial deliveries, the first one longer.
pub fn halves(pairs: &[(u64, bool)]) -> [&[(u64, bool)]; 2] {
    let cut = pairs.len().div_ceil(2);
    [&pairs[..cut], &pairs[cut..]]
}

/// The seed of episode `episode` of a run seeded `seed`: inputs and the
/// daemon's master seed both derive from it.
pub fn episode_seed(seed: u64, episode: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(episode)
}

/// Generates an episode's datasets: the standard books, plus the large
/// sparse-prior books when the shape asks for them.
pub fn generate_books(shape: &Shape, seed: u64) -> Vec<GeneratedBooks> {
    let dense = |statements: (usize, usize), seed: u64| {
        book::generate(BookGenConfig {
            n_books: shape.books,
            statements_per_book: statements,
            // Wide author lists make the statements format variants of
            // one another, i.e. correlated, as in the large-book scenario.
            authors_per_book: if shape.facts.0 >= 10 {
                (3, 5)
            } else {
                BookGenConfig::default().authors_per_book
            },
            seed,
            ..BookGenConfig::default()
        })
    };
    let mut books = if shape.stratify {
        (shape.facts.0..=shape.facts.1)
            .map(|n| dense((n, n), seed.wrapping_add(n as u64)))
            .collect()
    } else {
        vec![dense(shape.facts, seed)]
    };
    if shape.large_books > 0 {
        books.push(book::generate(BookGenConfig {
            n_books: shape.large_books,
            seed: seed ^ 0x5eed,
            ..BookGenConfig::large(32)
        }));
    }
    books
}

/// Machine fusion of every dataset with the default method.
pub fn fuse(books: &[GeneratedBooks]) -> Result<Vec<FusionResult>, String> {
    books
        .iter()
        .map(|b| fuse_books(b, DEFAULT_METHOD).map_err(|e| format!("fusion failed: {e}")))
        .collect()
}

/// Wire specs of every book, datasets in order.
pub fn specs(books: &[GeneratedBooks], fusions: &[FusionResult]) -> Vec<EntitySpec> {
    books
        .iter()
        .zip(fusions)
        .flat_map(|(b, f)| entity_specs_from_books(b, f))
        .collect()
}

/// The offline refine pipeline `refine --threads 2` runs: fuse →
/// entity cases → `Experiment::run_sharded` on the given pool. Returns the
/// trace, the entity count and the pipeline's wall time in seconds.
pub fn refine_offline(
    books: &[GeneratedBooks],
    shape: &Shape,
    seed: u64,
    pool: &Pool,
) -> Result<(ExperimentTrace, usize, f64), String> {
    let start = Instant::now();
    let fusions = fuse(books)?;
    let mut cases: Vec<EntityCase> = Vec::new();
    for (b, f) in books.iter().zip(&fusions) {
        cases.extend(entity_cases_from_books(b, f).map_err(|e| e.to_string())?);
    }
    let entities = cases.len();
    let experiment = Experiment::new(cases, shape.round()).map_err(|e| e.to_string())?;
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(CROWD_WORKERS, shape.pc).map_err(|e| e.to_string())?,
        UniformAccuracy::new(shape.pc),
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = experiment
        .run_sharded(&GreedySelector::fast(), &mut platform, &mut rng, pool)
        .map_err(|e| format!("run_sharded failed: {e}"))?;
    Ok((trace, entities, start.elapsed().as_secs_f64()))
}

/// Throughput is sampled over stretches of the drive and reported at the
/// stretches' slower quartile, so a burst of interference from outside
/// the process moves one sample instead of the whole figure.
#[derive(Debug)]
pub struct Stretch {
    start: Instant,
    requests: u64,
    answers: u64,
}

impl Stretch {
    /// A stretch starting now.
    pub fn start() -> Stretch {
        Stretch {
            start: Instant::now(),
            requests: 0,
            answers: 0,
        }
    }

    /// Counts completed requests and the answers they delivered.
    pub fn add(&mut self, requests: u64, answers: u64) {
        self.requests += requests;
        self.answers += answers;
    }

    /// Once the stretch holds at least `min` requests (and one), records
    /// its rates and starts the next one.
    pub fn cut(&mut self, min: u64, out: &mut Tally) {
        if self.requests >= min.max(1) {
            let secs = self.start.elapsed().as_secs_f64().max(1e-9);
            out.req_rates.push(self.requests as f64 / secs);
            out.answer_rates.push(self.answers as f64 / secs);
            *self = Stretch::start();
        }
    }
}

/// The end-to-end figures of a run, accumulated over its episodes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every request (or in-process registry call) and its outcome.
    pub requests: Requests,
    /// Wall time of every set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Per `Open` request: microseconds per session it opened.
    pub open_us_per_session: Vec<f64>,
    /// Requests per second of each drive stretch.
    pub req_rates: Vec<f64>,
    /// Accepted crowd answers per second of each drive stretch.
    pub answer_rates: Vec<f64>,
    /// Cold-boot recovery times, seconds.
    pub recover_s: Vec<f64>,
    /// Entities per second of each offline-pipeline run.
    pub refine_rates: Vec<f64>,
    /// Entities the offline pipeline refined to budget.
    pub refined: u64,
    /// Final F1 of each episode's trace.
    pub f1: Vec<f64>,
    /// Output checks: name and outcome.
    pub checks: Vec<(String, bool)>,
    /// Episodes completed.
    pub episodes: u64,
}

impl Tally {
    /// Closes an episode.
    pub fn end_episode(&mut self) {
        self.requests.close_episode();
        self.episodes += 1;
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records one offline-pipeline run of `entities` taking `secs`.
    pub fn refined(&mut self, entities: usize, secs: f64) {
        self.refined += entities as u64;
        self.refine_rates.push(entities as f64 / secs.max(1e-9));
    }

    /// Whether every output check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Requests plus offline entities attempted, and the requests that
    /// failed (a failing offline pipeline ends the run instead).
    pub fn attempted_failed(&self) -> (u64, u64) {
        let total = self.requests.total();
        (total.attempted + self.refined, total.failed)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, with units.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let time = |v: &[f64]| slower_quartile(v, true).unwrap_or(f64::NAN);
        let rate = |v: &[f64]| slower_quartile(v, false).unwrap_or(f64::NAN);
        // A verb's per-episode p50 (or p95), at the episodes' slower quartile.
        let episodes = |verb, figure: fn(&(f64, f64)) -> f64| {
            let v: Vec<f64> = self
                .requests
                .episodes
                .get(verb)
                .map_or_else(Vec::new, |e| e.iter().map(figure).collect());
            time(&v)
        };
        let p50 = |verb| episodes(verb, |e| e.0);
        let tail = |verb| episodes(verb, |e| e.1);
        vec![
            ("setup_s", time(&self.setup_s), "s"),
            ("req_per_s", rate(&self.req_rates), "1/s"),
            ("answers_per_s", rate(&self.answer_rates), "1/s"),
            ("round_p50_us", p50("round"), "us"),
            ("round_p95_us", tail("round"), "us"),
            ("absorb_p50_us", p50("absorb"), "us"),
            ("absorb_p95_us", tail("absorb"), "us"),
            ("open_us_per_session", time(&self.open_us_per_session), "us"),
            ("recover_s", time(&self.recover_s), "s"),
            ("refine_entities_per_s", rate(&self.refine_rates), "1/s"),
            (
                "f1_final",
                self.f1.iter().sum::<f64>() / self.f1.len().max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// Latency detail for the report: verb and summary.
    pub fn latencies(&self) -> Vec<(&'static str, Latency)> {
        self.requests
            .latency_us
            .keys()
            .filter_map(|&verb| Some((verb, self.requests.latency(verb)?)))
            .collect()
    }
}
