//! The serving workloads, driven from outside: the daemon boots in this
//! process on loopback (`ServeConfig` → `Service::new` → `serve_tcp`) and
//! a typed `Client` connection drives it as a closed loop — an integrator
//! that waits for every reply before sending the next request. The
//! in-process variant sends the same request lines straight to
//! `Service::handle_line` on the driving thread: the daemon without its
//! socket.

use crate::stats::Requests;
use crate::workload::{
    absorb_verb, episode_seed, fuse, generate_books, refine_offline, specs, Shape, Stretch, Tally,
    CROWD_WORKERS, OPEN_BATCH,
};
use crowdfusion::core::pool::Pool;
use crowdfusion::core::session::{EntitySpec, OpenedSession, PublishedTask};
use crowdfusion::core::system::ExperimentTrace;
use crowdfusion::crowd::{AnswerReplay, Task, TaskId, UniformAccuracy, WorkerPool};
use crowdfusion::datagen::GeneratedBooks;
use crowdfusion::service::protocol::{decode, encode, Request, Response, WireAnswer};
use crowdfusion::service::{serve_tcp, Client, Service, ServiceConfig};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Set-ups timed per episode — the episode's own plus throwaway ones —
/// so `setup_s` has several samples per episode.
pub const SETUP_SAMPLES: usize = 3;
/// Drive requests per throughput stretch.
const STRETCH_REQUESTS: u64 = 1000;

/// A daemon serving on loopback from a thread of this process. Dropping
/// it without [`Daemon::shutdown`] still stops it: it sends `Shutdown`
/// on a fresh connection and joins the serving thread.
pub struct Daemon {
    /// Where the daemon listens.
    pub addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<usize>>>,
}

impl Daemon {
    /// Boots `config` and starts serving it.
    pub fn boot(config: ServiceConfig) -> io::Result<Daemon> {
        let service = Arc::new(Service::new(config)?);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || serve_tcp(service, listener));
        Ok(Daemon {
            addr,
            thread: Some(thread),
        })
    }

    /// Asks the daemon to stop through `client` and waits for it.
    pub fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let bye = client.roundtrip(&Request::Shutdown);
        let served = self.join();
        match bye {
            Ok(Response::Bye) => served,
            Ok(other) => Err(format!("unexpected shutdown reply {other:?}")),
            Err(e) => Err(format!("shutdown failed: {e}")),
        }
    }

    fn join(&mut self) -> Result<(), String> {
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(_))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon I/O error: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.thread.is_some() {
            if let Ok(mut client) = Client::connect(self.addr) {
                let _ = client.roundtrip(&Request::Shutdown);
            }
            let _ = self.join();
        }
    }
}

/// How the benchmark reaches the daemon.
enum Link {
    /// Over loopback TCP, through the typed client.
    Tcp { daemon: Daemon, client: Client },
    /// On the driving thread, through `Service::handle_line`.
    InProcess(Box<Service>),
}

impl Link {
    /// Boots `config` and connects to it (negotiating the wire version
    /// over TCP).
    fn boot(config: ServiceConfig, in_process: bool) -> Result<Link, String> {
        let boot_failed = |e: io::Error| format!("daemon boot failed: {e}");
        if in_process {
            return Service::new(config)
                .map(|service| Link::InProcess(Box::new(service)))
                .map_err(boot_failed);
        }
        let daemon = Daemon::boot(config).map_err(boot_failed)?;
        let mut client =
            Client::connect(daemon.addr).map_err(|e| format!("connect failed: {e}"))?;
        client
            .hello()
            .map_err(|e| format!("version handshake failed: {e}"))?;
        Ok(Link::Tcp { daemon, client })
    }

    /// Sends one request and reads its response; the in-process link
    /// encodes and decodes the lines as the client does.
    fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        match self {
            Link::Tcp { client, .. } => client.roundtrip(request),
            Link::InProcess(service) => decode(&service.handle_line(&encode(request)))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Stops the daemon.
    fn shutdown(self) -> Result<(), String> {
        match self {
            Link::Tcp { daemon, mut client } => daemon.shutdown(&mut client),
            Link::InProcess(_) => Ok(()),
        }
    }
}

/// A response the request did not ask for, as a failure.
fn refused(response: Response) -> io::Error {
    io::Error::other(format!("refused: {response:?}"))
}

/// The simulated crowd of a shape.
pub fn crowd(shape: &Shape) -> (WorkerPool, UniformAccuracy) {
    (
        WorkerPool::uniform(CROWD_WORKERS, shape.pc).expect("valid crowd accuracy"),
        UniformAccuracy::new(shape.pc),
    )
}

/// A published round's tasks as the crowd sees them.
pub fn crowd_tasks(tasks: &[PublishedTask]) -> Vec<Task> {
    tasks
        .iter()
        .map(|t| Task {
            id: TaskId(t.id),
            prompt: t.prompt.clone(),
            class: t.class,
        })
        .collect()
}

/// The crowd's answers for a published round, as `(task id, judgment)`
/// pairs, replayed from the session's answer seed.
pub fn crowd_answers(
    replay: &mut AnswerReplay,
    crowd: &(WorkerPool, UniformAccuracy),
    tasks: &[PublishedTask],
    gold: &[bool],
) -> Vec<(u64, bool)> {
    let truths: Vec<bool> = tasks.iter().map(|t| gold[t.fact]).collect();
    replay
        .answers(&crowd.0, &crowd.1, &crowd_tasks(tasks), &truths)
        .expect("replayed rounds are well formed")
        .iter()
        .map(|a| (a.task.0, a.value))
        .collect()
}

/// Times one request; records it under `verb`.
fn timed<T>(
    req: &mut Requests,
    verb: &'static str,
    f: impl FnOnce() -> io::Result<T>,
) -> Option<T> {
    let start = Instant::now();
    let result = f();
    req.record(verb, result.is_ok(), start.elapsed().as_secs_f64() * 1e6);
    result.ok()
}

/// Delivers a round's answers in the shape's deliveries.
fn deliver(
    shape: &Shape,
    out: &mut Tally,
    stretch: &mut Stretch,
    link: &mut Link,
    session: u64,
    pairs: &[(u64, bool)],
) {
    let deliveries = shape.deliveries(pairs);
    let last = deliveries.len() - 1;
    for (i, batch) in deliveries.into_iter().enumerate() {
        let accepted = timed(&mut out.requests, absorb_verb(i == last), || {
            let answers = batch
                .iter()
                .map(|&(task, value)| WireAnswer { task, value })
                .collect();
            match link.roundtrip(&Request::Absorb { session, answers })? {
                Response::Absorbed { accepted, .. } => Ok(accepted),
                other => Err(refused(other)),
            }
        });
        if let Some(accepted) = accepted {
            stretch.add(1, accepted as u64);
        }
    }
}

/// Everything an episode set up: its inputs and a running daemon.
struct Booted {
    books: Vec<GeneratedBooks>,
    specs: Vec<EntitySpec>,
    config: ServiceConfig,
    link: Link,
}

/// Set-up: datagen, fusion and daemon boot up to a negotiated client
/// connection — everything before the first timed request.
fn set_up(shape: &Shape, seed: u64, wal: Option<&Path>, out: &mut Tally) -> Result<Booted, String> {
    if let Some(dir) = wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    let start = Instant::now();
    let books = generate_books(shape, seed);
    let specs = specs(&books, &fuse(&books)?);
    let config = shape.serve_config(seed, specs.len(), wal);
    let link = Link::boot(config.clone(), shape.in_process)?;
    out.setup_s.push(start.elapsed().as_secs_f64());
    Ok(Booted {
        books,
        specs,
        config,
        link,
    })
}

/// Sets up [`SETUP_SAMPLES`] times and keeps the last daemon: the others
/// are shut down at once and only contribute set-up times.
fn set_up_sampled(
    shape: &Shape,
    seed: u64,
    wal: Option<&Path>,
    out: &mut Tally,
) -> Result<Booted, String> {
    for _ in 1..SETUP_SAMPLES {
        set_up(shape, seed, wal, out)?.link.shutdown()?;
    }
    set_up(shape, seed, wal, out)
}

/// Opens every spec in batches; returns the sessions opened.
fn open_all(b: &mut Booted, out: &mut Tally) -> Vec<OpenedSession> {
    let mut opened = Vec::with_capacity(b.specs.len());
    for chunk in b.specs.chunks(OPEN_BATCH) {
        let link = &mut b.link;
        let start = Instant::now();
        let sessions = timed(&mut out.requests, "open", || {
            let request = Request::Open {
                request: None,
                entities: chunk.to_vec(),
                k: None,
                budget: None,
                pc: None,
            };
            match link.roundtrip(&request)? {
                Response::Opened { sessions } => Ok(sessions),
                other => Err(refused(other)),
            }
        });
        if let Some(sessions) = sessions {
            let us = start.elapsed().as_secs_f64() * 1e6;
            out.open_us_per_session.push(us / chunk.len() as f64);
            opened.extend(sessions);
        }
    }
    opened
}

/// Reads the daemon's trace.
fn served_trace(out: &mut Tally, link: &mut Link) -> Option<ExperimentTrace> {
    match timed(&mut out.requests, "trace", || {
        link.roundtrip(&Request::Trace)
    })? {
        Response::Trace { trace } => Some(trace),
        _ => None,
    }
}

/// Runs the offline pipeline on the episode's books as often as the
/// shape asks; returns the last trace.
fn refine_runs(
    books: &[GeneratedBooks],
    shape: &Shape,
    seed: u64,
    pool: &Pool,
    out: &mut Tally,
) -> Result<ExperimentTrace, String> {
    let mut last = None;
    for _ in 0..shape.refine_runs.max(1) {
        let (trace, entities, secs) = refine_offline(books, shape, seed, pool)?;
        out.refined(entities, secs);
        last = Some(trace);
    }
    Ok(last.expect("at least one refine run"))
}

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot list {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Cold boots of an in-memory daemon restored from a registry snapshot
/// file: each must reproduce `expected` byte for byte.
pub fn recover_from_snapshot(
    shape: &Shape,
    config: &ServiceConfig,
    snapshot: &Path,
    expected: &ExperimentTrace,
    out: &mut Tally,
) -> Result<(), String> {
    let want = encode(expected);
    for _ in 0..shape.recovery_boots {
        let start = Instant::now();
        let service = Service::new(config.clone()).map_err(|e| format!("boot failed: {e}"))?;
        let restored = service.handle(Request::Restore {
            path: snapshot.to_string_lossy().into_owned(),
        });
        out.recover_s.push(start.elapsed().as_secs_f64());
        let trace = match (restored, service.handle(Request::Trace)) {
            (Response::Restored { .. }, Response::Trace { trace }) => Some(trace),
            _ => None,
        };
        out.check(
            "restored daemon reproduces the live trace",
            trace.is_some_and(|t| encode(&t) == want),
        );
    }
    Ok(())
}

/// One `serve-small` (or `serve-large`) episode: an in-memory daemon;
/// the connection drives each session to budget exhaustion (select, then
/// two partial absorbs per round). Checks: the served trace equals the
/// offline `run_sharded` on the same books, seed and 2-thread pool; a
/// daemon restored from the live daemon's snapshot reproduces it.
pub fn small_episode(
    shape: &Shape,
    seed: u64,
    episode: u64,
    work: &Path,
    pool: &Pool,
    out: &mut Tally,
) -> Result<(), String> {
    let seed = episode_seed(seed, episode);
    let mut b = set_up_sampled(shape, seed, None, out)?;
    let opened = open_all(&mut b, out);
    out.check("every session opened", opened.len() == b.specs.len());

    let crowd = crowd(shape);
    let mut stretch = Stretch::start();
    for info in &opened {
        let session = info.session;
        let gold = &b.specs[session as usize].gold;
        let mut replay = AnswerReplay::from_seed(info.answer_seed);
        loop {
            let link = &mut b.link;
            let selected = timed(&mut out.requests, "round", || {
                match link.roundtrip(&Request::Select { session })? {
                    Response::Round { tasks, .. } => Ok(Some(tasks)),
                    Response::Exhausted { .. } => Ok(None),
                    other => Err(refused(other)),
                }
            });
            let tasks = match selected {
                Some(Some(tasks)) => tasks,
                // Exhausted: the session is done.
                Some(None) => {
                    stretch.add(1, 0);
                    break;
                }
                None => break,
            };
            stretch.add(1, 0);
            let pairs = crowd_answers(&mut replay, &crowd, &tasks, gold);
            deliver(shape, out, &mut stretch, &mut b.link, session, &pairs);
        }
        stretch.cut(STRETCH_REQUESTS, out);
    }
    // The rest of the drive is one last, shorter stretch (all of it, on
    // serve-large's few large sessions).
    stretch.cut(0, out);

    let served = served_trace(out, &mut b.link);
    let snapshot = work.join("serve.snapshot.json");
    let snapped = timed(&mut out.requests, "snapshot", || {
        b.link.roundtrip(&Request::Snapshot {
            path: snapshot.to_string_lossy().into_owned(),
        })
    });
    b.link.shutdown()?;

    let offline = refine_runs(&b.books, shape, seed, pool, out)?;
    out.f1.push(offline.last().f1);
    out.check(
        "served trace equals offline run_sharded",
        served
            .as_ref()
            .is_some_and(|s| encode(s) == encode(&offline)),
    );
    out.check(
        "daemon wrote its snapshot",
        matches!(snapped, Some(Response::Snapshotted { .. })),
    );
    if let Some(served) = served {
        recover_from_snapshot(shape, &b.config, &snapshot, &served, out)?;
    }
    let _ = std::fs::remove_file(&snapshot);
    out.end_episode();
    Ok(())
}

/// One `serve-durable` episode: a journalled daemon in global budget mode
/// whose pool covers every session's budget; the connection asks
/// `Schedule` for the best session's round and delivers its answers in
/// two partial absorbs, until `NoWork`. Checks: the ledger ends at
/// `(grant, 0)`; cold boots from a kill-image copy of the WAL reproduce
/// the live trace and ledger byte for byte.
pub fn durable_episode(
    shape: &Shape,
    seed: u64,
    episode: u64,
    work: &Path,
    pool: &Pool,
    out: &mut Tally,
) -> Result<(), String> {
    let seed = episode_seed(seed, episode);
    let wal = work.join("serve-durable.wal");
    let mut b = set_up_sampled(shape, seed, Some(&wal), out)?;
    let opened = open_all(&mut b, out);
    out.check("every session opened", opened.len() == b.specs.len());
    let grant = (b.specs.len() * shape.budget) as u64;

    let crowd = crowd(shape);
    let mut replays: Vec<AnswerReplay> = opened
        .iter()
        .map(|s| AnswerReplay::from_seed(s.answer_seed))
        .collect();
    let mut stretch = Stretch::start();
    loop {
        let link = &mut b.link;
        let round = timed(&mut out.requests, "round", || {
            match link.roundtrip(&Request::Schedule { request: None })? {
                Response::Round { session, tasks, .. } => Ok(Some((session, tasks))),
                Response::NoWork { .. } => Ok(None),
                other => Err(refused(other)),
            }
        });
        let Some(Some((session, tasks))) = round else {
            break;
        };
        stretch.add(1, 0);
        let i = session as usize;
        let pairs = crowd_answers(&mut replays[i], &crowd, &tasks, &b.specs[i].gold);
        deliver(shape, out, &mut stretch, &mut b.link, session, &pairs);
        stretch.cut(STRETCH_REQUESTS, out);
    }

    let ledger = timed(&mut out.requests, "budget", || {
        b.link.roundtrip(&Request::BudgetStatus)
    });
    out.check(
        "global ledger ends at (grant, 0)",
        matches!(ledger, Some(Response::Budget { spent, remaining, .. })
            if (spent, remaining) == (grant, 0)),
    );
    let served = served_trace(out, &mut b.link);
    // The kill image: the WAL directory as a kill -9 would leave it,
    // copied before the graceful shutdown writes its final snapshot.
    let image = work.join("serve-durable.image");
    copy_dir(&wal, &image)?;
    b.link.shutdown()?;

    let want = served.as_ref().map(encode);
    out.f1
        .push(served.as_ref().map_or(f64::NAN, |t| t.last().f1));
    let boot_dir = work.join("serve-durable.boot");
    for _ in 0..shape.recovery_boots {
        copy_dir(&image, &boot_dir)?;
        let mut config = b.config.clone();
        config.durability.as_mut().expect("durable shape").dir = boot_dir.clone();
        let start = Instant::now();
        let service = Service::new(config).map_err(|e| format!("recovery boot failed: {e}"))?;
        out.recover_s.push(start.elapsed().as_secs_f64());
        let trace = match service.handle(Request::Trace) {
            Response::Trace { trace } => Some(encode(&trace)),
            _ => None,
        };
        out.check(
            "recovered trace is byte-identical to the live one",
            trace.is_some() && trace == want,
        );
        out.check(
            "recovered ledger is (grant, 0)",
            matches!(service.handle(Request::BudgetStatus),
                Response::Budget { spent, remaining, .. } if (spent, remaining) == (grant, 0)),
        );
    }
    for dir in [&wal, &image, &boot_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    // The offline pipeline on the same books, for `refine_entities_per_s`.
    let offline = refine_runs(&b.books, shape, seed, pool, out)?;
    out.check(
        "offline refine spends every session's budget",
        offline.last().cost == grant,
    );
    out.end_episode();
    Ok(())
}
