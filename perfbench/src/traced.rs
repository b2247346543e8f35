//! The traced run: per-layer timings, measured from outside.
//!
//! Each episode drives the workload's request stream in-process through
//! `decode_framed` → `Service::handle` → `encode_framed` (the body of
//! `Service::handle_line`), recording every call as a span. Beside it:
//!
//! * a twin daemon answers the same lines through `handle_line` with no
//!   spans — the untraced reference for the layer-sum check and the
//!   tracing overhead (its replies must match byte for byte);
//! * a shadow `ShardedRegistry` is fed the same specs, seeds and answers;
//!   by the determinism contract it selects the same tasks, and its calls
//!   time the registry layer (`shard.*`), so `Service::handle` minus the
//!   shadow call is the dispatch layer's own time;
//! * the round's posterior is put through the kernels the daemon runs:
//!   greedy selection, the scheduler's gain, and the three round-close
//!   passes (posterior merge, entropy, marginals);
//! * the crowd's answers come from `AnswerReplay` and, for the same tasks,
//!   from `CrowdPlatform::publish_batch` (they must agree);
//! * afterwards the stream's effects are replayed into a scratch journal
//!   and the shadow registry is snapshotted and recovered durably;
//! * finally the same requests go over TCP to a fresh daemon, untraced,
//!   so transport self time is round trip minus in-process `handle_line`.

use crate::serve::{crowd, crowd_answers, crowd_tasks, Daemon};
use crate::spans::{totals, Tracer};
use crate::stats::{median, Requests};
use crate::workload::{episode_seed, fuse, generate_books, halves, specs, Shape, Workload};
use crate::{run_episodes, Metrics, Outcome};
use crowdfusion::core::answers::posterior_in_place;
use crowdfusion::core::pool::Pool;
use crowdfusion::core::sched::{entity_gain, GainQueue};
use crowdfusion::core::selection::{GreedySelector, TaskSelector};
use crowdfusion::core::session::{OpenedSession, PublishedTask, SelectOutcome};
use crowdfusion::core::shard::ShardedRegistry;
use crowdfusion::core::MAX_DENSE_FACTS;
use crowdfusion::crowd::{
    AnswerReplay, AnswerStreams, CrowdPlatform, RoundBatch, UniformAccuracy, WorkerPool,
};
use crowdfusion::service::durable::{self, Durability, JOURNAL_FILE, SNAPSHOT_FILE};
use crowdfusion::service::journal::{Effect, JournalWriter, Record};
use crowdfusion::service::protocol::{
    decode_framed, encode, encode_framed, Request, Response, WireAnswer,
};
use crowdfusion::service::{
    Client, DurabilityConfig, DurableSnapshot, FaultPlan, Service, DEFAULT_SHARDS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The per-layer metrics, in `BENCHMARK.json` order: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.transport_self_us.open", "us"),
    ("server.transport_self_us.round", "us"),
    ("server.transport_self_us.absorb", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("service.handle_open_us", "us"),
    ("service.handle_round_us", "us"),
    ("service.handle_absorb_us", "us"),
    ("service.dispatch_self_us", "us"),
    ("journal.append_us", "us"),
    ("journal.sync_us", "us"),
    ("journal.bytes_per_effect", "B"),
    ("durable.snapshot_ms", "ms"),
    ("durable.snapshot_bytes", "B"),
    ("durable.recover_ms", "ms"),
    ("shard.open_us_per_session", "us"),
    ("shard.select_us", "us"),
    ("shard.absorb_partial_us", "us"),
    ("shard.absorb_close_us", "us"),
    ("prior.dense_build_us", "us"),
    ("prior.support", "count"),
    ("selection.select_us", "us"),
    ("jointdist.posterior_us", "us"),
    ("jointdist.entropy_us", "us"),
    ("jointdist.marginals_us", "us"),
    ("sched.entity_gain_us", "us"),
    ("sched.queue_us", "us"),
    ("fusion.fuse_ms", "ms"),
    ("crowd.replay_us", "us"),
    ("crowd.publish_batch_us", "us"),
    ("datagen.generate_ms", "ms"),
    ("trace.traced_request_us", "us"),
    ("trace.untraced_request_us", "us"),
];

/// The layer-sum check's tolerance: per verb, decode + handle + encode
/// must be within this share of `handle_line` on the same lines.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

/// Specs per `Open` in the traced run. Smaller than the untraced
/// workloads' 512 so that every episode yields several `Open` samples:
/// one `Open` builds its priors on the daemon's pool, and its time on the
/// traced and the twin daemon can differ by a fifth when the pool's
/// threads are descheduled, which a handful of samples cannot average.
const TRACED_OPEN_BATCH: usize = 64;

/// Everything the traced episodes accumulate.
#[derive(Default)]
struct Acc {
    tracer: Tracer,
    next_request: u64,
    requests: Requests,
    /// Untraced round trips over TCP, µs by verb.
    rtt_us: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced in-process `handle_line`, µs by verb.
    line_us: BTreeMap<&'static str, Vec<f64>>,
    /// Per verb and request: decode + handle + encode, and `handle_line`, ns.
    layer_sum_ns: BTreeMap<&'static str, Vec<(u64, u64)>>,
    /// `Service::handle` minus the shadow registry call, ns, per request.
    dispatch_self_ns: Vec<f64>,
    /// Traced request span and untraced `handle_line`, ns, per request.
    traced_ns: u64,
    untraced_ns: u64,
    request_bytes: u64,
    response_bytes: u64,
    journal_bytes: u64,
    effects: u64,
    snapshot_bytes: Vec<f64>,
    support: u64,
    priors: u64,
    sessions_opened: u64,
    checks: Vec<(String, bool)>,
}

impl Acc {
    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

/// The two in-process daemons and the shadow, for one episode.
struct Rig {
    traced: Service,
    twin: Service,
    shadow: ShardedRegistry,
    selector: GreedySelector,
}

fn handle_span(verb: &'static str) -> &'static str {
    match verb {
        "open" => "service.handle.open",
        "round" => "service.handle.round",
        _ => "service.handle.absorb",
    }
}

/// Sends one request line through the traced daemon (split into its
/// layers, with spans) and the twin (`handle_line`, untimed layers);
/// returns the response and the `Service::handle` time in ns.
fn step(
    acc: &mut Acc,
    rig: &Rig,
    stream: &mut Vec<(&'static str, Request, Response)>,
    verb: &'static str,
    request: Request,
) -> (Response, u64) {
    let line = encode(&request);
    acc.next_request += 1;
    acc.tracer.set_request(acc.next_request);
    // Alternate which daemon sees the line first, so neither always runs
    // on caches (and allocator pages) the other just warmed. The order
    // follows a Gray code of the verb's own count: a plain per-verb
    // parity would lock onto a fixed order for a verb sent an even number
    // of times per episode, such as `Open`.
    let n = acc.requests.counts.get(verb).map_or(0, |c| c.attempted);
    let twin_first = (n ^ (n >> 1)) & 1 == 1;
    let twin = || {
        let start = Instant::now();
        let reply = rig.twin.handle_line(&line);
        (reply, start.elapsed().as_nanos() as u64)
    };
    let first = twin_first.then(twin);
    let root = acc.tracer.enter("request");
    let ((framing, decoded), decode_ns) =
        acc.tracer.time("protocol.decode", || decode_framed(&line));
    let (response, handle_ns) = match decoded {
        Ok(req) => acc
            .tracer
            .time(handle_span(verb), || rig.traced.handle(req)),
        Err(refusal) => (refusal, 0),
    };
    let (reply, encode_ns) = acc
        .tracer
        .time("protocol.encode", || encode_framed(framing, &response));
    let traced_ns = acc.tracer.exit(root);
    let (twin_reply, line_ns) = first.unwrap_or_else(twin);

    if reply != twin_reply {
        acc.check("traced and untraced daemons reply identically", false);
    }
    acc.layer_sum_ns
        .entry(verb)
        .or_default()
        .push((decode_ns + handle_ns + encode_ns, line_ns));
    acc.traced_ns += traced_ns;
    acc.untraced_ns += line_ns;
    acc.line_us
        .entry(verb)
        .or_default()
        .push(line_ns as f64 / 1e3);
    acc.request_bytes += line.len() as u64 + 1;
    acc.response_bytes += reply.len() as u64 + 1;
    let ok = !matches!(
        response,
        Response::Error { .. } | Response::UnsupportedVersion { .. }
    );
    acc.requests.record(verb, ok, line_ns as f64 / 1e3);
    stream.push((verb, request, response.clone()));
    (response, handle_ns)
}

/// Per-session client state: the opened session and its crowd stream.
struct Lane {
    info: OpenedSession,
    replay: AnswerReplay,
}

/// One traced episode.
fn episode(shape: &Shape, seed: u64, index: u64, work: &Path, acc: &mut Acc) -> Result<(), String> {
    let seed = episode_seed(seed, index);
    acc.tracer.set_request(0);
    let (books, _) = acc
        .tracer
        .time("datagen.generate", || generate_books(shape, seed));
    let (fusions, _) = acc.tracer.time("fusion.fuse", || fuse(&books));
    let specs = specs(&books, &fusions?);
    let grant = specs.len() * shape.budget;

    let wal = |name: &str| {
        let dir = work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (wal_traced, wal_twin, wal_tcp) = (wal("traced.wal"), wal("twin.wal"), wal("tcp.wal"));
    let boot = |dir: &Path| {
        Service::new(shape.serve_config(seed, specs.len(), wal_of(shape, dir)))
            .map_err(|e| format!("daemon boot failed: {e}"))
    };
    let rig = Rig {
        traced: boot(&wal_traced)?,
        twin: boot(&wal_twin)?,
        shadow: ShardedRegistry::new(seed, shape.round(), Pool::new(2), DEFAULT_SHARDS),
        selector: GreedySelector::fast(),
    };
    let crowd = crowd(shape);
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(crate::workload::CROWD_WORKERS, shape.pc)
            .expect("valid crowd accuracy"),
        UniformAccuracy::new(shape.pc),
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream: Vec<(&'static str, Request, Response)> = Vec::new();
    let mut effects: Vec<Effect> = Vec::new();
    let mut queue = GainQueue::new();

    // Open, in batches; the shadow opens the same batch, and every spec's
    // prior is built once more on its own to time the prior layer.
    let mut lanes: Vec<Lane> = Vec::new();
    for chunk in specs.chunks(TRACED_OPEN_BATCH) {
        let request = Request::Open {
            request: None,
            entities: chunk.to_vec(),
            k: None,
            budget: None,
            pc: None,
        };
        let (response, handle_ns) = step(acc, &rig, &mut stream, "open", request);
        let (shadow, shard_ns) = acc.tracer.time("shard.open_batch", || {
            rig.shadow.open_batch(chunk.to_vec(), None)
        });
        acc.dispatch_self_ns
            .push(handle_ns as f64 - shard_ns as f64);
        let Response::Opened { sessions } = response else {
            acc.check("open succeeds", false);
            return Ok(());
        };
        acc.check(
            "shadow opens the same sessions",
            shadow.as_ref().ok() == Some(&sessions),
        );
        for spec in chunk {
            let name = if spec.marginals.len() <= MAX_DENSE_FACTS {
                "prior.build.dense"
            } else {
                "prior.build.sparse"
            };
            let (case, _) = acc.tracer.time(name, || spec.clone().into_case());
            acc.support += case.map_or(0, |c| c.prior.support_size() as u64);
            acc.priors += 1;
        }
        effects.push(Effect::Open {
            request: None,
            entities: chunk.to_vec(),
            k: None,
            budget: None,
            pc: None,
        });
        acc.sessions_opened += sessions.len() as u64;
        lanes.extend(sessions.into_iter().map(|info| Lane {
            replay: AnswerReplay::from_seed(info.answer_seed),
            info,
        }));
    }
    let mut streams = AnswerStreams::from_seeds(lanes.iter().map(|l| l.info.answer_seed));
    for lane in &lanes {
        let session = lane.info.session;
        let dist = rig
            .shadow
            .with_session(session, |s| s.posterior().clone())
            .map_err(|e| e.to_string())?;
        let (gain, _) = acc
            .tracer
            .time("sched.entity_gain", || entity_gain(&dist, shape.pc));
        if let Ok(Some((fact, gain))) = gain {
            acc.tracer
                .time("sched.queue", || queue.insert(session, fact, gain));
        }
    }

    // Drive: per-session daemons go session by session (as the untraced
    // drive does); the global daemon is asked to `Schedule` until done.
    let mut remaining = grant;
    let mut order = (0..lanes.len()).collect::<Vec<_>>().into_iter();
    let mut current = order.next();
    loop {
        let request = if shape.global_budget {
            Request::Schedule { request: None }
        } else {
            match current {
                Some(i) => Request::Select {
                    session: lanes[i].info.session,
                },
                None => break,
            }
        };
        let (response, handle_ns) = step(acc, &rig, &mut stream, "round", request);
        let (session, tasks) = match response {
            Response::Round { session, tasks, .. } => (session, tasks),
            Response::Exhausted { session, .. } => {
                let (_, shard_ns) = acc
                    .tracer
                    .time("shard.select", || rig.shadow.select(session, &rig.selector));
                acc.dispatch_self_ns
                    .push(handle_ns as f64 - shard_ns as f64);
                effects.push(Effect::Select { session });
                current = order.next();
                continue;
            }
            Response::NoWork { .. } => break,
            other => {
                acc.check(&format!("round request answered: {other:?}"), false);
                break;
            }
        };
        let cap = shape.global_budget.then_some(remaining);
        let (shadow, shard_ns) = acc.tracer.time("shard.select", || {
            rig.shadow.select_capped(session, &rig.selector, cap)
        });
        acc.dispatch_self_ns
            .push(handle_ns as f64 - shard_ns as f64);
        let same = matches!(&shadow, Ok(SelectOutcome::Round(r)) if r.tasks == tasks);
        acc.check("shadow selects the same tasks", same);
        effects.push(match cap {
            Some(cap) => Effect::Schedule {
                request: None,
                session,
                cap,
            },
            None => Effect::Select { session },
        });
        remaining = remaining.saturating_sub(tasks.len());
        round_kernels(acc, &rig, shape, &mut rng, &mut queue, session, &tasks)?;

        let Some(i) = lanes.iter().position(|l| l.info.session == session) else {
            acc.check("scheduled session is known", false);
            break;
        };
        let gold = &specs[i].gold;
        let (pairs, _) = acc.tracer.time("crowd.replay", || {
            crowd_answers(&mut lanes[i].replay, &crowd, &tasks, gold)
        });
        let mut batch = RoundBatch::new();
        batch.push_group(
            i,
            crowd_tasks(&tasks),
            tasks.iter().map(|t| gold[t.fact]).collect(),
        );
        let (published, _) = acc.tracer.time("crowd.publish_batch", || {
            platform.publish_batch(&batch, &mut streams)
        });
        let agrees = published.is_ok_and(|p| {
            p.len() == 1
                && p[0]
                    .iter()
                    .map(|a| (a.task.0, a.value))
                    .eq(pairs.iter().copied())
        });
        acc.check("publish_batch answers like the replay", agrees);

        // Always two partial deliveries, so every workload exercises both
        // the partial and the closing absorb.
        let parts = halves(&pairs);
        for (j, part) in parts.iter().enumerate() {
            let closing = j + 1 == parts.len();
            let mut closed_dist = None;
            if closing {
                closed_dist = Some(close_kernels(acc, &rig, shape, session, &tasks, &pairs)?);
            }
            let answers: Vec<WireAnswer> = part
                .iter()
                .map(|&(task, value)| WireAnswer { task, value })
                .collect();
            let (_, handle_ns) = step(
                acc,
                &rig,
                &mut stream,
                "absorb",
                Request::Absorb {
                    session,
                    answers: answers.clone(),
                },
            );
            let span = if closing {
                "shard.absorb_close"
            } else {
                "shard.absorb_partial"
            };
            let (_, shard_ns) = acc.tracer.time(span, || rig.shadow.absorb(session, part));
            acc.dispatch_self_ns
                .push(handle_ns as f64 - shard_ns as f64);
            effects.push(Effect::Absorb { session, answers });
            if let Some(dist) = closed_dist {
                let (gain, _) = acc
                    .tracer
                    .time("sched.entity_gain", || entity_gain(&dist, shape.pc));
                if let Ok(Some((fact, gain))) = gain {
                    acc.tracer
                        .time("sched.queue", || queue.insert(session, fact, gain));
                }
            }
        }
    }

    let traces: Vec<String> = [&rig.traced, &rig.twin]
        .iter()
        .map(|s| match s.handle(Request::Trace) {
            Response::Trace { trace } => encode(&trace),
            other => format!("{other:?}"),
        })
        .collect();
    let shadow_trace = encode(&rig.shadow.trace(rig.selector.name()));
    acc.check(
        "traced, untraced and shadow traces agree",
        traces[0] == traces[1] && traces[0] == shadow_trace,
    );
    drop(rig.traced);
    drop(rig.twin);

    replay_journal(acc, &effects, &wal("journal.replay"))?;
    durable_probe(acc, &rig.shadow, &wal("durable.probe"))?;
    tcp_pass(
        acc,
        shape,
        seed,
        specs.len(),
        &stream,
        wal_of(shape, &wal_tcp),
    )?;
    for dir in [wal_traced, wal_twin, wal_tcp] {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// The daemon's WAL directory, when the shape is durable.
fn wal_of<'a>(shape: &Shape, dir: &'a Path) -> Option<&'a Path> {
    shape.durable.then_some(dir)
}

/// The kernels a freshly opened round costs: greedy selection on the
/// session's posterior and the scheduler taking the session off its queue.
fn round_kernels(
    acc: &mut Acc,
    rig: &Rig,
    shape: &Shape,
    rng: &mut StdRng,
    queue: &mut GainQueue,
    session: u64,
    tasks: &[PublishedTask],
) -> Result<(), String> {
    let dist = rig
        .shadow
        .with_session(session, |s| s.posterior().clone())
        .map_err(|e| e.to_string())?;
    let (selected, _) = acc.tracer.time("selection.select", || {
        rig.selector.select(&dist, shape.pc, tasks.len(), rng)
    });
    let facts: Vec<usize> = tasks.iter().map(|t| t.fact).collect();
    acc.check(
        "greedy selection picks the round's facts",
        selected.is_ok_and(|s| s == facts),
    );
    acc.tracer.time("sched.queue", || queue.remove(session));
    Ok(())
}

/// The three round-close passes on a copy of the session's posterior:
/// merge the answers, then the entropy and marginals the round's record
/// needs. Returns the merged posterior.
fn close_kernels(
    acc: &mut Acc,
    rig: &Rig,
    shape: &Shape,
    session: u64,
    tasks: &[PublishedTask],
    pairs: &[(u64, bool)],
) -> Result<crowdfusion::jointdist::JointDist, String> {
    let mut dist = rig
        .shadow
        .with_session(session, |s| s.posterior().clone())
        .map_err(|e| e.to_string())?;
    let facts: Vec<usize> = tasks.iter().map(|t| t.fact).collect();
    let judgments: Vec<bool> = tasks
        .iter()
        .map(|t| pairs.iter().find(|p| p.0 == t.id).is_some_and(|p| p.1))
        .collect();
    let (merged, _) = acc.tracer.time("jointdist.posterior", || {
        posterior_in_place(&mut dist, &facts, &judgments, shape.pc)
    });
    merged.map_err(|e| e.to_string())?;
    acc.tracer
        .time("jointdist.entropy", || std::hint::black_box(dist.entropy()));
    acc.tracer.time("jointdist.marginals", || {
        std::hint::black_box(dist.marginals())
    });
    Ok(dist)
}

/// Appends the episode's effects to a scratch journal, syncing after
/// every record (the default durability).
fn replay_journal(acc: &mut Acc, effects: &[Effect], dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut writer = JournalWriter::open(&dir.join(JOURNAL_FILE), 0, usize::MAX, FaultPlan::none())
        .map_err(|e| format!("journal open failed: {e}"))?;
    acc.tracer.set_request(0);
    for (i, effect) in effects.iter().enumerate() {
        let record = Record {
            seq: i as u64 + 1,
            effect: effect.clone(),
        };
        let before = writer.len_bytes();
        let (appended, _) = acc.tracer.time("journal.append", || writer.append(&record));
        let (synced, _) = acc.tracer.time("journal.sync", || writer.sync());
        appended
            .and(synced)
            .map_err(|e| format!("journal write failed: {e}"))?;
        acc.journal_bytes += writer.len_bytes() - before;
        acc.effects += 1;
    }
    let read = crowdfusion::service::journal::read_journal(&dir.join(JOURNAL_FILE))
        .map_err(|e| e.to_string())?;
    acc.check(
        "journal replays every effect",
        read.records.len() == effects.len() && !read.torn,
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Snapshots the shadow registry through the durability engine and
/// recovers it.
fn durable_probe(acc: &mut Acc, shadow: &ShardedRegistry, dir: &Path) -> Result<(), String> {
    let recovery = durable::recover(dir).map_err(|e| e.to_string())?;
    let mut engine = Durability::open(DurabilityConfig::new(dir), FaultPlan::none(), &recovery)
        .map_err(|e| format!("durability open failed: {e}"))?;
    let snapshot = DurableSnapshot {
        applied_seq: 0,
        registry: shadow.snapshot(),
        opens: Vec::new(),
        sched: None,
    };
    let (written, _) = acc
        .tracer
        .time("durable.snapshot", || engine.snapshot_now(&snapshot));
    written.map_err(|e| format!("snapshot failed: {e}"))?;
    let bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE))
        .map_err(|e| e.to_string())?
        .len();
    acc.snapshot_bytes.push(bytes as f64);
    let (recovered, _) = acc.tracer.time("durable.recover", || durable::recover(dir));
    let same = recovered.is_ok_and(|r| r.snapshot.as_ref() == Some(&snapshot));
    acc.check("durable snapshot recovers the shadow registry", same);
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Replays the episode's requests over TCP to a fresh daemon, untraced,
/// one connection; replies must equal the in-process ones.
fn tcp_pass(
    acc: &mut Acc,
    shape: &Shape,
    seed: u64,
    sessions: usize,
    stream: &[(&'static str, Request, Response)],
    wal: Option<&Path>,
) -> Result<(), String> {
    let daemon = Daemon::boot(shape.serve_config(seed, sessions, wal))
        .map_err(|e| format!("daemon boot failed: {e}"))?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect failed: {e}"))?;
    client
        .hello()
        .map_err(|e| format!("handshake failed: {e}"))?;
    let mut same = true;
    for (verb, request, expected) in stream {
        let start = Instant::now();
        let reply = client.roundtrip(request);
        acc.rtt_us
            .entry(verb)
            .or_default()
            .push(start.elapsed().as_secs_f64() * 1e6);
        same &= reply.is_ok_and(|r| &r == expected);
    }
    acc.check("TCP replies equal the in-process ones", same);
    daemon.shutdown(&mut client)
}

/// Runs traced episodes for `seconds` and folds them into metrics.
pub fn run(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, String> {
    let mut acc = Acc::default();
    let mut episodes = 0;
    run_episodes(seconds, |index| {
        episodes += 1;
        episode(shape, seed, index, work, &mut acc)
    })?;
    let spans_path = work.join(format!("spans-{}.tsv", workload.name()));
    acc.tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let t = totals(acc.tracer.spans());
    let us = |name: &str| t.get(name).map_or(f64::NAN, |s| s.self_us_per_call());
    let ms = |name: &str| us(name) / 1e3;
    // Both series hold a verb's requests in stream order, so pairing them
    // compares each request with itself: the median difference is not
    // swamped by how much the requests differ from one another.
    let transport = |verb: &str| {
        let (Some(rtt), Some(line)) = (acc.rtt_us.get(verb), acc.line_us.get(verb)) else {
            return f64::NAN;
        };
        let diffs: Vec<f64> = rtt.iter().zip(line).map(|(r, l)| r - l).collect();
        median(&diffs).unwrap_or(f64::NAN)
    };
    let per = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
    let requests = acc.requests.total().attempted;
    // `shard.open_batch` has no child spans: its self time is its wall time.
    let open_batch = t.get("shard.open_batch").map_or(0, |s| s.self_ns);

    println!(
        "== {} traced ({episodes} episodes, spans in {})",
        workload.name(),
        spans_path.display()
    );
    println!("  span self time per call (us):");
    for (name, s) in &t {
        println!(
            "    {name:<26} calls {:>8}  self {:>12.3}",
            s.calls,
            s.self_us_per_call()
        );
    }
    if let Some(sparse) = t.get("prior.build.sparse") {
        println!(
            "  prior.sparse_build_us {:.3} over {} priors",
            sparse.self_us_per_call(),
            sparse.calls
        );
    }
    // Per verb, the median over requests of (decode + handle + encode) /
    // handle_line: a pair of timings of one line, so a request that is
    // slow on both daemons (an `Open` whose pool threads were descheduled)
    // does not tip the comparison, as it would in a sum over few requests.
    let mut sums_ok = true;
    for (verb, pairs) in &acc.layer_sum_ns {
        let ratios: Vec<f64> = pairs
            .iter()
            .map(|&(split, line)| split as f64 / line.max(1) as f64)
            .collect();
        let ratio = median(&ratios).unwrap_or(f64::NAN);
        let ok = (ratio - 1.0).abs() <= LAYER_SUM_TOLERANCE;
        sums_ok &= ok;
        let mean_us = |f: fn(&(u64, u64)) -> u64| {
            pairs.iter().map(f).sum::<u64>() as f64 / 1e3 / pairs.len() as f64
        };
        println!(
            "  layer sum {verb:<7} decode+handle+encode {:.1} us vs handle_line {:.1} us per request; \
             median ratio {ratio:.3} over {} requests {}",
            mean_us(|p| p.0),
            mean_us(|p| p.1),
            pairs.len(),
            if ok { "ok" } else { "OUTSIDE 10%" }
        );
    }
    if !sums_ok {
        println!("  CHECK FAILED: layer sums within 10% of handle_line");
    }
    let dispatch_self =
        acc.dispatch_self_ns.iter().sum::<f64>() / 1e3 / acc.dispatch_self_ns.len().max(1) as f64;
    let traced_req = per(acc.traced_ns, requests) / 1e3;
    let untraced_req = per(acc.untraced_ns, requests) / 1e3;
    println!(
        "  unattributed dispatch (service.dispatch_self_us) {dispatch_self:.3} us per request"
    );
    println!("  tracing overhead {:.3} us per request (traced {traced_req:.3} - untraced {untraced_req:.3})", traced_req - untraced_req);
    for (name, ok) in &acc.checks {
        if !ok {
            println!("  CHECK FAILED: {name}");
        }
    }

    let value = |name: &str| -> f64 {
        match name {
            "server.transport_self_us.open" => transport("open"),
            "server.transport_self_us.round" => transport("round"),
            "server.transport_self_us.absorb" => transport("absorb"),
            "protocol.decode_us" => us("protocol.decode"),
            "protocol.encode_us" => us("protocol.encode"),
            "protocol.request_bytes" => per(acc.request_bytes, requests),
            "protocol.response_bytes" => per(acc.response_bytes, requests),
            "service.handle_open_us" => us("service.handle.open"),
            "service.handle_round_us" => us("service.handle.round"),
            "service.handle_absorb_us" => us("service.handle.absorb"),
            "service.dispatch_self_us" => dispatch_self,
            "journal.append_us" => us("journal.append"),
            "journal.sync_us" => us("journal.sync"),
            "journal.bytes_per_effect" => per(acc.journal_bytes, acc.effects),
            "durable.snapshot_ms" => ms("durable.snapshot"),
            "durable.snapshot_bytes" => median(&acc.snapshot_bytes).unwrap_or(f64::NAN),
            "durable.recover_ms" => ms("durable.recover"),
            "shard.open_us_per_session" => {
                open_batch as f64 / 1e3 / acc.sessions_opened.max(1) as f64
            }
            "shard.select_us" => us("shard.select"),
            "shard.absorb_partial_us" => us("shard.absorb_partial"),
            "shard.absorb_close_us" => us("shard.absorb_close"),
            "prior.dense_build_us" => us("prior.build.dense"),
            "prior.support" => per(acc.support, acc.priors),
            "selection.select_us" => us("selection.select"),
            "jointdist.posterior_us" => us("jointdist.posterior"),
            "jointdist.entropy_us" => us("jointdist.entropy"),
            "jointdist.marginals_us" => us("jointdist.marginals"),
            "sched.entity_gain_us" => us("sched.entity_gain"),
            "sched.queue_us" => us("sched.queue"),
            "fusion.fuse_ms" => ms("fusion.fuse"),
            "crowd.replay_us" => us("crowd.replay"),
            "crowd.publish_batch_us" => us("crowd.publish_batch"),
            "datagen.generate_ms" => ms("datagen.generate"),
            "trace.traced_request_us" => traced_req,
            "trace.untraced_request_us" => untraced_req,
            other => unreachable!("unknown per-layer metric {other}"),
        }
    };
    let metrics: Vec<(String, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), value(name), unit))
        .collect();
    for (name, v, unit) in &metrics {
        println!("  {name:<34} {v:>14.4} {unit}");
    }
    let measured = metrics.iter().all(|(_, v, _)| v.is_finite());
    let total = acc.requests.total();
    Ok(Outcome {
        correct: measured && sums_ok && total.failed == 0 && acc.checks.iter().all(|(_, ok)| *ok),
        attempted: total.attempted,
        failed: total.failed,
        metrics: Metrics(metrics),
    })
}
