//! The offline workload: the pipeline `refine --threads 2` runs, checked
//! against a replay of the same entities through the session registry.

use crate::serve::{crowd, crowd_answers, recover_from_snapshot, SETUP_SAMPLES};
use crate::workload::{
    absorb_verb, episode_seed, fuse, generate_books, refine_offline, specs, Shape, Stretch, Tally,
    DAEMON_THREADS,
};
use crowdfusion::core::pool::Pool;
use crowdfusion::core::selection::{GreedySelector, TaskSelector};
use crowdfusion::core::session::SelectOutcome;
use crowdfusion::core::shard::ShardedRegistry;
use crowdfusion::crowd::AnswerReplay;
use crowdfusion::service::protocol::encode;
use crowdfusion::service::{snapshot, DEFAULT_SHARDS};
use std::path::Path;
use std::time::Instant;

/// One `refine-large` episode. Set-up is datagen plus the 2-thread pool;
/// the timed pipeline is fuse → entity cases → `run_sharded`. The check
/// replays the same specs, seed and answers through a `ShardedRegistry`
/// (open, then per round a select and one absorb, round-robin over
/// sessions) and demands the identical trace; the replay's calls are the
/// workload's in-process requests. Recovery restores the registry's
/// snapshot into a cold in-memory daemon.
pub fn episode(
    shape: &Shape,
    seed: u64,
    episode: u64,
    work: &Path,
    out: &mut Tally,
) -> Result<(), String> {
    let seed = episode_seed(seed, episode);
    let set_up = |out: &mut Tally| {
        let start = Instant::now();
        let books = generate_books(shape, seed);
        let pool = Pool::new(DAEMON_THREADS);
        out.setup_s.push(start.elapsed().as_secs_f64());
        (books, pool)
    };
    for _ in 1..SETUP_SAMPLES {
        drop(set_up(out));
    }
    let (books, pool) = set_up(out);

    let (offline, entities, secs) = refine_offline(&books, shape, seed, &pool)?;
    out.refined(entities, secs);
    out.f1.push(offline.last().f1);

    let specs = specs(&books, &fuse(&books)?);
    let golds: Vec<Vec<bool>> = specs.iter().map(|s| s.gold.clone()).collect();
    let registry = ShardedRegistry::new(seed, shape.round(), pool, DEFAULT_SHARDS);
    let selector = GreedySelector::fast();
    let crowd = crowd(shape);

    let start = Instant::now();
    let opened = registry.open_batch(specs, None);
    let open_us = start.elapsed().as_secs_f64() * 1e6;
    out.requests.record("open", opened.is_ok(), open_us);
    let opened = opened.unwrap_or_default();
    out.open_us_per_session
        .push(open_us / opened.len().max(1) as f64);

    let mut stretch = Stretch::start();
    let mut replays: Vec<AnswerReplay> = opened
        .iter()
        .map(|s| AnswerReplay::from_seed(s.answer_seed))
        .collect();
    let mut live: Vec<usize> = (0..opened.len()).collect();
    while !live.is_empty() {
        let mut next = Vec::with_capacity(live.len());
        for i in live {
            let session = opened[i].session;
            let start = Instant::now();
            let selected = registry.select(session, &selector);
            let us = start.elapsed().as_secs_f64() * 1e6;
            out.requests.record("round", selected.is_ok(), us);
            let Ok(selected) = selected else { continue };
            stretch.add(1, 0);
            let SelectOutcome::Round(round) = selected else {
                continue;
            };
            let pairs = crowd_answers(&mut replays[i], &crowd, &round.tasks, &golds[i]);
            let deliveries = shape.deliveries(&pairs);
            let last = deliveries.len() - 1;
            for (j, batch) in deliveries.into_iter().enumerate() {
                let start = Instant::now();
                let absorbed = registry.absorb(session, batch);
                let us = start.elapsed().as_secs_f64() * 1e6;
                out.requests
                    .record(absorb_verb(j == last), absorbed.is_ok(), us);
                if let Ok(report) = absorbed {
                    stretch.add(1, report.accepted as u64);
                }
            }
            next.push(i);
        }
        live = next;
    }
    stretch.cut(0, out);

    let replayed = registry.trace(selector.name());
    out.check(
        "offline trace equals its shadow-registry replay",
        encode(&replayed) == encode(&offline),
    );
    let path = work.join("refine-large.snapshot.json");
    snapshot::save(&registry.snapshot(), &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let config = shape.serve_config(seed, opened.len(), None);
    recover_from_snapshot(shape, &config, &path, &offline, out)?;
    let _ = std::fs::remove_file(&path);
    out.end_episode();
    Ok(())
}
