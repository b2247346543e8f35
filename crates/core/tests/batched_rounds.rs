//! Property tests for the batched crowd round-trip protocol.
//!
//! Two equalities pin down the determinism contract of
//! [`Experiment::run_sharded`]:
//!
//! 1. **Batched == per-session replay.** `run_sharded` (one
//!    [`RoundBatch`](crowdfusion_crowd::RoundBatch)/`publish_batch` round
//!    trip per global round, answers demuxed from per-entity streams) must
//!    produce the bit-identical quality-vs-cost trace to the same entities
//!    opened in a [`ShardedRegistry`] seeded with the run's master seed and
//!    driven one session at a time: select → [`AnswerReplay::answers`] on
//!    the session's recorded answer seed → absorb. The batched run pays
//!    exactly one platform round trip per *global* round.
//! 2. **Thread invariance on the persistent pool.** `run_sharded` returns
//!    the identical trace for every thread count, because every random
//!    stream (selector and crowd) is a pure function of the entity index
//!    and the master RNG's state on entry — never of scheduling order.
//!
//! Both properties are exercised over the full selector matrix the CLI
//! exposes — `greedy`, `greedy-pre`, `random` — at 1, 2 and 4 threads.

use crowdfusion_core::metrics::QualityPoint;
use crowdfusion_core::pool::Pool;
use crowdfusion_core::round::{EntityCase, RoundConfig};
use crowdfusion_core::selection::{GreedySelector, RandomSelector, TaskSelector};
use crowdfusion_core::session::{EntitySpec, SelectOutcome};
use crowdfusion_core::shard::ShardedRegistry;
use crowdfusion_core::system::Experiment;
use crowdfusion_crowd::{AnswerReplay, CostLedger, CrowdPlatform, UniformAccuracy, WorkerPool};
use crowdfusion_jointdist::{Assignment, JointDist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated crowd size, shared by the platform and the replays.
const WORKERS: usize = 8;

/// The CLI's selector matrix (`refine --selector greedy|greedy-pre|random`),
/// each built on the given pool so its own candidate scans shard too.
fn selectors(pool: &Pool) -> Vec<(&'static str, Box<dyn TaskSelector>)> {
    vec![
        (
            "greedy",
            Box::new(GreedySelector::fast().with_pool(pool.clone())),
        ),
        (
            "greedy-pre",
            Box::new(
                GreedySelector::fast()
                    .with_preprocess()
                    .with_pool(pool.clone()),
            ),
        ),
        ("random", Box::new(RandomSelector)),
    ]
}

/// Deterministic entities derived from `seed`: 3–4 small independent-fact
/// specs with distinct sizes and gold truths.
fn specs_from_seed(seed: u64) -> Vec<EntitySpec> {
    let mut gen = StdRng::seed_from_u64(seed);
    let entities = 3 + (seed as usize) % 2;
    (0..entities)
        .map(|e| {
            let n = 2 + (e + seed as usize) % 3;
            let marginals: Vec<f64> = (0..n).map(|_| gen.gen_range(0.05..0.95)).collect();
            let gold: Vec<bool> = (0..n).map(|_| gen.gen_bool(0.5)).collect();
            EntitySpec::simple(format!("e{e}"), marginals, gold)
        })
        .collect()
}

/// The experiment over the cases `specs` build.
fn experiment(specs: &[EntitySpec], pc: f64) -> Experiment {
    let cases = specs
        .iter()
        .map(|s| s.clone().into_case().unwrap())
        .collect();
    Experiment::new(cases, RoundConfig::new(2, 6, pc).unwrap()).unwrap()
}

fn platform(pc: f64, seed: u64) -> CrowdPlatform<UniformAccuracy> {
    CrowdPlatform::new(
        WorkerPool::uniform(WORKERS, pc).unwrap(),
        UniformAccuracy::new(pc),
        seed,
    )
}

/// The master seed of a run derived from `seed`.
fn master_seed(seed: u64) -> u64 {
    seed ^ 0x5eed_cafe
}

/// One batched run: trace points + final ledger.
type RunOutcome = (Vec<QualityPoint>, CostLedger);

fn run_batched(
    exp: &Experiment,
    selector: &dyn TaskSelector,
    pc: f64,
    seed: u64,
    pool: &Pool,
) -> RunOutcome {
    let mut p = platform(pc, seed);
    let mut master = StdRng::seed_from_u64(master_seed(seed));
    let trace = exp
        .run_sharded(selector, &mut p, &mut master, pool)
        .unwrap();
    (trace.points, p.ledger())
}

/// The reference: a registry seeded with the run's master seed, opened
/// with the specs `exp` was built from, every session driven to exhaustion
/// on its own — select, answer from the session's recorded seed, absorb.
fn per_session_replay(
    specs: &[EntitySpec],
    exp: &Experiment,
    selector: &dyn TaskSelector,
    pc: f64,
    seed: u64,
    pool: &Pool,
) -> Vec<QualityPoint> {
    let registry = ShardedRegistry::new(master_seed(seed), exp.config(), pool.clone(), 1);
    let opened = registry.open_batch(specs.to_vec(), None).unwrap();
    let workers = WorkerPool::uniform(WORKERS, pc).unwrap();
    let model = UniformAccuracy::new(pc);
    for (info, case) in opened.iter().zip(exp.cases()) {
        let mut replay = AnswerReplay::from_seed(info.answer_seed);
        while let SelectOutcome::Round(round) = registry.select(info.session, selector).unwrap() {
            let (tasks, truths) = round.into_crowd_batch(case.gold);
            let answers = replay.answers(&workers, &model, &tasks, &truths).unwrap();
            let judgments: Vec<(u64, bool)> = answers.iter().map(|a| (a.task.0, a.value)).collect();
            registry.absorb(info.session, &judgments).unwrap();
        }
    }
    registry.trace(selector.name()).points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_and_per_entity_protocols_are_bit_identical(
        (seed, pc) in (0u64..1000, 0.6f64..=0.95),
    ) {
        let specs = specs_from_seed(seed);
        let exp = experiment(&specs, pc);
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for (name, selector) in selectors(&pool) {
                let (batched, ledger) = run_batched(&exp, selector.as_ref(), pc, seed, &pool);
                let replayed =
                    per_session_replay(&specs, &exp, selector.as_ref(), pc, seed, &pool);
                // Identical quality-vs-cost series and judgment spend...
                prop_assert_eq!(
                    &batched, &replayed,
                    "{} diverged from the per-session replay at {} threads", name, threads
                );
                prop_assert_eq!(ledger.judgments, batched.last().unwrap().cost);
                // ...while the batched protocol pays exactly one round trip
                // per global round (= trace points minus the prior point).
                prop_assert_eq!(ledger.batches as usize, batched.len() - 1);
            }
        }
    }

    #[test]
    fn batched_traces_are_thread_count_invariant(
        (seed, pc) in (0u64..1000, 0.6f64..=0.95),
    ) {
        let exp = experiment(&specs_from_seed(seed), pc);
        let reference_pool = Pool::serial();
        let reference: Vec<RunOutcome> = selectors(&reference_pool)
            .iter()
            .map(|(_, s)| run_batched(&exp, s.as_ref(), pc, seed, &reference_pool))
            .collect();
        for threads in [2usize, 4] {
            let pool = Pool::new(threads);
            for ((name, selector), expect) in selectors(&pool).iter().zip(&reference) {
                let got = run_batched(&exp, selector.as_ref(), pc, seed, &pool);
                prop_assert_eq!(
                    &got, expect,
                    "{} not thread-invariant at {} threads", name, threads
                );
            }
        }
    }
}

/// Non-proptest sanity check on the paper's running example: one pool
/// serves nested submissions (sharded entities whose selectors also shard
/// their candidate scans on the same workers) and reproduces the serial
/// trace point for point, one platform round trip per global round.
#[test]
fn running_example_batched_rounds_reuse_one_pool() {
    let cases = vec![
        EntityCase::simple(
            "hk",
            crowdfusion_jointdist::presets::paper_running_example(),
            Assignment(0b0111),
        ),
        EntityCase::simple("coin", JointDist::uniform(3).unwrap(), Assignment(0b101)),
    ];
    let config = RoundConfig::new(2, 8, 0.8).unwrap();
    let exp = Experiment::new(cases, config).unwrap();
    let pool = Pool::new(4);
    let selector = GreedySelector::fast().with_pool(pool.clone());
    let (pooled, ledger) = run_batched(&exp, &selector, 0.8, 3, &pool);
    let (serial, _) = run_batched(&exp, &GreedySelector::fast(), 0.8, 3, &Pool::serial());
    assert_eq!(pooled, serial);
    assert_eq!(ledger.judgments, 16);
    assert_eq!(ledger.batches, 4); // one per global round
}
