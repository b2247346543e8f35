//! Criterion: greedy evaluator comparison (paper-naive vs the historical
//! per-candidate butterfly rebuild vs Algorithm 2 preprocessing vs the
//! cached-scatter engine, serial and pooled) across fact counts — the
//! ablation behind the DESIGN.md evaluator discussion and the engine
//! speedup gate in EXPERIMENTS.md.
//!
//! `butterfly` reproduces the pre-engine fast path (a from-scratch
//! `answer_entropy` rebuild per candidate — kept here as a live baseline
//! since `GreedySelector`'s butterfly path now always runs through the
//! scatter cache). `engine_t1` isolates the cache win; `engine_tN` adds
//! the candidate pool. The PR gate compares `engine_t4/16` against
//! `butterfly/16`: ≥ 2× required.
//!
//! `greedy_posteriors` times the engine on what most selections see: a
//! posterior two rounds into refinement (12 and 16 dense facts, and a
//! 32-fact sparse book), where the lazy loop's stale-gain bounds prune
//! the most. Its `engine_t1` rows ride the same `--filter engine` gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdfusion_bench::{bench_prior, large_book_case};
use crowdfusion_core::answers::{answer_entropy, posterior_in_place, AnswerEvaluator};
use crowdfusion_core::selection::{GreedySelector, TaskSelector};
use crowdfusion_jointdist::{JointDist, VarSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-engine fast configuration, verbatim: every candidate's
/// `H(T ∪ {f})` rebuilt from the output support through the butterfly
/// evaluator, no cache, no pool, no pruning.
fn rebuild_butterfly_greedy(dist: &JointDist, pc: f64, k: usize) -> Vec<usize> {
    let n = dist.num_vars();
    let mut selected = Vec::with_capacity(k);
    let mut set = VarSet::EMPTY;
    let mut h_current = 0.0f64;
    for _ in 0..k.min(n) {
        let mut best: Option<(usize, f64)> = None;
        for f in (0..n).filter(|&f| !set.contains(f)) {
            let h = answer_entropy(dist, set.insert(f), pc, AnswerEvaluator::Butterfly).unwrap();
            match best {
                Some((_, best_h)) if h <= best_h => {}
                _ => best = Some((f, h)),
            }
        }
        let Some((f, h)) = best else { break };
        if h - h_current <= 1e-12 {
            break;
        }
        selected.push(f);
        set = set.insert(f);
        h_current = h;
    }
    selected
}

fn bench_evaluators(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_evaluators");
    for &n in &[8usize, 12, 16] {
        let dist = bench_prior(n, 5);
        group.bench_with_input(BenchmarkId::new("butterfly", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(rebuild_butterfly_greedy(&dist, 0.8, 4)))
        });
        let configs: Vec<(&str, GreedySelector)> = vec![
            ("naive", GreedySelector::paper_approx()),
            (
                "preprocessed",
                GreedySelector::paper_approx()
                    .with_evaluator(AnswerEvaluator::Butterfly)
                    .with_preprocess(),
            ),
            ("engine_t1", GreedySelector::engine(1)),
            ("engine_t2", GreedySelector::engine(2)),
            ("engine_t4", GreedySelector::engine(4)),
        ];
        for (label, selector) in configs {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    std::hint::black_box(selector.select(&dist, 0.8, 4, &mut rng).unwrap())
                })
            });
        }
    }
    group.finish();
}

/// `prior` after two rounds of four greedy picks, answered alternately
/// true and false at `Pc = 0.8`.
fn posterior_after_two_rounds(mut dist: JointDist) -> JointDist {
    for _ in 0..2 {
        let mut rng = StdRng::seed_from_u64(1);
        let tasks = GreedySelector::fast()
            .select(&dist, 0.8, 4, &mut rng)
            .unwrap();
        let answers: Vec<bool> = (0..tasks.len()).map(|i| i % 2 == 0).collect();
        posterior_in_place(&mut dist, &tasks, &answers, 0.8).unwrap();
    }
    dist
}

fn bench_posteriors(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_posteriors");
    for &n in &[12usize, 16, 32] {
        let prior = if n == 32 {
            large_book_case(n, 5).0.prior
        } else {
            bench_prior(n, 5)
        };
        let dist = posterior_after_two_rounds(prior);
        let selector = GreedySelector::engine(1);
        group.bench_with_input(BenchmarkId::new("engine_t1", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                std::hint::black_box(selector.select(&dist, 0.8, 4, &mut rng).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_evaluators, bench_posteriors
}
criterion_main!(benches);
