//! Criterion: answer-table preprocessing — the paper's `O(|O|²)` naive
//! computation (serial and pool-sharded, Section III-F's MapReduce claim)
//! against the butterfly transform — and the step before it, the
//! materialisation of the joint prior from fusion marginals. Every row
//! runs the one Equation 2 body per evaluator: `*_serial` on
//! `Pool::serial()`, `*_parallel_N` on an N-thread pool built once per
//! row, outside the timed loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdfusion::datagen::book;
use crowdfusion::pipeline::entity_specs_from_books;
use crowdfusion::prelude::*;
use crowdfusion_bench::bench_prior;
use crowdfusion_core::answers::{full_answer_distribution, AnswerEvaluator};
use crowdfusion_core::pool::Pool;
use crowdfusion_core::prior::default_grouped_prior;
use crowdfusion_core::session::EntitySpec;

fn bench_preprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("answer_table_preprocess");
    let rows = [
        ("naive_serial", AnswerEvaluator::Naive, 1usize),
        ("naive_parallel_2", AnswerEvaluator::Naive, 2),
        ("naive_parallel_4", AnswerEvaluator::Naive, 4),
        ("butterfly_serial", AnswerEvaluator::Butterfly, 1),
        ("butterfly_parallel_4", AnswerEvaluator::Butterfly, 4),
    ];
    for &n in &[10usize, 14] {
        let dist = bench_prior(n, 2);
        for (name, evaluator, threads) in rows {
            let pool = Pool::new(threads);
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        full_answer_distribution(&dist, 0.8, evaluator, &pool).unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

/// The marginals and correlation groups of one book generated like
/// [`bench_prior`]'s: the inputs [`default_grouped_prior`] lifts.
fn book_spec(n_facts: usize, seed: u64) -> EntitySpec {
    let books = book::generate(BookGenConfig {
        n_books: 1,
        statements_per_book: (n_facts, n_facts),
        authors_per_book: (3, 4),
        seed,
        ..BookGenConfig::default()
    });
    let fusion = ModifiedCrh::default()
        .fuse(&books.dataset)
        .expect("fusion succeeds on generated data");
    entity_specs_from_books(&books, &fusion).remove(0)
}

/// Prior materialisation: dense enumeration up to `MAX_DENSE_FACTS`,
/// sparse importance sampling beyond.
fn bench_prior_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("prior_build");
    // Sub-millisecond rows need more samples than the file default.
    group.sample_size(30);
    let cases = [
        ("dense", 12usize),
        ("dense", 16),
        ("dense", 20),
        ("sparse", 32),
    ];
    for (backend, n) in cases {
        let spec = book_spec(n, 2);
        group.bench_with_input(BenchmarkId::new(backend, n), &spec, |b, spec| {
            b.iter(|| {
                std::hint::black_box(default_grouped_prior(&spec.marginals, &spec.groups).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_preprocess, bench_prior_build
}
criterion_main!(benches);
