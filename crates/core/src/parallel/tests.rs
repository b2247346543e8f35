//! The pool-sharded Equation 2 bodies in [`crate::answers`]: every full
//! table is bit-identical to [`Pool::serial`]'s at any thread count, for
//! both evaluators; Pc = 1 is the identity and an invalid Pc is rejected.

use crate::answers::{full_answer_distribution, AnswerEvaluator};
use crate::error::CoreError;
use crate::pool::Pool;
use crowdfusion_jointdist::presets::paper_running_example;
use crowdfusion_jointdist::{Assignment, JointDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 5] = [1, 2, 3, 4, 7];

fn random_dist(n: usize, seed: u64) -> JointDist {
    let mut rng = StdRng::seed_from_u64(seed);
    JointDist::from_weights(
        n,
        (0..(1u64 << n)).map(|a| (Assignment(a), rng.gen_range(0.0..1.0))),
    )
    .unwrap()
}

/// The running example at Pc = 0.8 and random full supports over 3–9 facts.
fn cases() -> Vec<(JointDist, f64)> {
    vec![
        (paper_running_example(), 0.8),
        (random_dist(3, 3), 0.7),
        (random_dist(5, 11), 0.9),
        (random_dist(8, 8), 0.7),
        (random_dist(9, 21), 0.55),
    ]
}

/// `evaluator`'s full table matches `Pool::serial()`'s bit for bit on every
/// case at every thread count.
fn assert_thread_invariant(evaluator: AnswerEvaluator) {
    for (d, pc) in cases() {
        let serial = full_answer_distribution(&d, pc, evaluator, &Pool::serial()).unwrap();
        for threads in THREADS {
            let pool = Pool::new(threads);
            let got = full_answer_distribution(&d, pc, evaluator, &pool).unwrap();
            assert_eq!(got, serial, "{evaluator:?} pc={pc} threads={threads}");
        }
    }
}

#[test]
fn naive_parallel_matches_serial_bit_for_bit() {
    assert_thread_invariant(AnswerEvaluator::Naive);
}

#[test]
fn butterfly_parallel_matches_serial_bit_for_bit() {
    assert_thread_invariant(AnswerEvaluator::Butterfly);
}

#[test]
fn pooled_dispatch_covers_both_evaluators() {
    let pool = Pool::new(3);
    for (d, pc) in cases() {
        let naive = full_answer_distribution(&d, pc, AnswerEvaluator::Naive, &pool).unwrap();
        let fly = full_answer_distribution(&d, pc, AnswerEvaluator::Butterfly, &pool).unwrap();
        assert_eq!(naive.len(), 1usize << d.num_vars());
        assert_eq!(naive.len(), fly.len());
        for (x, y) in naive.iter().zip(&fly) {
            assert!((x - y).abs() < 1e-12, "evaluators disagree at pc {pc}");
        }
    }
}

#[test]
fn perfect_crowd_is_identity() {
    let d = random_dist(4, 9);
    let pool = Pool::new(4);
    for ev in [AnswerEvaluator::Naive, AnswerEvaluator::Butterfly] {
        let table = full_answer_distribution(&d, 1.0, ev, &pool).unwrap();
        for (a, p) in d.iter() {
            assert_eq!(table[a.0 as usize], p, "{ev:?}");
        }
    }
}

#[test]
fn validation() {
    let d = paper_running_example();
    let pool = Pool::new(2);
    for ev in [AnswerEvaluator::Naive, AnswerEvaluator::Butterfly] {
        for pc in [0.2, 1.2, f64::NAN] {
            assert!(matches!(
                full_answer_distribution(&d, pc, ev, &pool),
                Err(CoreError::InvalidAccuracy(_))
            ));
        }
    }
}
