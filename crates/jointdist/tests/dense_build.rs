//! The dense factor-graph build against its definition: the
//! per-assignment product of unary and factor weights in variable order,
//! normalised by `JointDist::from_weights`. The streamed build must equal
//! it bit for bit — entries, probabilities and errors.

use crowdfusion_jointdist::{
    Assignment, Factor, FactorGraphBuilder, JointDist, JointError, VarSet,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The per-assignment enumeration the dense build replaced.
fn reference_build(marginals: &[f64], factors: &[Factor]) -> Result<JointDist, JointError> {
    let n = marginals.len();
    let mut weights = Vec::new();
    for bits in 0..1u64 << n {
        let a = Assignment(bits);
        let mut w = 1.0f64;
        for (var, &p) in marginals.iter().enumerate() {
            w *= if a.get(var) { p } else { 1.0 - p };
        }
        for f in factors {
            w *= f.weight(a);
        }
        if w > 0.0 {
            weights.push((a, w));
        }
    }
    JointDist::from_weights(n, weights).map_err(|e| match e {
        JointError::EmptySupport => JointError::ZeroMass,
        other => other,
    })
}

/// A marginal that is exactly 0, 0.5 or 1 a third of the time.
fn marginal(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..9) {
        0 => 0.0,
        1 => 0.5,
        2 => 1.0,
        _ => rng.gen(),
    }
}

/// A penalty that is exactly 0 (a hard constraint) or 1 some of the time.
fn penalty(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen(),
    }
}

/// `count` distinct variables out of `0..n`.
fn distinct_vars(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut vars: Vec<usize> = (0..n).collect();
    vars.shuffle(rng);
    vars.truncate(count);
    vars
}

/// A well-formed factor of a random kind over `0..n` (`n >= 2`).
fn factor(rng: &mut StdRng, n: usize) -> Factor {
    let group = |rng: &mut StdRng| {
        let size = rng.gen_range(2..=n.min(8));
        VarSet::from_vars(distinct_vars(rng, n, size))
    };
    match rng.gen_range(0..5) {
        0 => Factor::AtMostOne {
            vars: group(rng),
            penalty: penalty(rng),
        },
        1 => Factor::ExactlyOne {
            vars: group(rng),
            penalty: penalty(rng),
        },
        2 => Factor::Equivalent {
            vars: group(rng),
            penalty: penalty(rng),
        },
        3 => {
            let pair = distinct_vars(rng, n, 2);
            Factor::Implies {
                premise: pair[0],
                conclusion: pair[1],
                penalty: penalty(rng),
            }
        }
        _ => {
            let pair = distinct_vars(rng, n, 2);
            let table = [(); 4].map(|()| {
                if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..2.0)
                }
            });
            Factor::Pairwise {
                a: pair[0],
                b: pair[1],
                table,
            }
        }
    }
}

fn bits_of(dist: &JointDist) -> Vec<(u64, u64)> {
    dist.iter().map(|(a, p)| (a.0, p.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_build_equals_the_per_assignment_product(n in 2usize..=16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let marginals: Vec<f64> = (0..n).map(|_| marginal(&mut rng)).collect();
        let factors: Vec<Factor> = (0..rng.gen_range(0..=4)).map(|_| factor(&mut rng, n)).collect();
        let expected = reference_build(&marginals, &factors);
        let built = FactorGraphBuilder::new(marginals.clone()).factors(factors.clone()).build();
        match (&built, &expected) {
            (Ok(built), Ok(expected)) => {
                prop_assert_eq!(built.num_vars(), n);
                prop_assert_eq!(bits_of(built), bits_of(expected), "marginals {:?}, factors {:?}", marginals, factors);
            }
            _ => prop_assert_eq!(built, expected, "marginals {:?}, factors {:?}", marginals, factors),
        }
    }
}

#[test]
fn independent_is_the_factorless_build() {
    let marginals = [0.0, 0.3, 0.5, 1.0, 0.9];
    let built = JointDist::independent(&marginals).unwrap();
    let expected = reference_build(&marginals, &[]).unwrap();
    assert_eq!(bits_of(&built), bits_of(&expected));
    assert_eq!(built.support_size(), 8);
}
