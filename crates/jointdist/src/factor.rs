//! A small factor-graph builder for correlated priors.
//!
//! Machine-only fusion methods emit *marginal* per-fact probabilities, but
//! CrowdFusion exploits *correlations* between facts ("Asia countries tend to
//! have large population", paper Sections I–II and IV). This module turns a
//! vector of marginals plus a set of soft logical factors into an explicit
//! [`JointDist`] by enumerating assignments and multiplying factor weights —
//! a tiny exact Markov-random-field materialiser.
//!
//! Soft factors attach a multiplicative penalty `λ ∈ [0, 1]` to assignments
//! that violate them; `λ = 0` makes a factor hard (violating assignments are
//! excluded from the support).

use crate::dist::JointDist;
use crate::error::JointError;
use crate::mask::{Assignment, VarSet};
use crate::MAX_DENSE_VARS;
use serde::{Deserialize, Serialize};

/// A soft logical constraint over a subset of variables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Factor {
    /// At most one of the variables may be true; each *extra* true variable
    /// multiplies the weight by `penalty` once.
    ///
    /// Models conflicting single-truth claims (e.g. two different complete
    /// author lists for the same book cannot both be right).
    AtMostOne {
        /// Variables in the exclusion group.
        vars: VarSet,
        /// Penalty per extra true variable (0 = hard constraint).
        penalty: f64,
    },
    /// Exactly one variable must be true; any deviation (zero or more than
    /// one true) multiplies the weight by `penalty` per unit of deviation.
    ExactlyOne {
        /// Variables in the group.
        vars: VarSet,
        /// Penalty per unit deviation from one true (0 = hard constraint).
        penalty: f64,
    },
    /// All variables must share one truth value; each disagreeing variable
    /// (relative to the majority value) multiplies the weight by `penalty`.
    ///
    /// Models format variants of the same statement (e.g. two orderings of
    /// one author list are both true or both false).
    Equivalent {
        /// Variables tied together.
        vars: VarSet,
        /// Penalty per disagreeing variable (0 = hard constraint).
        penalty: f64,
    },
    /// If `premise` is true then `conclusion` should be true; a violation
    /// multiplies the weight by `penalty`.
    ///
    /// Models inference relationships between facts (paper Section I:
    /// `Pr(A|C) = Pr(B|C)` style correlations).
    Implies {
        /// Antecedent variable.
        premise: usize,
        /// Consequent variable.
        conclusion: usize,
        /// Penalty for `premise ∧ ¬conclusion` (0 = hard constraint).
        penalty: f64,
    },
    /// An explicit 2×2 table factor over a pair of variables; the weight for
    /// `(a, b)` is `table[(b as usize) << 1 | (a as usize)]`.
    Pairwise {
        /// First variable (low bit of the table index).
        a: usize,
        /// Second variable (high bit of the table index).
        b: usize,
        /// Weights for (F,F), (T,F), (F,T), (T,T).
        table: [f64; 4],
    },
}

impl Factor {
    /// Multiplicative weight this factor contributes to `assignment`.
    pub fn weight(&self, assignment: Assignment) -> f64 {
        match *self {
            Factor::AtMostOne { vars, penalty } => {
                let truths = Assignment(assignment.0 & vars.0).count_true();
                penalty.powi(truths.saturating_sub(1) as i32)
            }
            Factor::ExactlyOne { vars, penalty } => {
                let truths = Assignment(assignment.0 & vars.0).count_true() as i32;
                penalty.powi((truths - 1).abs())
            }
            Factor::Equivalent { vars, penalty } => {
                let truths = Assignment(assignment.0 & vars.0).count_true();
                let falses = vars.len() as u32 - truths;
                penalty.powi(truths.min(falses) as i32)
            }
            Factor::Implies {
                premise,
                conclusion,
                penalty,
            } => {
                if assignment.get(premise) && !assignment.get(conclusion) {
                    penalty
                } else {
                    1.0
                }
            }
            Factor::Pairwise { a, b, table } => {
                let idx = ((assignment.get(b) as usize) << 1) | assignment.get(a) as usize;
                table[idx]
            }
        }
    }

    /// The set of variables this factor touches.
    pub fn scope(&self) -> VarSet {
        match *self {
            Factor::AtMostOne { vars, .. }
            | Factor::ExactlyOne { vars, .. }
            | Factor::Equivalent { vars, .. } => vars,
            Factor::Implies {
                premise,
                conclusion,
                ..
            } => VarSet::single(premise).insert(conclusion),
            Factor::Pairwise { a, b, .. } => VarSet::single(a).insert(b),
        }
    }

    fn validate(&self, n: usize) -> Result<(), JointError> {
        let scope = self.scope();
        if let Some(bad) = scope.difference(VarSet::all(n)).iter().next() {
            return Err(JointError::VariableOutOfRange { var: bad, n });
        }
        let penalties_ok = match *self {
            Factor::AtMostOne { vars, penalty }
            | Factor::ExactlyOne { vars, penalty }
            | Factor::Equivalent { vars, penalty } => {
                if vars.len() < 2 {
                    return Err(JointError::DegenerateFactor(
                        "group factor needs at least two variables",
                    ));
                }
                penalty.is_finite() && (0.0..=1.0).contains(&penalty)
            }
            Factor::Implies {
                premise,
                conclusion,
                penalty,
            } => {
                if premise == conclusion {
                    return Err(JointError::DegenerateFactor(
                        "implication premise equals conclusion",
                    ));
                }
                penalty.is_finite() && (0.0..=1.0).contains(&penalty)
            }
            Factor::Pairwise { a, b, table } => {
                if a == b {
                    return Err(JointError::DegenerateFactor(
                        "pairwise factor variables must differ",
                    ));
                }
                table.iter().all(|w| w.is_finite() && *w >= 0.0)
            }
        };
        if penalties_ok {
            Ok(())
        } else {
            Err(JointError::DegenerateFactor("invalid factor weight"))
        }
    }
}

/// A factor as the dense build applies it: a lookup table of its weights,
/// each entry computed by [`Factor::weight`] itself.
enum FactorTable {
    /// A group factor's weight depends only on how many of `vars` are
    /// true: `weights[count]`.
    Count { vars: u64, weights: Vec<f64> },
    /// A two-variable factor: `table[(b << 1) | a]`, as for
    /// [`Factor::Pairwise`].
    Pair { a: usize, b: usize, table: [f64; 4] },
}

impl FactorTable {
    fn new(factor: &Factor) -> FactorTable {
        match *factor {
            Factor::AtMostOne { vars, .. }
            | Factor::ExactlyOne { vars, .. }
            | Factor::Equivalent { vars, .. } => {
                // The assignment with the first `count` members true stands
                // for every assignment with `count` members true.
                let mut prefix = Assignment::ALL_FALSE;
                let mut weights = vec![factor.weight(prefix)];
                for var in vars.iter() {
                    prefix = prefix.with(var, true);
                    weights.push(factor.weight(prefix));
                }
                FactorTable::Count {
                    vars: vars.0,
                    weights,
                }
            }
            Factor::Implies {
                premise: a,
                conclusion: b,
                ..
            }
            | Factor::Pairwise { a, b, .. } => FactorTable::Pair {
                a,
                b,
                table: [0, 1, 2, 3].map(|idx| {
                    factor.weight(
                        Assignment::ALL_FALSE
                            .with(a, idx & 1 == 1)
                            .with(b, idx & 2 == 2),
                    )
                }),
            },
        }
    }

    /// Multiplies the weight of assignment `base | lo` into `row[lo]`.
    fn multiply_row(&self, base: u64, row: &mut [f64]) {
        match self {
            FactorTable::Count { vars, weights } => {
                for (lo, w) in row.iter_mut().enumerate() {
                    *w *= weights[((base | lo as u64) & vars).count_ones() as usize];
                }
            }
            FactorTable::Pair { a, b, table } => {
                for (lo, w) in row.iter_mut().enumerate() {
                    let bits = base | lo as u64;
                    *w *= table[((bits >> b & 1) << 1 | bits >> a & 1) as usize];
                }
            }
        }
    }
}

/// Variables covered by the dense build's unary table (`2^12` products).
const UNARY_TABLE_VARS: usize = 12;

/// `table[a] = Π_i unary_i(a)` over `marginals`, multiplied left to right
/// in variable order: tensoring in variable `v` appends the half where it
/// is true, so index bit `v` is variable `v`.
fn unary_table(marginals: &[f64]) -> Vec<f64> {
    let mut table = Vec::with_capacity(1 << marginals.len());
    table.push(1.0f64);
    for &p in marginals {
        let len = table.len();
        for i in 0..len {
            let w = table[i];
            table.push(w * p);
            table[i] = w * (1.0 - p);
        }
    }
    table
}

/// Builds a [`JointDist`] from per-variable marginals and soft factors.
///
/// ```
/// use crowdfusion_jointdist::{FactorGraphBuilder, Factor, VarSet};
///
/// // Two conflicting continent claims plus a population fact that the
/// // Asia claim softly implies.
/// let dist = FactorGraphBuilder::new(vec![0.5, 0.63, 0.49])
///     .factor(Factor::AtMostOne { vars: VarSet::from_vars([0, 2]), penalty: 0.1 })
///     .factor(Factor::Implies { premise: 0, conclusion: 1, penalty: 0.5 })
///     .build()
///     .unwrap();
/// assert_eq!(dist.num_vars(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FactorGraphBuilder {
    marginals: Vec<f64>,
    factors: Vec<Factor>,
}

impl FactorGraphBuilder {
    /// Starts a builder from independent per-variable marginals
    /// `P(f_i = true)`.
    pub fn new(marginals: Vec<f64>) -> FactorGraphBuilder {
        FactorGraphBuilder {
            marginals,
            factors: Vec::new(),
        }
    }

    /// Adds a soft factor.
    #[must_use]
    pub fn factor(mut self, factor: Factor) -> FactorGraphBuilder {
        self.factors.push(factor);
        self
    }

    /// Adds several factors.
    #[must_use]
    pub fn factors(mut self, factors: impl IntoIterator<Item = Factor>) -> FactorGraphBuilder {
        self.factors.extend(factors);
        self
    }

    /// Number of variables this builder will produce.
    pub fn num_vars(&self) -> usize {
        self.marginals.len()
    }

    /// Validation shared by [`FactorGraphBuilder::build`] and
    /// [`FactorGraphBuilder::build_sparse`]: marginal ranges and factor
    /// well-formedness (the variable-count ceiling differs per backend).
    fn validate(&self) -> Result<(), JointError> {
        let n = self.marginals.len();
        for (var, &p) in self.marginals.iter().enumerate() {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(JointError::MarginalOutOfRange { var, value: p });
            }
        }
        for f in &self.factors {
            f.validate(n)?;
        }
        Ok(())
    }

    /// Materialises the joint distribution by dense enumeration.
    ///
    /// Weight of assignment `a` = `Π_i unary_i(a) · Π_f f.weight(a)`, then
    /// normalised. Fails if `n >` [`MAX_DENSE_VARS`], any marginal is outside
    /// `[0,1]`, any factor is malformed, or hard constraints eliminate every
    /// assignment.
    ///
    /// The enumeration streams straight into the sorted support, one row of
    /// `2^12` assignments at a time: the unary product over the low
    /// variables comes from one table tensored in variable order, each row
    /// finishes it over the remaining variables in the same left-to-right
    /// order, and each factor multiplies in from a table of its weights.
    /// Every weight therefore sees the same multiplications, in the same
    /// order, as the per-assignment product — the result is bit-identical
    /// to it — and nothing but the support itself grows with `2^n`.
    pub fn build(self) -> Result<JointDist, JointError> {
        let n = self.marginals.len();
        if n > MAX_DENSE_VARS {
            return Err(JointError::TooManyVariables {
                requested: n,
                limit: MAX_DENSE_VARS,
            });
        }
        self.validate()?;
        let low = n.min(UNARY_TABLE_VARS);
        let unary = unary_table(&self.marginals[..low]);
        let high: Vec<[f64; 2]> = self.marginals[low..]
            .iter()
            .map(|&p| [1.0 - p, p])
            .collect();
        let tables: Vec<FactorTable> = self.factors.iter().map(FactorTable::new).collect();
        let mut row = vec![0.0f64; unary.len()];
        // Grown as the support fills: the vector becomes the prior, so
        // reserving all 2^n slots up front would keep them alive with it.
        let mut weights = Vec::new();
        for hi in 0..1u64 << (n - low) {
            let base = hi << low;
            row.copy_from_slice(&unary);
            for (j, unary_j) in high.iter().enumerate() {
                let u = unary_j[(hi >> j & 1) as usize];
                row.iter_mut().for_each(|w| *w *= u);
            }
            for table in &tables {
                table.multiply_row(base, &mut row);
            }
            weights.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(_, &w)| w > 0.0)
                    .map(|(lo, &w)| (Assignment(base | lo as u64), w)),
            );
        }
        JointDist::from_sorted_weights(n, weights).map_err(|e| match e {
            JointError::EmptySupport => JointError::ZeroMass,
            other => other,
        })
    }

    /// Materialises a **sparse approximation** of the joint distribution by
    /// self-normalised importance sampling, for variable counts beyond
    /// [`MAX_DENSE_VARS`] (up to 64).
    ///
    /// `draws` assignments are sampled from the independent product of the
    /// unary marginals (the proposal) and each carries the product of its
    /// factor weights as an importance weight; the weighted histogram of
    /// the draws becomes the distribution. The estimator is consistent —
    /// error vanishes as `O(1/√draws)` — and deterministic in the RNG, so
    /// sparse priors for large entities are reproducible byte for byte.
    ///
    /// Fails like [`FactorGraphBuilder::build`] on malformed inputs, and
    /// with [`JointError::ZeroMass`] when every draw violates a hard
    /// (`penalty = 0`) factor — tight hard constraints on a wide proposal
    /// may need more draws.
    pub fn build_sparse<R: rand::Rng + ?Sized>(
        self,
        draws: usize,
        rng: &mut R,
    ) -> Result<JointDist, JointError> {
        let n = self.marginals.len();
        if n > 64 {
            return Err(JointError::TooManyVariables {
                requested: n,
                limit: 64,
            });
        }
        if draws == 0 {
            return Err(JointError::EmptySupport);
        }
        self.validate()?;
        let mut support: std::collections::BTreeMap<Assignment, f64> =
            std::collections::BTreeMap::new();
        for _ in 0..draws {
            let mut a = Assignment::ALL_FALSE;
            for (var, &p) in self.marginals.iter().enumerate() {
                a = a.with(var, rng.gen::<f64>() < p);
            }
            let mut w = 1.0f64;
            for f in &self.factors {
                w *= f.weight(a);
                if w == 0.0 {
                    break;
                }
            }
            if w > 0.0 {
                *support.entry(a).or_insert(0.0) += w;
            }
        }
        JointDist::from_sorted_weights(n, support.into_iter().collect()).map_err(|e| match e {
            JointError::EmptySupport => JointError::ZeroMass,
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn no_factors_reduces_to_independent() {
        let m = vec![0.2, 0.7];
        let d = FactorGraphBuilder::new(m.clone()).build().unwrap();
        let ind = JointDist::independent(&m).unwrap();
        for (a, p) in d.iter() {
            assert!(close(p, ind.prob(a)));
        }
    }

    #[test]
    fn hard_at_most_one_removes_joint_truths() {
        let d = FactorGraphBuilder::new(vec![0.5, 0.5])
            .factor(Factor::AtMostOne {
                vars: VarSet::from_vars([0, 1]),
                penalty: 0.0,
            })
            .build()
            .unwrap();
        assert_eq!(d.prob(Assignment(0b11)), 0.0);
        assert!(close(d.total_mass(), 1.0));
        assert_eq!(d.support_size(), 3);
    }

    #[test]
    fn soft_at_most_one_downweights() {
        let d = FactorGraphBuilder::new(vec![0.5, 0.5])
            .factor(Factor::AtMostOne {
                vars: VarSet::from_vars([0, 1]),
                penalty: 0.5,
            })
            .build()
            .unwrap();
        // Weights: FF=.25, TF=.25, FT=.25, TT=.125 -> normalised.
        assert!(close(d.prob(Assignment(0b11)), 0.125 / 0.875));
    }

    #[test]
    fn exactly_one_hard() {
        let d = FactorGraphBuilder::new(vec![0.5, 0.5, 0.5])
            .factor(Factor::ExactlyOne {
                vars: VarSet::all(3),
                penalty: 0.0,
            })
            .build()
            .unwrap();
        assert_eq!(d.support_size(), 3);
        for (a, p) in d.iter() {
            assert_eq!(a.count_true(), 1);
            assert!(close(p, 1.0 / 3.0));
        }
    }

    #[test]
    fn equivalent_hard_ties_variables() {
        let d = FactorGraphBuilder::new(vec![0.6, 0.6])
            .factor(Factor::Equivalent {
                vars: VarSet::from_vars([0, 1]),
                penalty: 0.0,
            })
            .build()
            .unwrap();
        assert_eq!(d.support_size(), 2);
        // FF weight .16, TT weight .36.
        assert!(close(d.prob(Assignment(0b11)), 0.36 / 0.52));
        assert!(close(d.marginal(0).unwrap(), d.marginal(1).unwrap()));
    }

    #[test]
    fn implies_hard() {
        let d = FactorGraphBuilder::new(vec![0.5, 0.5])
            .factor(Factor::Implies {
                premise: 0,
                conclusion: 1,
                penalty: 0.0,
            })
            .build()
            .unwrap();
        assert_eq!(d.prob(Assignment(0b01)), 0.0); // premise w/o conclusion
        assert!(d.prob(Assignment(0b11)) > 0.0);
    }

    #[test]
    fn pairwise_table_factor() {
        let d = FactorGraphBuilder::new(vec![0.5, 0.5])
            .factor(Factor::Pairwise {
                a: 0,
                b: 1,
                table: [1.0, 0.0, 0.0, 1.0], // XNOR: force equality
            })
            .build()
            .unwrap();
        assert_eq!(d.support_size(), 2);
        assert!(close(d.prob(Assignment(0b00)), 0.5));
        assert!(close(d.prob(Assignment(0b11)), 0.5));
    }

    #[test]
    fn conflicting_hard_constraints_yield_zero_mass() {
        // Also across the unary table's boundary: variable 13 is
        // enumerated row by row, variable 0 inside each row.
        for (n, pair) in [(2, [0, 1]), (14, [0, 13])] {
            let err = FactorGraphBuilder::new(vec![0.5; n])
                .factor(Factor::Equivalent {
                    vars: VarSet::from_vars(pair),
                    penalty: 0.0,
                })
                .factor(Factor::ExactlyOne {
                    vars: VarSet::from_vars(pair),
                    penalty: 0.0,
                })
                .build()
                .unwrap_err();
            assert_eq!(err, JointError::ZeroMass);
        }
    }

    #[test]
    fn validation_rejects_bad_factors() {
        assert!(matches!(
            FactorGraphBuilder::new(vec![0.5, 0.5])
                .factor(Factor::AtMostOne {
                    vars: VarSet::from_vars([0]),
                    penalty: 0.5,
                })
                .build(),
            Err(JointError::DegenerateFactor(_))
        ));
        assert!(matches!(
            FactorGraphBuilder::new(vec![0.5, 0.5])
                .factor(Factor::Implies {
                    premise: 1,
                    conclusion: 1,
                    penalty: 0.5,
                })
                .build(),
            Err(JointError::DegenerateFactor(_))
        ));
        assert!(matches!(
            FactorGraphBuilder::new(vec![0.5, 0.5])
                .factor(Factor::Pairwise {
                    a: 0,
                    b: 1,
                    table: [1.0, -1.0, 0.0, 1.0],
                })
                .build(),
            Err(JointError::DegenerateFactor(_))
        ));
        assert!(matches!(
            FactorGraphBuilder::new(vec![0.5])
                .factor(Factor::Implies {
                    premise: 0,
                    conclusion: 3,
                    penalty: 0.5,
                })
                .build(),
            Err(JointError::VariableOutOfRange { .. })
        ));
        assert!(matches!(
            FactorGraphBuilder::new(vec![0.5, 2.0]).build(),
            Err(JointError::MarginalOutOfRange { var: 1, .. })
        ));
    }

    #[test]
    fn build_sparse_converges_to_dense_build() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let builder = FactorGraphBuilder::new(vec![0.6, 0.55, 0.5])
            .factor(Factor::Equivalent {
                vars: VarSet::from_vars([0, 1]),
                penalty: 0.35,
            })
            .factor(Factor::AtMostOne {
                vars: VarSet::from_vars([0, 2]),
                penalty: 0.75,
            });
        let dense = builder.clone().build().unwrap();
        let sparse = builder
            .build_sparse(200_000, &mut StdRng::seed_from_u64(11))
            .unwrap();
        for (a, p) in dense.iter() {
            assert!(
                (sparse.prob(a) - p).abs() < 0.01,
                "mismatch at {a:?}: {} vs {p}",
                sparse.prob(a)
            );
        }
    }

    #[test]
    fn build_sparse_handles_large_variable_counts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 40;
        let d = FactorGraphBuilder::new(vec![0.5; n])
            .factor(Factor::Equivalent {
                vars: VarSet::from_vars([0, 1, 2]),
                penalty: 0.2,
            })
            .factor(Factor::AtMostOne {
                vars: VarSet::from_vars([3, 4]),
                penalty: 0.5,
            })
            .build_sparse(4_096, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(d.num_vars(), n);
        assert!(d.support_size() <= 4_096);
        assert!((d.total_mass() - 1.0).abs() < 1e-9);
        // The equivalence factor must visibly tie variables 0 and 1.
        let given_true = d.condition(0, true).unwrap();
        let given_false = d.condition(0, false).unwrap();
        assert!(given_true.marginal(1).unwrap() > given_false.marginal(1).unwrap() + 0.1);
    }

    #[test]
    fn build_sparse_is_deterministic_in_seed() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let builder = FactorGraphBuilder::new(vec![0.4; 30]).factor(Factor::Implies {
            premise: 0,
            conclusion: 1,
            penalty: 0.3,
        });
        let a = builder
            .clone()
            .build_sparse(2_000, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let b = builder
            .build_sparse(2_000, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn build_sparse_validates() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            FactorGraphBuilder::new(vec![0.5; 65]).build_sparse(100, &mut rng),
            Err(JointError::TooManyVariables { .. })
        ));
        assert!(matches!(
            FactorGraphBuilder::new(vec![0.5]).build_sparse(0, &mut rng),
            Err(JointError::EmptySupport)
        ));
        assert!(matches!(
            FactorGraphBuilder::new(vec![1.5]).build_sparse(100, &mut rng),
            Err(JointError::MarginalOutOfRange { .. })
        ));
        // Hard constraints that reject every draw yield ZeroMass.
        assert!(matches!(
            FactorGraphBuilder::new(vec![1.0, 0.0])
                .factor(Factor::Implies {
                    premise: 0,
                    conclusion: 1,
                    penalty: 0.0,
                })
                .build_sparse(64, &mut rng),
            Err(JointError::ZeroMass)
        ));
    }

    #[test]
    fn factor_scope() {
        let f = Factor::Implies {
            premise: 2,
            conclusion: 5,
            penalty: 0.1,
        };
        assert_eq!(f.scope(), VarSet::from_vars([2, 5]));
        let g = Factor::AtMostOne {
            vars: VarSet::from_vars([1, 3]),
            penalty: 0.0,
        };
        assert_eq!(g.scope(), VarSet::from_vars([1, 3]));
    }
}
