//! Sparse joint probability distributions over Bernoulli fact variables.
//!
//! This crate is the probability substrate of the CrowdFusion reproduction
//! (Chen, Chen & Zhang, ICDE 2017). The paper models `n` boolean *facts* as
//! correlated Bernoulli random variables and represents their dependency
//! structure as a joint distribution over the `2^n` possible truth
//! assignments, which it calls *outputs* (paper Section II-A, Table II).
//!
//! The central type is [`JointDist`]: a normalised, sparse map from
//! [`Assignment`] (a bitmask of truth values) to probability. On top of it the
//! crate provides:
//!
//! * [`VarSet`] — subsets of variables with compact re-indexing (used to
//!   project a distribution onto a task set),
//! * marginalisation, conditioning and reweighting (the Bayesian merge of
//!   Equation 3 in the paper is a reweight followed by normalisation),
//! * Shannon entropy in bits ([`entropy`]), mutual information, KL divergence,
//! * a soft [`factor::FactorGraphBuilder`] for building correlated priors from
//!   per-fact marginals plus exclusivity / equivalence / implication factors.
//!
//! All entropies are measured in **bits** (log base 2); the paper's running
//! example (`H({f1}) = 1` for `P(f1) = 0.5`) fixes this convention.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dist;
pub mod entropy;
pub mod error;
pub mod factor;
pub mod mask;
pub mod presets;

pub use dist::JointDist;
pub use entropy::{binary_entropy, entropy_of_probs, entropy_of_weights};
pub use error::JointError;
pub use factor::{Factor, FactorGraphBuilder};
pub use mask::{Assignment, VarSet};

/// Maximum number of variables for which dense `2^n` enumeration is allowed.
///
/// Dense tables of `2^26` `f64` entries occupy 512 MiB transiently during
/// construction; anything beyond that is rejected with
/// [`JointError::TooManyVariables`]. The paper processes each book (entity)
/// independently, and per-entity fact counts stay well below this bound.
pub const MAX_DENSE_VARS: usize = 26;

/// Probabilities whose magnitude is below this threshold are treated as zero
/// when trimming distribution supports.
pub const PROB_EPSILON: f64 = 1e-12;
