//! Error type shared by all fallible operations in this crate.

use std::fmt;

/// Errors produced while constructing or transforming joint distributions.
#[derive(Debug, Clone, PartialEq)]
pub enum JointError {
    /// The requested number of variables exceeds [`crate::MAX_DENSE_VARS`]
    /// (for dense enumeration) or 64 (the hard mask width limit).
    TooManyVariables {
        /// Number of variables requested.
        requested: usize,
        /// Maximum supported for the attempted operation.
        limit: usize,
    },
    /// A variable index was out of range for the distribution.
    VariableOutOfRange {
        /// Offending variable index.
        var: usize,
        /// Number of variables in the distribution.
        n: usize,
    },
    /// A probability was negative or non-finite.
    InvalidProbability(f64),
    /// The distribution (or reweighted distribution) has zero total mass and
    /// cannot be normalised.
    ZeroMass,
    /// The distribution has an empty support.
    EmptySupport,
    /// Support assignments are not strictly increasing (unsorted or
    /// duplicated).
    UnsortedSupport,
    /// The probabilities sum to this mass instead of 1.
    NotNormalised(f64),
    /// A marginal probability passed to a builder was outside `[0, 1]`.
    MarginalOutOfRange {
        /// Variable whose marginal was invalid.
        var: usize,
        /// The invalid value.
        value: f64,
    },
    /// A factor referenced fewer than the required number of variables.
    DegenerateFactor(&'static str),
}

impl fmt::Display for JointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JointError::TooManyVariables { requested, limit } => write!(
                f,
                "{requested} variables requested but at most {limit} are supported"
            ),
            JointError::VariableOutOfRange { var, n } => {
                write!(f, "variable index {var} out of range for {n} variables")
            }
            JointError::InvalidProbability(p) => {
                write!(f, "invalid probability {p}: must be finite and >= 0")
            }
            JointError::ZeroMass => write!(f, "distribution has zero total mass"),
            JointError::EmptySupport => write!(f, "distribution support is empty"),
            JointError::UnsortedSupport => {
                write!(f, "support assignments are not strictly increasing")
            }
            JointError::NotNormalised(mass) => {
                write!(f, "probabilities sum to {mass}, not 1")
            }
            JointError::MarginalOutOfRange { var, value } => {
                write!(f, "marginal for variable {var} is {value}, outside [0, 1]")
            }
            JointError::DegenerateFactor(what) => write!(f, "degenerate factor: {what}"),
        }
    }
}

impl std::error::Error for JointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = JointError::TooManyVariables {
            requested: 80,
            limit: 64,
        };
        assert!(e.to_string().contains("80"));
        assert!(e.to_string().contains("64"));

        let e = JointError::VariableOutOfRange { var: 7, n: 4 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));

        let e = JointError::MarginalOutOfRange { var: 2, value: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&JointError::ZeroMass);
    }
}
