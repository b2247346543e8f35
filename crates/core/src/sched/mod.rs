//! Cross-session crowd-budget scheduling.
//!
//! [`crate::allocation::run_global`] implements the paper's Section V-D
//! suggestion — spend a single budget where the expected utility gain per
//! judgment is greatest — as an *offline* loop over a fixed slice of
//! entities. The serving daemon needs the same policy online: sessions
//! open and close concurrently, rounds are absorbed out of order, and the
//! scheduler state must survive crashes byte-identically.
//!
//! This module is the deterministic core that both callers share:
//!
//! - [`entity_gain`] — the marginal gain of the best next judgment for one
//!   entity, from one pass over its support, so it works on sparse
//!   supports far beyond the dense `2^n` limit;
//! - [`GainQueue`] — a priority queue over sessions ordered by
//!   `(gain_bits desc, session_id asc)`, the scheduler's admission order;
//! - [`BudgetLedger`] — the spent/remaining accounting that rides the
//!   serving WAL and snapshots.
//!
//! Everything here is a pure function of its inputs: gains are encoded as
//! the IEEE-754 bit pattern of a non-negative `f64` (monotone, total, and
//! stable across platforms), so two daemons replaying the same effect
//! stream make identical scheduling decisions regardless of shard count or
//! thread count.

mod ledger;
mod queue;

pub use ledger::{BudgetLedger, LedgerError};
pub use queue::{gain_bits, gain_from_bits, GainEntry, GainQueue};

use crate::error::CoreError;
use crate::selection::engine::single_task_entropies;
use crowdfusion_jointdist::{binary_entropy, JointDist};

/// The best `(fact, gain)` the crowd could be asked next for an entity in
/// state `dist`: `gain = H({f}) − H(Pc)` bits of mutual information,
/// clamped at zero, maximised over facts with ties broken on the lowest
/// fact index. `None` for a zero-fact entity.
///
/// The one gain function behind both [`crate::allocation::run_global`] and
/// the daemon's global scheduler. Every `H({f})` comes from one pass over
/// the support — the same single-task entropies, bit for bit, that the
/// greedy selector's first step reads — so it costs `O(|O| · popcount)`
/// and is exact on sparse supports too.
pub fn entity_gain(dist: &JointDist, pc: f64) -> Result<Option<(usize, f64)>, CoreError> {
    crate::validate_pc(pc)?;
    let noise = binary_entropy(pc);
    let entropies = single_task_entropies(dist.iter().map(|(a, p)| (a.0, p)), dist.num_vars(), pc);
    let mut best: Option<(usize, f64)> = None;
    for (f, h) in entropies.into_iter().enumerate() {
        let gain = (h - noise).max(0.0);
        match best {
            Some((_, g)) if gain <= g => {}
            _ => best = Some((f, gain)),
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::{answer_entropy, AnswerEvaluator};
    use crowdfusion_jointdist::{
        binary_entropy, Assignment, FactorGraphBuilder, JointDist, VarSet,
    };

    #[test]
    fn rejects_invalid_pc() {
        let d = JointDist::uniform(2).unwrap();
        assert!(entity_gain(&d, 0.4).is_err());
        assert!(entity_gain(&d, 1.1).is_err());
    }

    #[test]
    fn matches_allocation_gain_on_dense_entities() {
        let dists = [
            crowdfusion_jointdist::presets::paper_running_example(),
            JointDist::independent(&[0.9, 0.5, 0.1, 0.7]).unwrap(),
            JointDist::uniform(3).unwrap(),
        ];
        for dist in &dists {
            for pc in [0.6, 0.8, 0.95] {
                let (fact, gain) = entity_gain(dist, pc).unwrap().unwrap();
                // Brute-force reference: argmax of H({f}) − H(Pc) from the
                // butterfly answer distribution, lowest fact on ties.
                let mut best = (0usize, f64::MIN);
                for f in 0..dist.num_vars() {
                    let h = answer_entropy(dist, VarSet::single(f), pc, AnswerEvaluator::Butterfly)
                        .unwrap();
                    let g = (h - binary_entropy(pc)).max(0.0);
                    if g > best.1 {
                        best = (f, g);
                    }
                }
                assert_eq!(fact, best.0, "fact for pc={pc}");
                assert!((gain - best.1).abs() < 1e-12, "gain for pc={pc}");
            }
        }
    }

    #[test]
    fn certain_entity_has_zero_gain() {
        let d = JointDist::certain(3, Assignment(0b101)).unwrap();
        let (_, gain) = entity_gain(&d, 0.8).unwrap().unwrap();
        assert!(gain < 1e-12, "gain {gain}");
    }

    #[test]
    fn works_on_sparse_supports() {
        // A 30-fact entity is far beyond the dense 2^n limit; the gain must
        // still be finite, non-negative, and positive for uncertain facts.
        let n = 30;
        let marginals: Vec<f64> = (0..n)
            .map(|f| if f % 3 == 0 { 0.5 } else { 0.95 })
            .collect();
        let dist = FactorGraphBuilder::new(marginals)
            .build_sparse(512, &mut rand_rng(7))
            .unwrap();
        let (fact, gain) = entity_gain(&dist, 0.85).unwrap().unwrap();
        assert!(gain > 0.0, "gain {gain}");
        assert_eq!(fact % 3, 0, "an uncertain fact should win, got {fact}");
    }

    fn rand_rng(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
