//! Simulated crowd workers.

use crate::error::CrowdError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Worker identifier within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId(pub u32);

/// A single crowd worker with an individual probability of answering
/// correctly. The paper's shared-`Pc` model corresponds to every worker
/// having `skill = Pc`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    /// The worker's id.
    pub id: WorkerId,
    /// Probability of answering a clean task correctly, in `[0.5, 1]`.
    pub skill: f64,
}

/// A pool of anonymous workers, as on gMission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// A pool of `count` workers sharing one accuracy — the paper's
    /// Definition 2 ("they share an accuracy rate Pc").
    pub fn uniform(count: usize, pc: f64) -> Result<WorkerPool, CrowdError> {
        if !(0.5..=1.0).contains(&pc) {
            return Err(CrowdError::AccuracyOutOfRange(pc));
        }
        Ok(WorkerPool {
            workers: (0..count)
                .map(|i| Worker {
                    id: WorkerId(i as u32),
                    skill: pc,
                })
                .collect(),
        })
    }

    /// The workers in id order.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Picks a uniformly random worker (anonymous assignment, as on
    /// gMission where any online worker may pick up a task).
    pub fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Worker, CrowdError> {
        if self.workers.is_empty() {
            return Err(CrowdError::NoWorkers);
        }
        Ok(self.workers[rng.gen_range(0..self.workers.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_pool_shares_pc() {
        let p = WorkerPool::uniform(5, 0.8).unwrap();
        assert_eq!(p.len(), 5);
        assert!(p.workers().iter().all(|w| w.skill == 0.8));
    }

    #[test]
    fn uniform_rejects_out_of_model_accuracy() {
        assert!(matches!(
            WorkerPool::uniform(3, 0.4),
            Err(CrowdError::AccuracyOutOfRange(_))
        ));
        assert!(matches!(
            WorkerPool::uniform(3, 1.1),
            Err(CrowdError::AccuracyOutOfRange(_))
        ));
    }

    #[test]
    fn pick_requires_workers() {
        let empty = WorkerPool { workers: vec![] };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(empty.is_empty());
        assert_eq!(empty.pick(&mut rng), Err(CrowdError::NoWorkers));
        let p = WorkerPool::uniform(2, 0.9).unwrap();
        let w = p.pick(&mut rng).unwrap();
        assert!(w.id.0 < 2);
    }
}
