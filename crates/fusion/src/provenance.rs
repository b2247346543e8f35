//! Per-statement provenance: which sources won each fact and why.
//!
//! Every fusion run can emit a [`ProvenanceLedger`] next to its
//! [`FusionResult`]: the method's final per-source
//! weights (CRH weights, TruthFinder trust, ACCU accuracy, resolver
//! preference weights — uniform for weightless methods), the iteration at
//! which the method converged where applicable, and one
//! [`StatementProvenance`] record per statement naming the sources that
//! asserted it and their contribution weights. Downstream consumers (the
//! `fuse --report` JSON, trust learning over real crowds) get "which source
//! won each fact and why" without re-running the method.
//!
//! Determinism: every collection is a `BTreeMap` or a sorted `Vec`, so the
//! ledger's serialized form is byte-stable across runs and thread counts
//! (fusion itself is single-threaded and deterministic).

use crate::model::{Dataset, StatementId};
use crate::result::FusionResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why one statement ended up with its probability: the resolver or method
/// that scored it, the sources asserting it, and each source's weight in the
/// method's final iterate.
///
/// Contribution maps are keyed by source *name* (datasets are expected to
/// have unique source names; on a collision the higher-id source wins the
/// key).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatementProvenance {
    /// The method or per-attribute resolver that scored this statement
    /// (differs from the ledger's method inside a composite strategy).
    pub resolver: String,
    /// Whether the statement's final probability clears the 0.5 decision
    /// threshold.
    pub predicted_true: bool,
    /// Names of the sources backing a predicted-true statement, sorted.
    /// Empty when the statement is predicted false (its supporters lost)
    /// or unclaimed.
    pub winning_sources: Vec<String>,
    /// Weight of every asserting source in the method's final iterate,
    /// keyed by source name.
    pub contributions: BTreeMap<String, f64>,
}

/// The full provenance of one fusion run. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceLedger {
    /// Name of the method that produced the run.
    pub method: String,
    /// Iteration at which the method converged (`None` for non-iterative
    /// methods, or when the method hit its iteration cap — the paired
    /// result then carries the last iterate).
    pub iterations: Option<usize>,
    /// The method's final per-source weights, keyed by source name
    /// (uniform `1.0` for weightless methods like majority voting).
    pub source_weights: BTreeMap<String, f64>,
    /// One provenance record per statement, keyed by statement id.
    pub statements: BTreeMap<u32, StatementProvenance>,
}

impl ProvenanceLedger {
    /// Builds the ledger for a finished run from the method's final
    /// per-source weights (indexed by [`crate::SourceId`]).
    pub fn from_source_weights(
        dataset: &Dataset,
        method: &str,
        weights: &[f64],
        result: &FusionResult,
        iterations: Option<usize>,
    ) -> ProvenanceLedger {
        let mut ledger = ProvenanceLedger {
            method: method.to_string(),
            iterations,
            source_weights: dataset
                .sources()
                .iter()
                .map(|s| (s.name.clone(), weights[s.id.0 as usize]))
                .collect(),
            statements: BTreeMap::new(),
        };
        for statement in dataset.statements() {
            let record = statement_record(dataset, method, weights, result, statement.id);
            ledger.statements.insert(statement.id.0, record);
        }
        ledger
    }

    /// Builds a ledger with uniform source weights — the default for methods
    /// that do not estimate per-source reliability.
    pub fn uniform(dataset: &Dataset, method: &str, result: &FusionResult) -> ProvenanceLedger {
        let weights = vec![1.0; dataset.sources().len()];
        ProvenanceLedger::from_source_weights(dataset, method, &weights, result, None)
    }

    /// Number of statements whose supporters won (predicted true).
    pub fn predicted_true(&self) -> usize {
        self.statements
            .values()
            .filter(|s| s.predicted_true)
            .count()
    }
}

/// Builds one statement's provenance record from per-source-index weights.
pub(crate) fn statement_record(
    dataset: &Dataset,
    resolver: &str,
    weights: &[f64],
    result: &FusionResult,
    id: StatementId,
) -> StatementProvenance {
    let contributions: BTreeMap<String, f64> = dataset
        .supporters(id)
        .iter()
        .map(|s| {
            (
                dataset.sources()[s.0 as usize].name.clone(),
                weights[s.0 as usize],
            )
        })
        .collect();
    let predicted_true = result.prob(id) >= 0.5;
    let winning_sources = if predicted_true {
        contributions.keys().cloned().collect()
    } else {
        Vec::new()
    };
    StatementProvenance {
        resolver: resolver.to_string(),
        predicted_true,
        winning_sources,
        contributions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::two_book_dataset;
    use crate::result::{FusionMethod, UniformPrior};

    #[test]
    fn uniform_ledger_records_every_statement() {
        let d = two_book_dataset();
        let r = UniformPrior.fuse(&d).unwrap();
        let ledger = ProvenanceLedger::uniform(&d, "uniform", &r);
        assert_eq!(ledger.statements.len(), d.statements().len());
        assert_eq!(ledger.source_weights.len(), d.sources().len());
        assert!(ledger.source_weights.values().all(|&w| w == 1.0));
        assert_eq!(ledger.iterations, None);
        // p = 0.5 everywhere → every statement predicted true, winners =
        // supporters.
        assert_eq!(ledger.predicted_true(), d.statements().len());
        let s3 = &ledger.statements[&3];
        assert_eq!(s3.resolver, "uniform");
        assert_eq!(s3.winning_sources, vec!["goodbooks.com", "noisy.net"]);
        assert_eq!(s3.contributions.len(), 2);
    }

    #[test]
    fn losing_statements_have_no_winning_sources() {
        let d = two_book_dataset();
        let r = FusionResult::new("m", vec![0.9, 0.9, 0.1, 0.9, 0.1]);
        let ledger = ProvenanceLedger::uniform(&d, "m", &r);
        assert!(!ledger.statements[&2].predicted_true);
        assert!(ledger.statements[&2].winning_sources.is_empty());
        // The losing supporters are still on record with their weights.
        assert_eq!(ledger.statements[&2].contributions.len(), 1);
        assert_eq!(ledger.predicted_true(), 3);
    }

    #[test]
    fn ledger_json_is_byte_stable() {
        let d = two_book_dataset();
        let r = UniformPrior.fuse(&d).unwrap();
        let a = serde_json::to_string(&ProvenanceLedger::uniform(&d, "uniform", &r)).unwrap();
        let b = serde_json::to_string(&ProvenanceLedger::uniform(&d, "uniform", &r)).unwrap();
        assert_eq!(a, b);
        let back: ProvenanceLedger = serde_json::from_str(&a).unwrap();
        assert_eq!(back, ProvenanceLedger::uniform(&d, "uniform", &r));
    }
}
