//! Synthetic Book-dataset generator.
//!
//! Reproduces the structure of the paper's Book dataset (Section V-A): books
//! with conflicting author-list statements claimed by web sources of varying
//! reliability, a gold standard where order/format variants of the correct
//! list are all true, and the Section V-D confusion taxonomy tagged per
//! statement.

use crate::names::{book_title, draw_authors, AuthorName, LAST_NAMES, ORGANISATIONS};
use crowdfusion_crowd::TaskClass;
use crowdfusion_fusion::text::{canonical_list, lists_equivalent};
use crowdfusion_fusion::{Dataset, DatasetBuilder, EntityId, StatementId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic Book dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BookGenConfig {
    /// Number of books (the paper uses 100).
    pub n_books: usize,
    /// Number of general web sources.
    pub n_sources: usize,
    /// Number of additional *domain specialist* sources, modelled on the
    /// paper's eCampus.com example: decent on textbooks, hopeless otherwise.
    pub n_specialists: usize,
    /// Inclusive range of authors per book.
    pub authors_per_book: (usize, usize),
    /// Inclusive range of candidate statements per book (the book's fact
    /// count `n`). The paper's efficiency experiments use books with more
    /// than 20 facts; quality experiments use smaller ones.
    pub statements_per_book: (usize, usize),
    /// Fraction of books that are textbooks (the specialist domain).
    pub textbook_fraction: f64,
    /// Reliability range of general sources: per-claim probability of
    /// asserting a true variant. Centered near 0.5 to match the paper's
    /// "only around 50 % of Web data facts is correct".
    pub source_reliability: (f64, f64),
    /// Specialist reliability on textbooks (paper: 55 % for eCampus.com).
    pub specialist_textbook_reliability: f64,
    /// Specialist reliability on non-textbooks (paper: 0 %).
    pub specialist_other_reliability: f64,
    /// Probability that a source makes a claim about a given book.
    pub participation: f64,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl Default for BookGenConfig {
    fn default() -> BookGenConfig {
        BookGenConfig {
            n_books: 100,
            n_sources: 10,
            n_specialists: 2,
            authors_per_book: (1, 4),
            statements_per_book: (3, 8),
            textbook_fraction: 0.5,
            source_reliability: (0.35, 0.75),
            specialist_textbook_reliability: 0.55,
            specialist_other_reliability: 0.05,
            participation: 0.7,
            seed: 42,
        }
    }
}

impl BookGenConfig {
    /// A small configuration for fast tests and `--quick` harness runs.
    pub fn quick() -> BookGenConfig {
        BookGenConfig {
            n_books: 12,
            n_sources: 6,
            n_specialists: 1,
            statements_per_book: (3, 6),
            ..BookGenConfig::default()
        }
    }

    /// The large-entity scenario of the paper's efficiency experiments
    /// ("books with facts more than 20"): every book carries exactly
    /// `n_statements` candidate author lists, drawn from a wider author
    /// pool so the shared-author format variants form sizeable
    /// correlation groups. Beyond the engine's dense limit
    /// (`MAX_DENSE_FACTS` = 26) these books exercise the sparse prior
    /// and the selection engine that scores its support, end to end.
    pub fn large(n_statements: usize) -> BookGenConfig {
        BookGenConfig {
            n_books: 4,
            n_sources: 12,
            n_specialists: 2,
            authors_per_book: (3, 5),
            statements_per_book: (n_statements, n_statements),
            ..BookGenConfig::default()
        }
    }

    /// Checks that the configuration can generate a dataset; the error
    /// says which condition failed. [`generate`] panics on a configuration
    /// that fails this check.
    pub fn validate(&self) -> Result<(), String> {
        let ensure = |ok: bool, message: &str| if ok { Ok(()) } else { Err(message.to_string()) };
        ensure(self.n_books > 0, "n_books must be positive")?;
        ensure(
            self.n_sources + self.n_specialists > 0,
            "n_sources + n_specialists must be positive",
        )?;
        ensure(
            self.authors_per_book.0 >= 1 && self.authors_per_book.0 <= self.authors_per_book.1,
            "authors_per_book must satisfy 1 <= min <= max",
        )?;
        ensure(
            self.statements_per_book.0 >= 2
                && self.statements_per_book.0 <= self.statements_per_book.1,
            "statements_per_book must satisfy 2 <= min <= max",
        )?;
        for p in [
            self.textbook_fraction,
            self.source_reliability.0,
            self.source_reliability.1,
            self.specialist_textbook_reliability,
            self.specialist_other_reliability,
            self.participation,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of range"));
            }
        }
        ensure(
            self.source_reliability.0 <= self.source_reliability.1,
            "source_reliability must satisfy min <= max",
        )
    }
}

/// A generated dataset plus everything the experiments need to know about
/// it: gold labels, confusion classes and the generating configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedBooks {
    /// The claims dataset (books, statements, sources, claims).
    pub dataset: Dataset,
    /// Gold truth per statement id.
    pub gold: Vec<bool>,
    /// Confusion class per statement id (drives crowd difficulty).
    pub classes: Vec<TaskClass>,
    /// Whether each book is a textbook (specialist domain).
    pub textbook: Vec<bool>,
    /// The generating configuration.
    pub config: BookGenConfig,
}

/// One candidate statement before it is registered in the dataset.
struct DraftStatement {
    text: String,
    gold: bool,
    class: TaskClass,
}

/// Generates the candidate statements for one book.
fn draft_statements<R: Rng + ?Sized>(
    rng: &mut R,
    authors: &[AuthorName],
    n_statements: usize,
) -> Vec<DraftStatement> {
    let natural = authors
        .iter()
        .map(AuthorName::natural)
        .collect::<Vec<_>>()
        .join("; ");
    let inverted = authors
        .iter()
        .map(AuthorName::inverted)
        .collect::<Vec<_>>()
        .join("; ");

    let mut drafts: Vec<DraftStatement> = Vec::with_capacity(n_statements);
    // The canonical true statement always exists.
    drafts.push(DraftStatement {
        text: natural.clone(),
        gold: true,
        class: TaskClass::Clean,
    });

    // Optional additional true variants.
    let mut true_variants: Vec<DraftStatement> = Vec::new();
    true_variants.push(DraftStatement {
        text: inverted,
        gold: true,
        class: TaskClass::Clean,
    });
    if authors.len() >= 2 {
        let mut order: Vec<&AuthorName> = authors.iter().collect();
        while order.iter().zip(authors).all(|(a, b)| std::ptr::eq(*a, b)) {
            order.shuffle(rng);
        }
        let reordered = order
            .iter()
            .map(|a| a.inverted())
            .collect::<Vec<_>>()
            .join("; ");
        true_variants.push(DraftStatement {
            text: reordered,
            gold: true,
            class: TaskClass::WrongOrder,
        });
    }

    // False variants, in a rotation so every class appears.
    let mut false_variants: Vec<DraftStatement> = Vec::new();
    // Misspelling.
    {
        let idx = rng.gen_range(0..authors.len());
        let text = authors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if i == idx {
                    a.misspelled()
                } else {
                    a.natural()
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        false_variants.push(DraftStatement {
            text,
            gold: false,
            class: TaskClass::Misspelling,
        });
    }
    // Additional organisation info.
    {
        let idx = rng.gen_range(0..authors.len());
        let org = ORGANISATIONS[rng.gen_range(0..ORGANISATIONS.len())];
        let text = authors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if i == idx {
                    format!("{} ({org})", a.inverted())
                } else {
                    a.inverted()
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        false_variants.push(DraftStatement {
            text,
            gold: false,
            class: TaskClass::AdditionalInfo,
        });
    }
    // Wrong author: replace one author with a name outside the list.
    {
        let idx = rng.gen_range(0..authors.len());
        let replacement = loop {
            let cand = LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())];
            if authors.iter().all(|a| a.last != cand) {
                break cand;
            }
        };
        let text = authors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if i == idx {
                    format!("{} {}", a.first, replacement)
                } else {
                    a.natural()
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        false_variants.push(DraftStatement {
            text,
            gold: false,
            class: TaskClass::Clean,
        });
    }
    // Missing author (books with at least two authors).
    if authors.len() >= 2 {
        let drop = rng.gen_range(0..authors.len());
        let text = authors
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, a)| a.natural())
            .collect::<Vec<_>>()
            .join("; ");
        false_variants.push(DraftStatement {
            text,
            gold: false,
            class: TaskClass::Clean,
        });
    }
    // Extra author.
    {
        let extra = loop {
            let cand = draw_authors(rng, 1)[0];
            if authors
                .iter()
                .all(|a| (a.first, a.last) != (cand.first, cand.last))
            {
                break cand;
            }
        };
        let text = authors
            .iter()
            .map(AuthorName::natural)
            .chain(std::iter::once(extra.natural()))
            .collect::<Vec<_>>()
            .join("; ");
        false_variants.push(DraftStatement {
            text,
            gold: false,
            class: TaskClass::Clean,
        });
    }
    // More misspelling variants to pad large books, each misspelling a
    // different author or combining with reordering.
    while drafts.len() + true_variants.len() + false_variants.len() < n_statements {
        let idx = rng.gen_range(0..authors.len());
        let org = ORGANISATIONS[rng.gen_range(0..ORGANISATIONS.len())];
        let style = rng.gen_range(0..3);
        let (text, class) = match style {
            0 => (
                authors
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        if i == idx {
                            a.misspelled()
                        } else {
                            a.inverted()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("; "),
                TaskClass::Misspelling,
            ),
            1 => (
                authors
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        if i == idx {
                            format!("{} ({org})", a.natural())
                        } else {
                            a.natural()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("; "),
                TaskClass::AdditionalInfo,
            ),
            _ => {
                let extra = draw_authors(rng, 1)[0];
                (
                    authors
                        .iter()
                        .map(AuthorName::inverted)
                        .chain(std::iter::once(extra.inverted()))
                        .collect::<Vec<_>>()
                        .join("; "),
                    TaskClass::Clean,
                )
            }
        };
        false_variants.push(DraftStatement {
            text,
            gold: false,
            class,
        });
    }

    // Interleave: canonical truth + a mix of variants up to n_statements,
    // deduplicating identical texts.
    let n_true_extra = rng.gen_range(0..=true_variants.len().min(n_statements - 1));
    drafts.extend(true_variants.into_iter().take(n_true_extra));
    for fv in false_variants {
        if drafts.len() >= n_statements {
            break;
        }
        drafts.push(fv);
    }
    drafts.truncate(n_statements);
    // Deduplicate texts (rare collisions between variants) and top back up
    // with fresh wrong-author variants until the requested count is met —
    // large books (the paper's "> 20 facts" case) need the exact size.
    // analyze: allow(hash-iter) — membership-only dedup guard; `retain`
    // keeps the drafts' own order.
    let mut seen = std::collections::HashSet::new();
    drafts.retain(|d| seen.insert(d.text.clone()));
    let mut attempts = 0;
    while drafts.len() < n_statements && attempts < 64 * n_statements {
        attempts += 1;
        let extra = draw_authors(rng, 1)[0];
        let drop = rng.gen_range(0..authors.len());
        let text = authors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if i == drop {
                    extra.natural()
                } else {
                    a.natural()
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        // Guard against accidentally reproducing the true author set.
        if crowdfusion_fusion::text::lists_equivalent(&text, &natural) {
            continue;
        }
        if seen.insert(text.clone()) {
            drafts.push(DraftStatement {
                text,
                gold: false,
                class: TaskClass::Clean,
            });
        }
    }
    // Shuffle so the true statements are not always listed first.
    drafts.shuffle(rng);
    drafts
}

/// Generates a synthetic Book dataset; panics if
/// [`BookGenConfig::validate`] rejects `config`.
pub fn generate(config: BookGenConfig) -> GeneratedBooks {
    if let Err(e) = config.validate() {
        panic!("invalid BookGenConfig: {e}");
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = DatasetBuilder::new();

    let total_sources = config.n_sources + config.n_specialists;
    let mut reliabilities = Vec::with_capacity(total_sources);
    for i in 0..config.n_sources {
        let (lo, hi) = config.source_reliability;
        let r = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
        builder.add_source(format!("source{i}.example.com"));
        reliabilities.push((r, r));
    }
    for i in 0..config.n_specialists {
        builder.add_source(format!("specialist{i}.example.com"));
        reliabilities.push((
            config.specialist_textbook_reliability,
            config.specialist_other_reliability,
        ));
    }

    let mut gold = Vec::new();
    let mut classes = Vec::new();
    let mut textbook = Vec::new();

    for b in 0..config.n_books {
        let entity = builder.add_entity(book_title(&mut rng, b));
        let is_textbook = rng.gen::<f64>() < config.textbook_fraction;
        textbook.push(is_textbook);
        let n_authors = rng.gen_range(config.authors_per_book.0..=config.authors_per_book.1);
        let authors = draw_authors(&mut rng, n_authors);
        let n_statements =
            rng.gen_range(config.statements_per_book.0..=config.statements_per_book.1);
        let drafts = draft_statements(&mut rng, &authors, n_statements);

        let mut true_ids: Vec<StatementId> = Vec::new();
        let mut false_ids: Vec<StatementId> = Vec::new();
        for d in &drafts {
            let id = builder
                .add_statement(entity, d.text.clone())
                .expect("entity exists");
            gold.push(d.gold);
            classes.push(d.class);
            if d.gold {
                true_ids.push(id);
            } else {
                false_ids.push(id);
            }
        }

        // Sources claim one statement each for this book.
        for (sid, &(r_text, r_other)) in reliabilities.iter().enumerate() {
            if rng.gen::<f64>() >= config.participation {
                continue;
            }
            let r = if is_textbook { r_text } else { r_other };
            let pick_true = rng.gen::<f64>() < r && !true_ids.is_empty();
            let pool = if pick_true || false_ids.is_empty() {
                &true_ids
            } else {
                &false_ids
            };
            let choice = pool[rng.gen_range(0..pool.len())];
            builder
                .add_claim(crowdfusion_fusion::SourceId(sid as u32), choice)
                .expect("valid claim");
        }
    }

    GeneratedBooks {
        dataset: builder.build(),
        gold,
        classes,
        textbook,
        config,
    }
}

impl GeneratedBooks {
    /// Gold labels of one book's statements, in statement order.
    pub fn gold_for(&self, entity: EntityId) -> Vec<bool> {
        self.dataset
            .statements_of(entity)
            .iter()
            .map(|s| self.gold[s.0 as usize])
            .collect()
    }

    /// Confusion classes of one book's statements, in statement order.
    pub fn classes_for(&self, entity: EntityId) -> Vec<TaskClass> {
        self.dataset
            .statements_of(entity)
            .iter()
            .map(|s| self.classes[s.0 as usize])
            .collect()
    }

    /// Groups one book's statements (as indices into its statement order)
    /// by author-set equivalence. Statements in the same group are format
    /// variants of each other (all true or all false together); different
    /// groups name different author sets and conflict.
    pub fn correlation_groups(&self, entity: EntityId) -> Vec<Vec<usize>> {
        let stmts = self.dataset.statements_of(entity);
        let mut groups: Vec<(Vec<std::collections::BTreeSet<String>>, Vec<usize>)> = Vec::new();
        for (idx, s) in stmts.iter().enumerate() {
            let canon = canonical_list(self.dataset.statement_text(*s));
            match groups.iter_mut().find(|(c, _)| *c == canon) {
                Some((_, members)) => members.push(idx),
                None => groups.push((canon, vec![idx])),
            }
        }
        groups.into_iter().map(|(_, members)| members).collect()
    }

    /// Fraction of *claims* that assert a gold-true statement — the paper's
    /// "around 50 % of Web data facts is correct" raw-data statistic.
    pub fn raw_claim_true_rate(&self) -> f64 {
        let claims = self.dataset.claims();
        if claims.is_empty() {
            return 0.0;
        }
        claims
            .iter()
            .filter(|c| self.gold[c.statement.0 as usize])
            .count() as f64
            / claims.len() as f64
    }

    /// Builds a new `GeneratedBooks` containing only the selected books
    /// (ids remapped contiguously). Used for the paper's Figure 2 subset
    /// ("a small subset of data with 40 books, which contains the least
    /// number of statements").
    pub fn select_books(&self, keep: &[EntityId]) -> GeneratedBooks {
        let mut builder = DatasetBuilder::new();
        for s in self.dataset.sources() {
            builder.add_source(s.name.clone());
        }
        let mut gold = Vec::new();
        let mut classes = Vec::new();
        let mut textbook = Vec::new();
        // analyze: allow(hash-iter) — keyed lookup only (old id → new id);
        // iteration never happens, so order cannot leak.
        let mut stmt_map = std::collections::HashMap::new();
        for &old_e in keep {
            let new_e = builder.add_entity(self.dataset.entities()[old_e.0 as usize].name.clone());
            textbook.push(self.textbook[old_e.0 as usize]);
            for &old_s in self.dataset.statements_of(old_e) {
                let new_s = builder
                    .add_statement(new_e, self.dataset.statement_text(old_s).to_string())
                    .expect("entity exists");
                stmt_map.insert(old_s, new_s);
                gold.push(self.gold[old_s.0 as usize]);
                classes.push(self.classes[old_s.0 as usize]);
            }
        }
        for c in self.dataset.claims() {
            if let Some(&new_s) = stmt_map.get(&c.statement) {
                builder.add_claim(c.source, new_s).expect("valid claim");
            }
        }
        GeneratedBooks {
            dataset: builder.build(),
            gold,
            classes,
            textbook,
            config: self.config.clone(),
        }
    }

    /// Rebuilds this dataset with attribute-typed claims, the shape the
    /// per-attribute resolvers consume: every existing author-list
    /// statement is typed `authors`, and each book gains conflicting
    /// `pages` (candidate page counts) and `published` (candidate
    /// publication dates) statements claimed by the same sources — the
    /// three attribute names `DataFusionStrategy::standard` routes.
    ///
    /// Attribute data is strictly opt-in: the plain [`generate`] output is
    /// byte-identical to what it was before attributes existed, and this
    /// rebuild is deterministic in `seed`.
    pub fn with_attributes(&self, seed: u64) -> GeneratedBooks {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = DatasetBuilder::new();
        for s in self.dataset.sources() {
            builder.add_source(s.name.clone());
        }
        let n_sources = self.dataset.sources().len();
        let mut gold = Vec::new();
        let mut classes = Vec::new();
        // analyze: allow(hash-iter) — keyed lookup only (old id → new id);
        // iteration never happens, so order cannot leak.
        let mut stmt_map = std::collections::HashMap::new();
        let mut typed_claims: Vec<(crowdfusion_fusion::SourceId, StatementId)> = Vec::new();
        for old_e in self.dataset.entities() {
            let new_e = builder.add_entity(old_e.name.clone());
            for &old_s in &old_e.statements {
                let new_s = builder
                    .add_attributed_statement(
                        new_e,
                        "authors",
                        self.dataset.statement_text(old_s).to_string(),
                    )
                    .expect("entity exists");
                stmt_map.insert(old_s, new_s);
                gold.push(self.gold[old_s.0 as usize]);
                classes.push(self.classes[old_s.0 as usize]);
            }
            // Conflicting page counts: the true count plus an off-by-a-few
            // variant and a gross outlier.
            let pages = rng.gen_range(80usize..600);
            let near = pages + rng.gen_range(1usize..10);
            let page_candidates = [(pages, true), (near, false), (pages * 3, false)];
            let mut typed: Vec<(StatementId, bool)> = Vec::new();
            for (value, truth) in page_candidates {
                let id = builder
                    .add_attributed_statement(new_e, "pages", format!("{value}"))
                    .expect("entity exists");
                gold.push(truth);
                classes.push(TaskClass::Clean);
                typed.push((id, truth));
            }
            // Conflicting publication dates: the true date against a stale
            // earlier edition's.
            let year = rng.gen_range(1985u32..2015);
            let month = rng.gen_range(1u32..=12);
            let day = rng.gen_range(1u32..=28);
            let stale_year = year - rng.gen_range(1u32..8);
            for (y, truth) in [(year, true), (stale_year, false)] {
                let id = builder
                    .add_attributed_statement(
                        new_e,
                        "published",
                        format!("{y:04}-{month:02}-{day:02}"),
                    )
                    .expect("entity exists");
                gold.push(truth);
                classes.push(TaskClass::Clean);
                typed.push((id, truth));
            }
            // Sources back the typed statements with the same rough
            // reliability story as the author claims: mostly right.
            let truths: Vec<StatementId> =
                typed.iter().filter(|(_, t)| *t).map(|(s, _)| *s).collect();
            let lies: Vec<StatementId> =
                typed.iter().filter(|(_, t)| !*t).map(|(s, _)| *s).collect();
            for sid in 0..n_sources {
                if rng.gen::<f64>() >= self.config.participation {
                    continue;
                }
                let pool = if rng.gen::<f64>() < 0.65 {
                    &truths
                } else {
                    &lies
                };
                let choice = pool[rng.gen_range(0..pool.len())];
                typed_claims.push((crowdfusion_fusion::SourceId(sid as u32), choice));
            }
        }
        for c in self.dataset.claims() {
            builder
                .add_claim(c.source, stmt_map[&c.statement])
                .expect("valid claim");
        }
        for (source, statement) in typed_claims {
            builder.add_claim(source, statement).expect("valid claim");
        }
        GeneratedBooks {
            dataset: builder.build(),
            gold,
            classes,
            textbook: self.textbook.clone(),
            config: self.config.clone(),
        }
    }

    /// The `count` books with the fewest statements (paper Figure 2 uses
    /// "40 books, which contains the least number of statements").
    pub fn smallest_books(&self, count: usize) -> Vec<EntityId> {
        let mut ids: Vec<EntityId> = self.dataset.entities().iter().map(|e| e.id).collect();
        ids.sort_by_key(|e| (self.dataset.statements_of(*e).len(), e.0));
        ids.truncate(count);
        ids
    }

    /// Sanity check: every author-list gold label matches author-set
    /// equivalence with the book's canonical true statement. Returns the
    /// number of checked statements (used by tests). Statements typed with
    /// a non-author attribute (see [`GeneratedBooks::with_attributes`])
    /// carry value gold, not list-equivalence gold, and are skipped.
    pub fn verify_gold_consistency(&self) -> usize {
        let is_author =
            |s: StatementId| matches!(self.dataset.statement_attribute(s), None | Some("authors"));
        let mut checked = 0;
        for entity in self.dataset.entities() {
            let stmts = entity.statements.as_slice();
            // The canonical truth is the gold-true statement with the
            // maximal author-set (all true variants share one author set).
            let Some(&truth) = stmts
                .iter()
                .find(|&&s| is_author(s) && self.gold[s.0 as usize])
            else {
                continue;
            };
            let truth_text = self.dataset.statement_text(truth).to_string();
            for &s in stmts {
                if !is_author(s) {
                    continue;
                }
                let equal = lists_equivalent(&truth_text, self.dataset.statement_text(s));
                assert_eq!(
                    equal,
                    self.gold[s.0 as usize],
                    "gold inconsistency for statement {:?} ({})",
                    s,
                    self.dataset.statement_text(s)
                );
                checked += 1;
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(BookGenConfig::quick());
        let b = generate(BookGenConfig::quick());
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_change_output() {
        let a = generate(BookGenConfig::quick());
        let b = generate(BookGenConfig {
            seed: 43,
            ..BookGenConfig::quick()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn every_book_has_a_true_statement() {
        let g = generate(BookGenConfig::quick());
        for e in g.dataset.entities() {
            assert!(
                e.statements.iter().any(|s| g.gold[s.0 as usize]),
                "book {} has no true statement",
                e.name
            );
        }
    }

    #[test]
    fn gold_labels_agree_with_text_equivalence() {
        let g = generate(BookGenConfig::quick());
        let checked = g.verify_gold_consistency();
        assert!(checked > 0);
    }

    #[test]
    fn raw_claim_true_rate_near_half() {
        let g = generate(BookGenConfig::default());
        let rate = g.raw_claim_true_rate();
        // Paper: "only around 50% of Web data facts is correct".
        assert!(
            (0.35..=0.65).contains(&rate),
            "raw claim true rate {rate} too far from 0.5"
        );
    }

    #[test]
    fn statement_counts_respect_config() {
        let cfg = BookGenConfig::quick();
        let g = generate(cfg.clone());
        for e in g.dataset.entities() {
            assert!(e.statements.len() <= cfg.statements_per_book.1);
            assert!(!e.statements.is_empty());
        }
        assert_eq!(g.dataset.entities().len(), cfg.n_books);
        assert_eq!(g.dataset.sources().len(), cfg.n_sources + cfg.n_specialists);
        assert_eq!(g.gold.len(), g.dataset.statements().len());
        assert_eq!(g.classes.len(), g.dataset.statements().len());
    }

    #[test]
    fn confusion_classes_present() {
        let g = generate(BookGenConfig::default());
        let count = |class: TaskClass| g.classes.iter().filter(|&&c| c == class).count();
        assert!(count(TaskClass::Clean) > 0);
        assert!(count(TaskClass::Misspelling) > 0);
        assert!(count(TaskClass::AdditionalInfo) > 0);
        assert!(count(TaskClass::WrongOrder) > 0);
    }

    #[test]
    fn wrong_order_statements_are_true_misspellings_false() {
        let g = generate(BookGenConfig::default());
        for (i, class) in g.classes.iter().enumerate() {
            match class {
                TaskClass::WrongOrder => assert!(g.gold[i], "wrong-order must be true"),
                TaskClass::Misspelling | TaskClass::AdditionalInfo => {
                    assert!(!g.gold[i], "{class:?} must be false")
                }
                TaskClass::Clean => {}
            }
        }
    }

    #[test]
    fn large_books_hit_the_exact_statement_count() {
        // The n = 32–40 correlated-fact scenario behind the sparse
        // answer-table workloads: exact sizes, deterministic, and with
        // genuine shared-author correlation groups (the true variants
        // always share one group).
        for n in [32usize, 40] {
            let cfg = BookGenConfig {
                n_books: 2,
                seed: 7,
                ..BookGenConfig::large(n)
            };
            let g = generate(cfg);
            assert_eq!(g.dataset.entities().len(), 2);
            for e in g.dataset.entities() {
                assert_eq!(
                    e.statements.len(),
                    n,
                    "book {} missed the target size",
                    e.name
                );
                let groups = g.correlation_groups(e.id);
                assert!(
                    groups.len() >= 2,
                    "book {} has no conflicting author sets",
                    e.name
                );
                // At least one multi-member group: the shared-author
                // format variants that drive the correlated prior must
                // actually be present, not just singleton conflicts.
                assert!(
                    groups.iter().any(|grp| grp.len() >= 2),
                    "book {} has only singleton correlation groups",
                    e.name
                );
            }
            g.verify_gold_consistency();
        }
    }

    #[test]
    fn correlation_groups_partition_statements() {
        let g = generate(BookGenConfig::quick());
        for e in g.dataset.entities() {
            let groups = g.correlation_groups(e.id);
            let mut seen = std::collections::HashSet::new();
            for group in &groups {
                for &idx in group {
                    assert!(idx < e.statements.len());
                    assert!(seen.insert(idx), "index {idx} in two groups");
                }
            }
            assert_eq!(seen.len(), e.statements.len());
            // All gold-true statements are equivalent, hence in one group.
            let gold = g.gold_for(e.id);
            let true_group: Vec<usize> = (0..gold.len()).filter(|&i| gold[i]).collect();
            if true_group.len() > 1 {
                let holder = groups
                    .iter()
                    .find(|grp| grp.contains(&true_group[0]))
                    .unwrap();
                for idx in &true_group {
                    assert!(holder.contains(idx), "true variants split across groups");
                }
            }
        }
    }

    #[test]
    fn select_books_remaps_consistently() {
        let g = generate(BookGenConfig::quick());
        let keep = g.smallest_books(4);
        assert_eq!(keep.len(), 4);
        let sub = g.select_books(&keep);
        assert_eq!(sub.dataset.entities().len(), 4);
        assert_eq!(sub.gold.len(), sub.dataset.statements().len());
        sub.verify_gold_consistency();
        // Books sorted by size: first selected book is the smallest.
        let sizes: Vec<usize> = keep
            .iter()
            .map(|e| g.dataset.statements_of(*e).len())
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn with_attributes_types_every_statement_and_stays_deterministic() {
        let g = generate(BookGenConfig::quick());
        let a = g.with_attributes(9);
        assert_eq!(a, g.with_attributes(9), "attribute rebuild must be pure");
        assert_ne!(a, g.with_attributes(10));
        // Every statement is typed; every book carries all three routed
        // attributes, and array lengths stay parallel.
        assert_eq!(a.gold.len(), a.dataset.statements().len());
        assert_eq!(a.classes.len(), a.dataset.statements().len());
        for e in a.dataset.entities() {
            let mut attrs = std::collections::BTreeSet::new();
            for &s in &e.statements {
                attrs.insert(a.dataset.statement_attribute(s).expect("statement typed"));
            }
            assert_eq!(
                attrs.into_iter().collect::<Vec<_>>(),
                vec!["authors", "pages", "published"]
            );
            // Exactly one gold-true page count and one gold-true date.
            for attr in ["pages", "published"] {
                let truths = e
                    .statements
                    .iter()
                    .filter(|&&s| {
                        a.dataset.statement_attribute(s) == Some(attr) && a.gold[s.0 as usize]
                    })
                    .count();
                assert_eq!(truths, 1, "{attr} of {} has {truths} truths", e.name);
            }
        }
        // The author statements carried over in order with their labels.
        a.verify_gold_consistency();
        // Typed data is what the composite consumes end to end.
        use crowdfusion_fusion::FusionMethod;
        let r = crowdfusion_fusion::DataFusionStrategy::standard()
            .fuse(&a.dataset)
            .unwrap();
        assert_eq!(r.probs().len(), a.dataset.statements().len());
    }

    #[test]
    fn specialists_are_unreliable_outside_their_domain() {
        // With many books the specialist's textbook/non-textbook claim
        // accuracies should straddle the configured split.
        let cfg = BookGenConfig {
            n_books: 300,
            participation: 1.0,
            ..BookGenConfig::default()
        };
        let g = generate(cfg.clone());
        let specialist = crowdfusion_fusion::SourceId(cfg.n_sources as u32);
        let mut text_ok = 0usize;
        let mut text_all = 0usize;
        let mut other_ok = 0usize;
        let mut other_all = 0usize;
        for c in g.dataset.claims() {
            if c.source != specialist {
                continue;
            }
            let e = g.dataset.statement_entity(c.statement);
            let correct = g.gold[c.statement.0 as usize];
            if g.textbook[e.0 as usize] {
                text_all += 1;
                text_ok += correct as usize;
            } else {
                other_all += 1;
                other_ok += correct as usize;
            }
        }
        assert!(text_all > 0 && other_all > 0);
        let text_rate = text_ok as f64 / text_all as f64;
        let other_rate = other_ok as f64 / other_all as f64;
        assert!(
            text_rate > other_rate + 0.2,
            "specialist rates: textbook {text_rate} vs other {other_rate}"
        );
    }
}
