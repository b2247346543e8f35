//! Correlated country-facts generator for query-based CrowdFusion.
//!
//! Section IV of the paper motivates the query-based extension with users
//! who only care about population and demographic facts, while *continent*
//! facts remain worth asking because they correlate with both ("Asia
//! countries tend to have large population"). This generator reproduces that
//! scenario: per country it emits
//!
//! * two mutually exclusive continent facts (Asia / Europe),
//! * a large-population fact softly implied by the Asia fact,
//! * two mutually exclusive majority-ethnic-group facts, correlated with
//!   the continent,
//!
//! as an explicit joint prior (via the factor-graph builder), a hidden gold
//! assignment and the facts-of-interest set `I` (population + ethnic group).

use crowdfusion_jointdist::{Assignment, Factor, FactorGraphBuilder, JointDist, VarSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for the country-facts generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountryGenConfig {
    /// Number of countries to generate.
    pub n_countries: usize,
    /// Strength of the continent → population implication (penalty for
    /// violating it; 0 = hard, 1 = no correlation).
    pub implication_penalty: f64,
    /// Penalty for claiming two continents (or two ethnic groups) at once.
    pub exclusivity_penalty: f64,
    /// Noise added to the prior marginals around the gold truth; higher
    /// means a less informative machine prior.
    pub marginal_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CountryGenConfig {
    fn default() -> CountryGenConfig {
        CountryGenConfig {
            n_countries: 20,
            implication_penalty: 0.35,
            exclusivity_penalty: 0.05,
            marginal_noise: 0.35,
            seed: 7,
        }
    }
}

/// One country's facts: labels, a correlated joint prior, the hidden gold
/// assignment and the facts-of-interest subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountryFacts {
    /// Country name.
    pub name: String,
    /// Fact labels in variable order (5 facts).
    pub labels: Vec<String>,
    /// The correlated prior over the 5 facts.
    pub prior: JointDist,
    /// Hidden gold assignment (used by the crowd simulator).
    pub gold: Assignment,
    /// Facts of interest `I ⊆ F` (population + ethnic-group variables).
    pub interest: VarSet,
}

/// Variable indices within each country's fact vector.
pub mod vars {
    /// "Continent = Asia".
    pub const CONTINENT_ASIA: usize = 0;
    /// "Continent = Europe".
    pub const CONTINENT_EUROPE: usize = 1;
    /// "Population ≥ 50M".
    pub const LARGE_POPULATION: usize = 2;
    /// "Major ethnic group = Group A" (an Asia-typical group).
    pub const ETHNIC_A: usize = 3;
    /// "Major ethnic group = Group B" (a Europe-typical group).
    pub const ETHNIC_B: usize = 4;
}

const COUNTRY_STEMS: [&str; 20] = [
    "Aralia", "Borvia", "Cestan", "Dornland", "Elbia", "Fornost", "Garvia", "Hestia", "Ilmar",
    "Jorvik", "Kestral", "Luminia", "Morvath", "Nerida", "Ostrava", "Pelagia", "Quenda", "Rasteg",
    "Sorvia", "Tellan",
];

impl CountryGenConfig {
    /// Checks that the configuration can generate countries; the error
    /// says which condition failed. [`generate`] panics on a configuration
    /// that fails this check.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_countries == 0 {
            return Err("n_countries must be positive".to_string());
        }
        if !((0.0..=1.0).contains(&self.implication_penalty)
            && (0.0..=1.0).contains(&self.exclusivity_penalty)
            && (0.0..=0.5).contains(&self.marginal_noise))
        {
            return Err("penalties or marginal_noise out of range".to_string());
        }
        Ok(())
    }
}

/// Generates the configured number of countries; panics if
/// [`CountryGenConfig::validate`] rejects `config`.
pub fn generate(config: CountryGenConfig) -> Vec<CountryFacts> {
    if let Err(e) = config.validate() {
        panic!("invalid CountryGenConfig: {e}");
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.n_countries)
        .map(|i| generate_one(&config, &mut rng, i))
        .collect()
}

fn generate_one(config: &CountryGenConfig, rng: &mut StdRng, index: usize) -> CountryFacts {
    let stem = COUNTRY_STEMS[index % COUNTRY_STEMS.len()];
    let name = if index < COUNTRY_STEMS.len() {
        stem.to_string()
    } else {
        format!("{stem}-{}", index / COUNTRY_STEMS.len())
    };

    // Gold truth: the country is either Asian (large population & group A
    // likely) or European.
    let is_asia = rng.gen_bool(0.5);
    let large_pop = if is_asia {
        rng.gen_bool(0.8)
    } else {
        rng.gen_bool(0.3)
    };
    let ethnic_a = if is_asia {
        rng.gen_bool(0.85)
    } else {
        rng.gen_bool(0.15)
    };
    let mut gold = Assignment::ALL_FALSE;
    gold = gold.with(vars::CONTINENT_ASIA, is_asia);
    gold = gold.with(vars::CONTINENT_EUROPE, !is_asia);
    gold = gold.with(vars::LARGE_POPULATION, large_pop);
    gold = gold.with(vars::ETHNIC_A, ethnic_a);
    gold = gold.with(vars::ETHNIC_B, !ethnic_a);

    // Noisy machine-prior marginals around the gold truth.
    let noisy = |truth: bool, rng: &mut StdRng| -> f64 {
        let base: f64 = if truth { 0.75 } else { 0.25 };
        let jitter = rng.gen_range(-config.marginal_noise..=config.marginal_noise);
        (base + jitter).clamp(0.05, 0.95)
    };
    let marginals: Vec<f64> = (0..5).map(|v| noisy(gold.get(v), rng)).collect();

    let prior = FactorGraphBuilder::new(marginals)
        .factor(Factor::AtMostOne {
            vars: VarSet::from_vars([vars::CONTINENT_ASIA, vars::CONTINENT_EUROPE]),
            penalty: config.exclusivity_penalty,
        })
        .factor(Factor::AtMostOne {
            vars: VarSet::from_vars([vars::ETHNIC_A, vars::ETHNIC_B]),
            penalty: config.exclusivity_penalty,
        })
        .factor(Factor::Implies {
            premise: vars::CONTINENT_ASIA,
            conclusion: vars::LARGE_POPULATION,
            penalty: config.implication_penalty,
        })
        .factor(Factor::Implies {
            premise: vars::CONTINENT_ASIA,
            conclusion: vars::ETHNIC_A,
            penalty: config.implication_penalty,
        })
        .factor(Factor::Implies {
            premise: vars::CONTINENT_EUROPE,
            conclusion: vars::ETHNIC_B,
            penalty: config.implication_penalty,
        })
        .build()
        .expect("country prior is satisfiable");

    CountryFacts {
        labels: vec![
            format!("{name}, Continent, Asia"),
            format!("{name}, Continent, Europe"),
            format!("{name}, Population, >= 50M"),
            format!("{name}, Major Ethnic Group, A"),
            format!("{name}, Major Ethnic Group, B"),
        ],
        name,
        prior,
        gold,
        interest: VarSet::from_vars([vars::LARGE_POPULATION, vars::ETHNIC_A, vars::ETHNIC_B]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let a = generate(CountryGenConfig::default());
        let b = generate(CountryGenConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for c in &a {
            assert_eq!(c.prior.num_vars(), 5);
            assert_eq!(c.labels.len(), 5);
            assert_eq!(c.interest.len(), 3);
        }
    }

    #[test]
    fn gold_respects_exclusivity() {
        for c in generate(CountryGenConfig::default()) {
            assert_ne!(
                c.gold.get(vars::CONTINENT_ASIA),
                c.gold.get(vars::CONTINENT_EUROPE)
            );
            assert_ne!(c.gold.get(vars::ETHNIC_A), c.gold.get(vars::ETHNIC_B));
        }
    }

    #[test]
    fn prior_correlates_continent_with_interest_facts() {
        // Mutual information between the continent facts and the facts of
        // interest must be positive — this is what makes continent worth
        // asking in query-based mode.
        let countries = generate(CountryGenConfig::default());
        let mut positive = 0;
        for c in &countries {
            let continent = VarSet::from_vars([vars::CONTINENT_ASIA, vars::CONTINENT_EUROPE]);
            let mi = c.prior.mutual_information(continent, c.interest).unwrap();
            if mi > 1e-3 {
                positive += 1;
            }
        }
        assert!(
            positive * 2 > countries.len(),
            "continent uninformative in {positive}/{} countries",
            countries.len()
        );
    }

    #[test]
    fn unique_names_even_beyond_stem_pool() {
        let countries = generate(CountryGenConfig {
            n_countries: 45,
            ..CountryGenConfig::default()
        });
        let names: std::collections::HashSet<_> =
            countries.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 45);
    }

    #[test]
    #[should_panic(expected = "n_countries")]
    fn zero_countries_rejected() {
        generate(CountryGenConfig {
            n_countries: 0,
            ..CountryGenConfig::default()
        });
    }
}
