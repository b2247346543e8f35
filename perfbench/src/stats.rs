//! The benchmark's own statistics: nearest-rank percentiles with an
//! honest tail, per-verb failure accounting, medians, and the quartile a
//! run reports its figures at.

use std::collections::BTreeMap;

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; otherwise the next lower percentile that has them is used.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentile the benchmark aims to report, in per-mille.
pub const P99: u32 = 990;

/// 1-based nearest rank of the `permille`-th percentile among `n`
/// samples: the smallest rank with at least that share of samples at or
/// below it. Integer arithmetic, so p99 of 1000 samples is rank 990
/// exactly.
fn rank(n: usize, permille: u32) -> usize {
    (permille as usize * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly above the nearest-rank `permille`-th percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// The tail percentile (per-mille) to report for `n` samples: p99 when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it, else the highest whole
/// percentile that has that many beyond it; `None` when not even p1 does.
pub fn tail_permille(n: usize) -> Option<u32> {
    if beyond(n, P99) >= TAIL_MIN_BEYOND {
        return Some(P99);
    }
    (1..99u32)
        .rev()
        .map(|p| p * 10)
        .find(|&pm| beyond(n, pm) >= TAIL_MIN_BEYOND)
}

/// One latency series, summarised: median and tail with their support.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Samples, failures included (a failure is an infinite latency).
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported, per-mille (990 = p99).
    /// Falls back to the maximum (1000) when no percentile has
    /// [`TAIL_MIN_BEYOND`] samples beyond it.
    pub tail_permille: u32,
    /// The value at that percentile.
    pub tail: f64,
    /// Samples beyond the reported tail percentile.
    pub beyond_tail: usize,
    /// Samples beyond p99 itself.
    pub beyond_p99: usize,
}

/// The gated tail percentile, per-mille. p99 is reported with its
/// support but not gated: on the durable workload it sits on the knee
/// between fsync-bound requests and the ~1% delayed by filesystem
/// journal commits and auto-snapshots, and moved by 0.3–0.7 of its
/// median between runs of the same code.
pub const P95: u32 = 950;

impl Latency {
    /// Summarises samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_permille = tail_permille(n).unwrap_or(1000);
        let tail = percentile(&sorted, tail_permille);
        Some(Latency {
            n,
            p50: percentile(&sorted, 500),
            tail_permille,
            tail,
            beyond_tail: beyond(n, tail_permille),
            beyond_p99: beyond(n, P99),
        })
    }

    /// Whether the reported tail is p99 itself.
    pub fn tail_is_p99(&self) -> bool {
        self.tail_permille == P99
    }

    /// Human-readable line: `p50 … p99 … (n = …, … beyond p99)`, naming
    /// the substitute percentile when p99 lacks support.
    pub fn describe(&self) -> String {
        let tail = if self.tail_is_p99() {
            format!("p99 {:.1}", self.tail)
        } else {
            format!(
                "p{} {:.1} (stands in for p99: only {} samples beyond p99)",
                // Whole percentiles only (or 1000, the maximum).
                self.tail_permille / 10,
                self.tail,
                self.beyond_p99
            )
        };
        format!(
            "p50 {:.1} us, {tail} us; n = {}, {} beyond the reported tail",
            self.p50, self.n, self.beyond_tail
        )
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The figure of the slower quarter of a run's samples: the upper
/// quartile of times, the lower quartile of rates (nearest rank).
///
/// The host a run shares alternates, every few seconds, between a slow
/// phase and one about 1.4 times as fast, and how a run's time splits
/// between them varies from run to run. A median or a mean moves with
/// that split; the slower quartile stays inside the slow phase as long as
/// that phase takes more than a quarter of the run.
pub fn slower_quartile(values: &[f64], time: bool) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, if time { 750 } else { 250 }))
}

/// Failed requests as a share of those attempted (0 when none were).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Attempted, succeeded and failed counts of one verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerbCount {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered as intended.
    pub ok: u64,
    /// Error responses, refusals and client I/O errors.
    pub failed: u64,
}

/// Per-verb request outcomes plus the latency of every attempt, where a
/// failed attempt counts as an infinite latency: it misses every limit.
#[derive(Debug, Clone, Default)]
pub struct Requests {
    /// Outcome counts by verb.
    pub counts: BTreeMap<&'static str, VerbCount>,
    /// Round-trip latencies in microseconds, by verb.
    pub latency_us: BTreeMap<&'static str, Vec<f64>>,
    /// Per verb, the p50 and p95 of each closed episode's latencies.
    pub episodes: BTreeMap<&'static str, Vec<(f64, f64)>>,
    /// Per verb, where the open episode's latencies start.
    open_from: BTreeMap<&'static str, usize>,
}

impl Requests {
    /// Records one attempt of `verb` that took `us` microseconds.
    pub fn record(&mut self, verb: &'static str, ok: bool, us: f64) {
        let count = self.counts.entry(verb).or_default();
        count.attempted += 1;
        if ok {
            count.ok += 1;
        } else {
            count.failed += 1;
        }
        let latency = if ok { us } else { f64::INFINITY };
        self.latency_us.entry(verb).or_default().push(latency);
    }

    /// Totals over every verb.
    pub fn total(&self) -> VerbCount {
        self.counts
            .values()
            .fold(VerbCount::default(), |acc, c| VerbCount {
                attempted: acc.attempted + c.attempted,
                ok: acc.ok + c.ok,
                failed: acc.failed + c.failed,
            })
    }

    /// Closes the open episode: records, for each verb sent in it, the
    /// p50 and p95 of its latencies since the last close.
    pub fn close_episode(&mut self) {
        for (&verb, samples) in &self.latency_us {
            let from = self.open_from.insert(verb, samples.len()).unwrap_or(0);
            let mut sorted = samples[from..].to_vec();
            if sorted.is_empty() {
                continue;
            }
            sorted.sort_by(f64::total_cmp);
            let figures = (percentile(&sorted, 500), percentile(&sorted, P95));
            self.episodes.entry(verb).or_default().push(figures);
        }
    }

    /// Latency summary of one verb.
    pub fn latency(&self, verb: &str) -> Option<Latency> {
        self.latency_us.get(verb).and_then(|s| Latency::of(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_on_a_ramp() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 500), 500.0);
        assert_eq!(percentile(&s, 990), 990.0);
        assert_eq!(percentile(&s, 1000), 1000.0);
        assert_eq!(percentile(&ramp(1), 990), 1.0);
        // Odd count: the median is the middle sample.
        assert_eq!(percentile(&ramp(5), 500), 3.0);
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(0, 990), 0);
    }

    #[test]
    fn p99_is_kept_while_ten_samples_lie_beyond_it() {
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(100_000), Some(990));
        let l = Latency::of(&ramp(2000)).unwrap();
        assert!(l.tail_is_p99());
        assert_eq!((l.tail, l.beyond_tail, l.beyond_p99), (1980.0, 20, 20));
    }

    #[test]
    fn short_series_fall_back_to_the_highest_supported_percentile() {
        // 400 samples: p99 has only 4 beyond it; p97 has 12 (rank 388),
        // p98 only 8 — so p97 is the highest whole percentile reported.
        assert_eq!(beyond(400, 990), 4);
        assert_eq!(tail_permille(400), Some(970));
        let l = Latency::of(&ramp(400)).unwrap();
        assert_eq!((l.tail_permille, l.tail, l.beyond_tail), (970, 388.0, 12));
        assert!(l.describe().contains("stands in for p99"));
        // Too few samples for any percentile with ten beyond: the maximum.
        assert_eq!(tail_permille(10), None);
        let tiny = Latency::of(&ramp(10)).unwrap();
        assert_eq!(
            (tiny.tail_permille, tiny.tail, tiny.beyond_tail),
            (1000, 10.0, 0)
        );
        assert!(Latency::of(&[]).is_none());
    }

    #[test]
    fn episodes_close_into_their_own_percentiles() {
        let mut r = Requests::default();
        for i in 1..=100 {
            r.record("round", true, i as f64);
        }
        r.close_episode();
        // An episode that stalled: every figure of its own moves, the
        // first episode's stay.
        for i in 1..=20 {
            r.record("round", true, 1000.0 + i as f64);
        }
        r.record("open", true, 7.0);
        r.close_episode();
        r.close_episode(); // nothing new: no episode recorded
        assert_eq!(r.episodes["round"], [(50.0, 95.0), (1010.0, 1019.0)]);
        assert_eq!(r.episodes["open"], [(7.0, 7.0)]);
    }

    #[test]
    fn failures_count_as_missing_every_latency_figure() {
        let mut r = Requests::default();
        for i in 0..980 {
            r.record("absorb", true, i as f64);
        }
        for _ in 0..20 {
            r.record("absorb", false, 1.0);
        }
        let l = r.latency("absorb").unwrap();
        assert_eq!(l.n, 1000);
        assert!(l.tail_is_p99());
        assert!(l.tail.is_infinite(), "the failed requests occupy the tail");
        assert!(l.p50.is_finite());
        let c = r.counts["absorb"];
        assert_eq!((c.attempted, c.ok, c.failed), (1000, 980, 20));
        assert_eq!(failed_share(c.failed, c.attempted), 0.02);
    }

    #[test]
    fn failed_share_totals_over_verbs() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(0, 7), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
        let mut r = Requests::default();
        r.record("round", true, 3.0);
        r.record("round", false, 9.0);
        r.record("open", true, 5.0);
        let t = r.total();
        assert_eq!((t.attempted, t.ok, t.failed), (3, 2, 1));
        assert_eq!(failed_share(t.failed, t.attempted), 1.0 / 3.0);
        assert_eq!(r.latency_us["round"], [3.0, f64::INFINITY]);
    }

    #[test]
    fn slower_quartile_stays_in_the_slow_phase() {
        // Twelve episode times: eight in a slow phase (10..=17), four in
        // a fast one (6..=9). The upper quartile is the 9th smallest.
        let mut times: Vec<f64> = (10..=17).map(f64::from).collect();
        times.extend((6..=9).map(f64::from));
        assert_eq!(slower_quartile(&times, true), Some(14.0));
        assert_eq!(median(&times), Some(11.5));
        // Two fast episodes more: the figure stays where it was, while
        // the median moves by a whole step.
        times.extend([6.0, 7.0]);
        assert_eq!(slower_quartile(&times, true), Some(14.0));
        assert_eq!(median(&times), Some(10.5));
        // Rates: the lower quartile.
        let rates: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(slower_quartile(&rates, false), Some(2.0));
        assert_eq!(slower_quartile(&[], true), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
