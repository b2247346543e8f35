//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a module's public functions is
//! recorded as a span: name, start, end, the span that was open when it
//! started (its parent), and the id of the request it serves. Spans stay
//! in memory until the run ends; then they are written out and folded
//! into per-name self times (a span's duration minus the part of it its
//! direct children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `protocol.decode`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    /// Nanoseconds since the recorder started (`end >= start`).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this call serves.
    pub request: u64,
}

impl Span {
    /// Wall time of the call in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-name totals folded out of a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Calls recorded under the name.
    pub calls: u64,
    /// Summed self time (wall time minus direct children), nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean self time per call in microseconds.
    pub fn self_us_per_call(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// Self time of every span: its duration minus the durations of the spans
/// whose parent it is. Children never outlive their parent, so the
/// result cannot underflow for spans the [`Tracer`] produced.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| span.duration().saturating_sub(children))
        .collect()
}

/// Folds spans into per-name totals, names in sorted order.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
    }
    out
}

/// Records nested spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`. Returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, index: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        let end = self.now();
        let span = &mut self.spans[index];
        span.end = end;
        span.duration()
    }

    /// Runs `f` inside a span; returns its value and the span's duration
    /// in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let index = self.enter(name);
        let value = f();
        let ns = self.exit(index);
        (value, ns)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines: request, name, index,
    /// parent index (`-` for roots), start and end in nanoseconds.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tname\tindex\tparent\tstart_ns\tend_ns")?;
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{index}\t{parent}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0, 100) holds decode [10, 20) and handle [20, 90);
        // handle holds its own child [30, 60).
        let spans = [
            span("request", 0, 100, None),
            span("decode", 10, 20, Some(0)),
            span("handle", 20, 90, Some(0)),
            span("inner", 30, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 30]);
        let t = totals(&spans);
        assert_eq!(t["request"].self_ns, 20);
        assert_eq!(t["handle"].self_ns, 40);
        // Self times partition the root's wall time exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_fold_repeated_names() {
        let spans = [
            span("select", 0, 5, None),
            span("select", 10, 13, None),
            span("absorb", 20, 21, None),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["select"],
            SpanTotals {
                calls: 2,
                self_ns: 8
            }
        );
        assert_eq!(t["select"].self_us_per_call(), 0.004);
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), ["absorb", "select"]);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut tracer = Tracer::new();
        tracer.set_request(7);
        let outer = tracer.enter("outer");
        let (value, _) = tracer.time("inner", || 21 * 2);
        tracer.exit(outer);
        tracer.set_request(8);
        tracer.time("next", || ());
        let s = tracer.spans();
        assert_eq!(value, 42);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].request, s[1].request, s[2].request), (7, 7, 8));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        let self_ns = self_times(s);
        assert_eq!(self_ns[0], s[0].duration() - s[1].duration());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new();
        let a = tracer.enter("a");
        let _b = tracer.enter("b");
        tracer.exit(a);
    }
}
