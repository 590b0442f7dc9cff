//! Spans and counters recorded around calls into each layer.
//!
//! Every op opens one span; every layer call made for it opens a child
//! span that carries the same op id. Spans stay in memory and are written
//! once, when the run ends. Counters are exact work counts (variables,
//! clauses, conflicts, gates) and are recorded whether or not spans are.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use cutelock_core::clock::{ClockHandle, Instant};

use crate::measure::Samples;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op this span belongs to.
    pub op: u64,
    /// The metric the span is summarised under (`"op"` for the op itself).
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans, per-metric time samples and exact counters.
pub struct Tracer {
    clock: ClockHandle,
    origin: Instant,
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    times: BTreeMap<&'static str, Samples>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer on `clock`; with `enabled == false` spans and times are
    /// skipped and only counters are kept.
    pub fn new(clock: ClockHandle, enabled: bool) -> Self {
        let origin = clock.now();
        Self {
            clock,
            origin,
            enabled,
            op: 0,
            spans: Vec::new(),
            times: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The clock spans are read from.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// Starts a new op; later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `layer` (a time metric such as
    /// `"sat.solve_ms"`).
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.clock.now();
        let out = f();
        let end = self.clock.now();
        self.record(layer, start, end);
        out
    }

    /// Records an interval measured by the caller.
    pub fn record(&mut self, layer: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        self.spans.push(Span {
            op: self.op,
            layer,
            start_ns,
            end_ns,
        });
        self.sample(layer, end.duration_since(start));
    }

    /// Adds a time sample without a span (a derived figure such as a
    /// per-row cost).
    pub fn sample(&mut self, metric: &'static str, d: Duration) {
        if self.enabled {
            self.times.entry(metric).or_default().push(d);
        }
    }

    /// Adds `n` to an exact counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Takes the counters recorded so far, leaving them empty.
    pub fn take_counts(&mut self) -> BTreeMap<&'static str, u64> {
        std::mem::take(&mut self.counts)
    }

    /// Samples of one time metric.
    pub fn times(&self, metric: &str) -> Option<&Samples> {
        self.times.get(metric)
    }

    /// Total time recorded under each span layer, in milliseconds.
    pub fn layer_totals_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    /// All spans as tab-separated lines: op, layer, start_ns, end_ns.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("op\tlayer\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(out, "{}\t{}\t{}\t{}", s.op, s.layer, s.start_ns, s.end_ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_core::clock::VirtualClock;

    #[test]
    fn spans_share_the_op_id_and_sum_per_layer() {
        let vc = VirtualClock::new();
        let mut t = Tracer::new(vc.handle(), true);
        t.begin_op();
        t.span("op", || vc.advance(Duration::from_millis(3)));
        t.span("sat.solve_ms", || vc.advance(Duration::from_millis(2)));
        t.begin_op();
        t.span("sat.solve_ms", || vc.advance(Duration::from_millis(4)));
        t.count("sat.conflicts", 5);
        t.count("sat.conflicts", 2);
        let totals = t.layer_totals_ms();
        assert_eq!(totals["op"], 3.0);
        assert_eq!(totals["sat.solve_ms"], 6.0);
        assert_eq!(t.times("sat.solve_ms").map(Samples::len), Some(2));
        assert_eq!(t.take_counts()["sat.conflicts"], 7);
        let tsv = t.spans_tsv();
        assert!(tsv.contains("1\tsat.solve_ms\t3000000\t5000000"), "{tsv}");
        assert!(tsv.contains("2\tsat.solve_ms\t5000000\t9000000"), "{tsv}");
    }

    #[test]
    fn a_disabled_tracer_keeps_counts_only() {
        let vc = VirtualClock::new();
        let mut t = Tracer::new(vc.handle(), false);
        assert_eq!(t.span("op", || 7), 7);
        t.count("core.gates_added", 3);
        assert!(t.layer_totals_ms().is_empty());
        assert_eq!(t.take_counts()["core.gates_added"], 3);
    }
}
