//! Metric tables and the result line.
//!
//! The end-to-end run prints every end-to-end metric; the traced run prints
//! every per-layer metric. Each is printed as a table row (value, unit,
//! sample count) and again in the JSON object on the last line.

use std::fmt::Write as _;

use crate::engine::Phase;
use crate::trace::Tracer;

/// `op_p90_ms` is a tail estimate only with at least ten samples beyond it.
pub const P90_MIN_OPS: usize = 100;

/// One printed metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 when the workload does not call the
    /// layer).
    pub samples: usize,
    /// A note printed next to the row.
    pub note: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        note: "",
    }
}

/// The end-to-end metrics of one phase.
pub fn end_to_end(p: &Phase) -> Vec<Metric> {
    let secs = p.op_wall.as_secs_f64();
    let mut p90 = metric("op_p90_ms", p.ops.percentile_ms(90.0), "ms", p.ops.len());
    if p.ops.len() < P90_MIN_OPS {
        p90.note = "fewer than 100 samples: not a tail estimate";
    }
    vec![
        metric("setup_s", p.setup.median_ms() / 1e3, "s", p.setup.len()),
        metric("op_p50_ms", p.ops.median_ms(), "ms", p.ops.len()),
        p90,
        metric(
            "ops_per_s",
            if secs > 0.0 {
                p.attempted as f64 / secs
            } else {
                0.0
            },
            "1/s",
            p.attempted,
        ),
        metric(
            "ok_ratio",
            p.ok as f64 / p.attempted.max(1) as f64,
            "ratio",
            p.attempted,
        ),
        metric("peak_rss_mb", p.peak_rss_mb, "MiB", 1),
    ]
}

/// Per-layer metrics: `(name, unit)`, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.gen_ms", "ms"),
    ("netlist.parse_ms", "ms"),
    ("netlist.simplify_ms", "ms"),
    ("netlist.gates_removed", "count"),
    ("core.lock_ms", "ms"),
    ("core.gates_added", "count"),
    ("sim.corruption_ms", "ms"),
    ("sim.wide_verify_ms", "ms"),
    ("sim.oracle_batch_ms", "ms"),
    ("sat.encode_ms", "ms"),
    ("sat.vars", "count"),
    ("sat.clauses", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_ms", "1/ms"),
    ("attacks.bbo_ms", "ms"),
    ("attacks.int_ms", "ms"),
    ("attacks.kc2_ms", "ms"),
    ("attacks.rane_ms", "ms"),
    ("attacks.sat_ms", "ms"),
    ("attacks.appsat_ms", "ms"),
    ("attacks.double-dip_ms", "ms"),
    ("attacks.fall_ms", "ms"),
    ("attacks.dana_ms", "ms"),
    ("attacks.iterations", "count"),
    ("attacks.bound", "count"),
    ("attacks.conflicts", "count"),
    ("attacks.propagations", "count"),
    ("attacks.gc_runs", "count"),
    ("attacks.decisive_ratio", "ratio"),
    ("store.append_us_per_row", "us"),
    ("store.bytes_per_row", "B"),
    ("store.query_ms", "ms"),
    ("jobs.submit_ms", "ms"),
    ("jobs.result_ms", "ms"),
    ("jobs.cache_hits", "count"),
    ("jobs.cache_hit_ratio", "ratio"),
    ("jobs.express_p50_ms", "ms"),
    ("jobs.batch_p50_ms", "ms"),
    ("jobs.overhead_ms", "ms"),
];

/// The per-layer metrics of a traced phase. Time metrics are medians per
/// call; counts are exact and per pass.
pub fn per_layer(p: &Phase, t: &Tracer) -> Vec<Metric> {
    let count = |name: &str| p.counts.get(name).copied().unwrap_or(0);
    let samples = |name: &str| t.times(name).map_or(0, |s| s.len());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = match name {
                "sat.props_per_ms" => {
                    let ms = t.times("sat.solve_ms").map_or(0.0, |s| s.total_ms());
                    let props = count("sat.propagations") as f64 * p.passes as f64;
                    (
                        if ms > 0.0 { props / ms } else { 0.0 },
                        samples("sat.solve_ms"),
                    )
                }
                "attacks.decisive_ratio" => {
                    let runs = count("attacks.runs");
                    (
                        count("attacks.decisive") as f64 / runs.max(1) as f64,
                        runs as usize,
                    )
                }
                "store.append_us_per_row" => (
                    t.times(name).map_or(0.0, |s| s.median_ms() * 1e3),
                    samples(name),
                ),
                "store.bytes_per_row" => {
                    let rows = count("store.rows");
                    (
                        count("store.bytes") as f64 / rows.max(1) as f64,
                        rows as usize,
                    )
                }
                "jobs.cache_hit_ratio" => {
                    let daemon = p.counts.contains_key("jobs.requests");
                    let n = if daemon { p.attempted } else { 0 };
                    (p.cache_hits as f64 / p.attempted.max(1) as f64, n)
                }
                _ if unit == "count" => {
                    (count(name) as f64, usize::from(p.counts.contains_key(name)))
                }
                _ => (t.times(name).map_or(0.0, |s| s.median_ms()), samples(name)),
            };
            metric(name, value, unit, n)
        })
        .collect()
}

/// Prints metrics as an aligned table.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<26} {:>16}  {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "  {:<26} {:>16.4}  {:<6} {:>8}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The result object printed as the last line.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
