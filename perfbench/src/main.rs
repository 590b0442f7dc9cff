//! The Cute-Lock benchmark: one command per workload, timed end to end
//! and, in a separate traced run, per layer.
//!
//! ```text
//! perfbench --workload <multikey-seq|keyfound-scan|lock-removal|daemon-mix>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every result is checked against a known answer. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). See `README.md` next to this crate for the workloads,
//! the metrics and what each layer metric should move.

mod engine;
mod layers;
mod measure;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cutelock_core::clock::ClockHandle;

use engine::{run_phase, Ctx, Phase};
use trace::Tracer;
use workloads::{daemon, keyfound::KeyFound, lockrm::LockRemoval, multikey::MultiKey};

const USAGE: &str = "perfbench --workload <multikey-seq|keyfound-scan|lock-removal|daemon-mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "multikey-seq",
    "keyfound-scan",
    "lock-removal",
    "daemon-mix",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|&n| n == w)
                    .ok_or(format!("unknown workload `{w}`"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Phase, String> {
    match ctx.workload {
        "multikey-seq" => run_phase(&MultiKey, ctx, tracer),
        "keyfound-scan" => run_phase(&KeyFound, ctx, tracer),
        "lock-removal" => run_phase(&LockRemoval, ctx, tracer),
        "daemon-mix" => daemon::run_phase(ctx, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn print_phase(label: &str, p: &Phase) {
    println!(
        "{label}: {} passes, {} ops attempted, {} ok, {} failed",
        p.passes, p.attempted, p.ok, p.failed
    );
    for (name, n) in &p.misses {
        println!("  miss x{n}: {name}");
    }
    for v in &p.violations {
        println!("  INCORRECT: {v}");
    }
}

fn print_counts(counts: &BTreeMap<&'static str, u64>) {
    println!("exact counts (one pass; a rerun of this seed must reproduce them):");
    for (k, v) in counts {
        println!("  {k:<26} {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        clock: ClockHandle::wall(),
        out_dir,
        workload: args.workload,
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut plain_tracer = Tracer::new(ctx.clock.clone(), false);
    let plain = match run(&ctx, &mut plain_tracer) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    print_phase("end to end", &plain);
    let plain_metrics = report::end_to_end(&plain);
    report::print_table("end-to-end metrics", &plain_metrics);
    print_counts(&plain.counts);
    if !args.trace {
        let correct = plain.violations.is_empty();
        println!(
            "{}",
            report::json_line(correct, plain.attempted, plain.failed, &plain_metrics)
        );
        return ExitCode::SUCCESS;
    }

    let mut tracer = Tracer::new(ctx.clock.clone(), true);
    let traced = match run(&ctx, &mut tracer) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{} (traced): {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    print_phase("traced", &traced);
    let mut violations = plain.violations.len() + traced.violations.len();
    for (k, v) in &plain.counts {
        if traced.counts.get(k) != Some(v) {
            violations += 1;
            println!(
                "  INCORRECT: count {k} is {v} untraced but {:?} traced",
                traced.counts.get(k)
            );
        }
    }
    let traced_metrics = report::end_to_end(&traced);
    println!("tracing overhead (traced minus untraced, same process):");
    for (a, b) in plain_metrics.iter().zip(&traced_metrics) {
        if a.name != "peak_rss_mb" && a.name != "ok_ratio" {
            println!("  {:<26} {:>+16.4}  {}", a.name, b.value - a.value, a.unit);
        }
    }
    let totals = tracer.layer_totals_ms();
    let op_ms = totals.get("op").copied().unwrap_or(0.0);
    println!("layer time as a share of op time (replays sit next to the op, not inside it):");
    for (layer, ms) in &totals {
        if *layer != "op" && op_ms > 0.0 {
            println!("  {layer:<26} {:>8.1}%  ({ms:.1} ms)", 100.0 * ms / op_ms);
        }
    }
    let spans = ctx
        .out_dir
        .join(format!("{}-seed{}.spans.tsv", ctx.workload, ctx.seed));
    match std::fs::write(&spans, tracer.spans_tsv()) {
        Ok(()) => println!("spans written to {}", spans.display()),
        Err(e) => eprintln!("{}: {e}", spans.display()),
    }
    let layers = report::per_layer(&traced, &tracer);
    report::print_table("per-layer metrics (traced)", &layers);
    print_counts(&traced.counts);
    println!(
        "{}",
        report::json_line(
            violations == 0,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            &layers
        )
    );
    ExitCode::SUCCESS
}
