//! The op loop shared by the workloads that dispatch ops on one thread.
//!
//! A run sets its workload up several times (each timed; the median is
//! `setup_s`), then runs whole passes over the op list until `--seconds`
//! have gone by. Every op is timed on its own; known-answer checks run
//! after the op phase and are not timed. Each pass must reproduce the
//! first pass's exact counters, or the run is marked incorrect.
//!
//! An op's latency is the median of its executions in the run, and the
//! latency percentiles are taken over ops. A pass that is long next to its
//! cheap ops would leave each of them one sample, and one scheduling stall
//! would then move the workload's median across a gap in the op mix. So
//! after every pass the cheap ops run [`EXTRA_ROUNDS`] more times, round by
//! round: those that took, in the first pass, under twice its median op and
//! under 1% of its length. Repeats add latency samples only: `ops_per_s`
//! counts each op once per pass, over the passes' own time.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use cutelock_attacks::{AttackReport, AttackSpec, RunRecord};
use cutelock_core::clock::ClockHandle;
use cutelock_core::{KeyValue, LockedCircuit};

use crate::layers;
use crate::measure::{peak_rss_mb, Samples, Stopwatch};
use crate::trace::Tracer;

/// How many times a run builds its inputs; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Extra executions per pass of each cheap op (see the module docs).
pub const EXTRA_ROUNDS: usize = 2;

/// What one run was asked to do.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Minimum op-phase length.
    pub seconds: Duration,
    /// The clock every measurement reads.
    pub clock: ClockHandle,
    /// Directory for the run's store and span files.
    pub out_dir: PathBuf,
    /// Workload name (file names and messages).
    pub workload: &'static str,
}

/// The result of one op, as the known-answer check and the counters see it.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// The verdict text (or error text).
    pub verdict: String,
    /// The recovered key, when the attack claims one.
    pub key: Option<KeyValue>,
    /// Exact work counters of the op.
    pub counts: BTreeMap<&'static str, u64>,
    /// An error or timeout: the op produced no verdict.
    pub error: Option<String>,
    /// The op's run record, appended to the store at the end of its pass.
    pub record: Option<RunRecord>,
    /// A circuit the op locked, for its traced replay; dropped after it.
    pub locked: Option<LockedCircuit>,
}

impl OpResult {
    /// An op result from an attack report, with its counters.
    pub fn from_report(report: &AttackReport) -> Self {
        let mut r = OpResult {
            verdict: report.outcome.to_string(),
            ..Default::default()
        };
        if let cutelock_attacks::AttackOutcome::KeyFound(k) = &report.outcome {
            r.key = Some(k.clone());
        }
        if report.outcome == cutelock_attacks::AttackOutcome::Timeout {
            r.error = Some("timed out".into());
        }
        let c = &mut r.counts;
        c.insert("attacks.iterations", report.iterations as u64);
        c.insert("attacks.bound", report.bound as u64);
        c.insert("attacks.conflicts", report.stats.conflicts);
        c.insert("attacks.propagations", report.stats.propagations);
        c.insert("attacks.gc_runs", report.stats.gc_runs);
        c.insert("attacks.runs", 1);
        c.insert(
            "attacks.decisive",
            u64::from(AttackSpec::is_decisive(&report.outcome)),
        );
        r
    }
}

/// A known-answer verdict on one op.
pub enum Check {
    /// Matches the known answer.
    Ok,
    /// Does not match (a wrong verdict, a timeout or an error): counted
    /// against `ok_ratio` and listed by name.
    Miss,
    /// An unsound answer (e.g. a claimed key that fails the benchmark's own
    /// check): the run is incorrect.
    Wrong(String),
}

/// A workload whose ops run one after another on the calling thread.
pub trait Workload {
    /// Inputs built by setup.
    type Prepared;
    /// Builds the inputs (generation, `.bench` round trip, locking).
    fn setup(&self, ctx: &Ctx, t: &mut Tracer) -> Result<Self::Prepared, String>;
    /// Op names, in pass order.
    fn op_names(&self, p: &Self::Prepared) -> Vec<String>;
    /// Runs op `i`. Spans opened here split the op's own time.
    fn run_op(&self, ctx: &Ctx, p: &Self::Prepared, i: usize, t: &mut Tracer) -> OpResult;
    /// The untimed known-answer check.
    fn check(&self, ctx: &Ctx, p: &Self::Prepared, i: usize, r: &OpResult) -> Check;
    /// Traced runs only: replays op `i`'s layer calls on its inputs.
    fn replay(&self, ctx: &Ctx, p: &Self::Prepared, i: usize, r: &OpResult, t: &mut Tracer);
}

/// Everything one phase (untraced or traced) measured.
#[derive(Default)]
pub struct Phase {
    /// `setup_s` samples.
    pub setup: Samples,
    /// Op latencies the percentiles are taken over: one per op (its median
    /// execution), or one per request in `daemon-mix`.
    pub ops: Samples,
    /// Op-phase wall time: the passes and their store appends.
    pub op_wall: Duration,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops matching the known answer.
    pub ok: usize,
    /// Ops that ended in an error or timeout.
    pub failed: usize,
    /// Missed ops by name, with how often they missed.
    pub misses: BTreeMap<String, usize>,
    /// Correctness violations (the run is incorrect if any).
    pub violations: Vec<String>,
    /// Exact counters of one pass (setup counters included).
    pub counts: BTreeMap<&'static str, u64>,
    /// Whole passes run.
    pub passes: usize,
    /// Daemon result-cache hits over the whole op phase.
    pub cache_hits: u64,
    /// Peak resident memory when the op phase ended, before the checks.
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Records the check verdict of one op.
    pub fn tally(&mut self, name: &str, r: &OpResult, check: Check) {
        self.attempted += 1;
        if r.error.is_some() {
            self.failed += 1;
        }
        match check {
            Check::Ok => self.ok += 1,
            Check::Miss => {
                *self
                    .misses
                    .entry(format!("{name} -> {}", r.verdict))
                    .or_default() += 1
            }
            Check::Wrong(why) => {
                *self
                    .misses
                    .entry(format!("{name} -> {}", r.verdict))
                    .or_default() += 1;
                self.violations.push(format!("{name}: {why}"));
            }
        }
    }

    /// Compares one pass's counters with the first pass's.
    pub fn guard_counts(&mut self, counts: BTreeMap<&'static str, u64>) {
        if self.passes == 0 {
            self.counts = counts;
        } else if counts != self.counts {
            self.violations.push(format!(
                "pass {} counters differ from pass 1: {counts:?} vs {:?}",
                self.passes + 1,
                self.counts
            ));
        }
    }
}

/// Runs op `i` once inside an op span and returns it with its latency.
fn timed_op<W: Workload>(
    w: &W,
    ctx: &Ctx,
    p: &W::Prepared,
    i: usize,
    tracer: &mut Tracer,
) -> (OpResult, Duration) {
    tracer.begin_op();
    let start = ctx.clock.now();
    let r = w.run_op(ctx, p, i, tracer);
    let end = ctx.clock.now();
    tracer.record("op", start, end);
    (r, end.duration_since(start))
}

/// Runs `w` for one phase. With `tracer.enabled()`, every op is followed
/// by its layer replays and the store is queried after every pass.
pub fn run_phase<W: Workload>(w: &W, ctx: &Ctx, tracer: &mut Tracer) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut prepared = None;
    let mut setup_counts = BTreeMap::new();
    let reps = if tracer.enabled() { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        tracer.take_counts();
        let sw = Stopwatch::start(&ctx.clock);
        let p = w.setup(ctx, tracer)?;
        phase.setup.push(sw.elapsed());
        setup_counts = tracer.take_counts();
        prepared = Some(p);
    }
    let p = prepared.expect("at least one setup repetition");
    let names = w.op_names(&p);
    let store = ctx.out_dir.join(format!(
        "{}-{}-{}.store",
        ctx.workload,
        std::process::id(),
        if tracer.enabled() { "traced" } else { "plain" }
    ));
    let mut results: Vec<(usize, OpResult)> = Vec::new();
    let mut latency = vec![Samples::default(); names.len()];
    let mut cheap: Option<Vec<usize>> = None;
    let phase_clock = Stopwatch::start(&ctx.clock);
    while phase.passes == 0 || phase_clock.elapsed() < ctx.seconds {
        let pass_start = Stopwatch::start(&ctx.clock);
        let mut pass_counts = setup_counts.clone();
        let mut records = Vec::new();
        let mut first = Vec::with_capacity(names.len());
        for (i, samples) in latency.iter_mut().enumerate() {
            let (mut r, took) = timed_op(w, ctx, &p, i, tracer);
            samples.push(took);
            first.push(r.counts.clone());
            for (k, v) in &r.counts {
                *pass_counts.entry(*k).or_default() += v;
            }
            records.extend(r.record.take());
            if tracer.enabled() {
                w.replay(ctx, &p, i, &r, tracer);
            }
            // Keep no circuit past its op, so memory does not grow with
            // the number of passes.
            r.locked = None;
            results.push((i, r));
        }
        let pass_time = pass_start.elapsed();
        let cheap = cheap.get_or_insert_with(|| {
            let median = latency
                .iter()
                .map(Samples::median)
                .collect::<Samples>()
                .median();
            let limit = (2 * median).min(pass_time / 100);
            (0..names.len())
                .filter(|&i| latency[i].median() < limit)
                .collect()
        });
        // Repeats feed latencies only: no spans, replays, records or counts.
        let mut quiet = Tracer::new(ctx.clock.clone(), false);
        for _ in 0..EXTRA_ROUNDS {
            for &i in cheap.iter() {
                let (r, took) = timed_op(w, ctx, &p, i, &mut quiet);
                latency[i].push(took);
                if r.counts != first[i] {
                    phase
                        .violations
                        .push(format!("{}: a repeat changed its counters", names[i]));
                }
            }
        }
        let append = Stopwatch::start(&ctx.clock);
        let _ = std::fs::remove_file(&store);
        layers::store_append(tracer, &store, &records)?;
        // Op-phase time is the pass and its store append, not the repeats.
        phase.op_wall += pass_time + append.elapsed();
        if tracer.enabled() && !records.is_empty() {
            layers::store_query(tracer, &store)?;
        }
        for (k, v) in tracer.take_counts() {
            *pass_counts.entry(k).or_default() += v;
        }
        phase.guard_counts(pass_counts);
        phase.passes += 1;
    }
    phase.ops = latency.iter().map(Samples::median).collect();
    let _ = std::fs::remove_file(&store);
    phase.peak_rss_mb = peak_rss_mb();
    for (i, r) in &results {
        let check = w.check(ctx, &p, *i, r);
        phase.tally(&names[*i], r, check);
    }
    Ok(phase)
}
