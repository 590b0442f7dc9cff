//! `daemon-mix`: the `SUBMIT` -> `RESULT <id> --wait` round trip of an
//! in-process `cutelock serve` daemon (`ServeConfig::default()`, two
//! workers) on 127.0.0.1, driven by two closed-loop clients, each on one
//! persistent connection.
//!
//! Each client walks cycles of sixteen requests. The eight even positions
//! are the cycle's fresh jobs, in a seeded order: two express-lane `verify`
//! jobs and six small batch `attack` jobs, rotating through s27 and b01,
//! str and xor, and int, kc2 and sat. Each odd position repeats a seeded
//! earlier request of the same cycle, so half the requests must be
//! answered from the result cache. The clients lock with different key
//! widths, so they never share a cache entry and the hit count does not
//! depend on how their requests interleave.
//!
//! Known answer: every result reads `state=done`, its result text equals
//! the same request's work run in-process, and it is `cached=true`
//! exactly when the client had submitted that cache key before.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cutelock_circuits::{iscas89, itc99};
use cutelock_core::clock::{ClockHandle, Instant};
use cutelock_jobs::{parse_submit, Client, Lane, Limits, ServeConfig, Server};

use super::roundtrip_netlist;
use crate::engine::{Ctx, Phase, SETUP_REPS};
use crate::measure::{mix, peak_rss_mb, Samples, Stopwatch};
use crate::trace::Tracer;

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Requests per client cycle; odd positions repeat an earlier request.
const CYCLE: usize = 16;
const CIRCUITS: [&str; 2] = ["s27", "b01"];
const SCHEMES: [&str; 2] = ["str", "xor"];
const MODES: [&str; 3] = ["int", "kc2", "sat"];

/// Fresh requests per cycle (the even positions).
const FRESH: usize = CYCLE / 2;
/// Salt of the daemon jobs' lock seeds. The jobs a run submits do not
/// depend on the workload seed; the seed orders them and picks what the
/// repeats repeat, so every seed runs the same work.
const JOB_SALT: u64 = 0x6a6f_6273; // "jobs"

/// The `SUBMIT` operand of fresh slot `slot` of client `client`'s cycle
/// `cycle`: two `verify` jobs and six `attack` jobs per cycle, rotating
/// through the circuits, schemes and modes from cycle to cycle.
fn fresh(client: usize, cycle: usize, slot: usize) -> String {
    let circuit = CIRCUITS[(slot + cycle) % CIRCUITS.len()];
    let scheme = SCHEMES[(slot / 2 + cycle) % SCHEMES.len()];
    let key_bits = 3 + client;
    let lock_seed = mix(
        JOB_SALT,
        ((client as u64) << 48) ^ ((cycle as u64) << 8) ^ slot as u64,
    ) >> 40;
    if slot < 2 {
        format!(
            "verify --circuit {circuit} --scheme {scheme} --key-bits {key_bits} --seed {lock_seed}"
        )
    } else {
        let mode = MODES[(slot + cycle) % MODES.len()];
        format!(
            "attack --mode {mode} --circuit {circuit} --scheme {scheme} --key-bits {key_bits} \
             --seed {lock_seed} --portfolio 1 --share off --simplify on"
        )
    }
}

/// The `SUBMIT` operand of client `client`'s request number `n`: even
/// positions of a cycle are its fresh requests in a seeded order, odd
/// positions repeat a seeded earlier request of the same cycle.
pub fn request(seed: u64, client: usize, n: usize) -> String {
    let (cycle, pos) = (n / CYCLE, n % CYCLE);
    let r = |salt: u64| {
        mix(
            seed,
            ((client as u64) << 56) ^ ((cycle as u64) << 16) ^ salt,
        )
    };
    if pos % 2 == 1 {
        let earlier = (r(pos as u64) % (pos as u64 / 2 + 1)) as usize * 2;
        return request(seed, client, cycle * CYCLE + earlier);
    }
    // Seeded Fisher-Yates order of the cycle's fresh slots.
    let mut order: Vec<usize> = (0..FRESH).collect();
    for i in (1..FRESH).rev() {
        order.swap(i, (r(0x100 + i as u64) % (i as u64 + 1)) as usize);
    }
    fresh(client, cycle, order[pos / 2])
}

/// One client op as it was observed.
struct OpLog {
    n: usize,
    line: String,
    start: Instant,
    submitted: Instant,
    end: Instant,
    response: Result<String, String>,
}

/// A running daemon and its connected clients.
struct Daemon {
    server: thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Daemon {
    fn start() -> Result<Self, String> {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
        let server = thread::spawn(move || server.run());
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>();
        let mut daemon = Daemon {
            server,
            clients: Vec::new(),
        };
        match clients {
            Ok(c) => {
                daemon.clients = c;
                Ok(daemon)
            }
            Err(e) => {
                daemon.stop();
                Err(e)
            }
        }
    }

    /// Shuts the daemon down and waits for its threads.
    fn stop(mut self) {
        let addr_client = self.clients.first_mut();
        let sent = addr_client.map(|c| c.request("SHUTDOWN").is_ok());
        if sent != Some(true) {
            // No live connection: nothing can reach the daemon, so do not
            // wait for a thread that will never return.
            return;
        }
        self.clients.clear();
        let _ = self.server.join();
    }
}

/// The text a status line carries between its fixed fields and `label=`.
fn result_text(line: &str) -> Option<&str> {
    let body = line.split(" label=").next()?;
    let mut rest = body.split_once(" cached=")?.1;
    rest = rest.split_once(' ').map_or("", |(_, r)| r);
    if let Some(r) = rest.strip_prefix("worker=") {
        rest = r.split_once(' ').map_or("", |(_, r)| r);
    }
    Some(rest)
}

fn run_client(
    clock: &ClockHandle,
    client: &mut Client,
    seed: u64,
    index: usize,
    seconds: Duration,
) -> Vec<OpLog> {
    let sw = Stopwatch::start(clock);
    let mut log = Vec::new();
    while sw.elapsed() < seconds {
        let n = log.len();
        let line = request(seed, index, n);
        let start = clock.now();
        let submit = client.request(&format!("SUBMIT {line}"));
        let submitted = clock.now();
        let response = match submit {
            Ok(ok) => match ok.strip_prefix("OK id=") {
                Some(id) => client
                    .request(&format!("RESULT {id} --wait"))
                    .map_err(|e| e.to_string()),
                None => Err(ok),
            },
            Err(e) => Err(e.to_string()),
        };
        let end = clock.now();
        let failed = response.is_err();
        log.push(OpLog {
            n,
            line,
            start,
            submitted,
            end,
            response,
        });
        if failed {
            break;
        }
    }
    log
}

/// Runs one phase of `daemon-mix`.
pub fn run_phase(ctx: &Ctx, t: &mut Tracer) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let reps = if t.enabled() { 1 } else { SETUP_REPS };
    let mut daemon = None;
    for _ in 0..reps {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        t.take_counts();
        let sw = Stopwatch::start(&ctx.clock);
        for name in CIRCUITS {
            let circuit = t
                .span("circuits.gen_ms", || iscas89(name).or_else(|_| itc99(name)))
                .map_err(|e| format!("{name}: {e}"))?;
            roundtrip_netlist(t, &circuit.netlist)?;
        }
        daemon = Some(Daemon::start()?);
        phase.setup.push(sw.elapsed());
    }
    let mut daemon = daemon.expect("at least one setup repetition");

    let op_phase = Stopwatch::start(&ctx.clock);
    let logs: Vec<Vec<OpLog>> = thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let clock = ctx.clock.clone();
                let (seed, seconds) = (ctx.seed, ctx.seconds);
                s.spawn(move || run_client(&clock, client, seed, index, seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    phase.op_wall = op_phase.elapsed();
    Daemon::stop(daemon);
    phase.peak_rss_mb = peak_rss_mb();

    check(ctx, t, &mut phase, &logs);
    Ok(phase)
}

/// A request's work run in-process: the known answer for its result.
#[derive(Clone)]
struct Reference {
    answer: Result<String, String>,
    took: Duration,
    cache_key: Option<u64>,
    lane: Lane,
}

impl Reference {
    fn run(clock: &ClockHandle, line: &str) -> Self {
        let sw = Stopwatch::start(clock);
        match parse_submit(line, &Limits::default()) {
            Ok(req) => {
                let (cache_key, lane) = (req.cache_key, req.lane);
                let answer = (req.work)(&Arc::new(AtomicBool::new(false)));
                Reference {
                    answer,
                    took: sw.elapsed(),
                    cache_key,
                    lane,
                }
            }
            Err(e) => Reference {
                answer: Err(e),
                took: sw.elapsed(),
                cache_key: None,
                lane: Lane::Batch,
            },
        }
    }
}

/// Known-answer checks, the cache-hit guard, and the per-layer figures.
fn check(ctx: &Ctx, t: &mut Tracer, phase: &mut Phase, logs: &[Vec<OpLog>]) {
    let mut reference: BTreeMap<&str, Reference> = BTreeMap::new();
    let mut lane_samples: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let (mut hits, mut first_cycle_hits) = (0u64, 0u64);
    for (client, log) in logs.iter().enumerate() {
        let mut seen: HashSet<u64> = HashSet::new();
        for op in log {
            t.begin_op();
            t.record("op", op.start, op.end);
            t.record("jobs.submit_ms", op.start, op.submitted);
            t.record("jobs.result_ms", op.submitted, op.end);
            let latency = op.end.duration_since(op.start);
            phase.ops.push(latency);
            let name = format!("client{client}#{} {}", op.n, op.line);
            let Reference {
                answer: want,
                took,
                cache_key: key,
                lane,
            } = reference
                .entry(&op.line)
                .or_insert_with(|| Reference::run(&ctx.clock, &op.line))
                .clone();
            let lane_metric = match lane {
                Lane::Express => "jobs.express_p50_ms",
                Lane::Batch => "jobs.batch_p50_ms",
            };
            lane_samples.entry(lane_metric).or_default().push(latency);
            phase.attempted += 1;
            let response = match &op.response {
                Ok(r) => r,
                Err(e) => {
                    phase.failed += 1;
                    *phase.misses.entry(format!("{name} -> {e}")).or_default() += 1;
                    continue;
                }
            };
            let done = response.contains(" state=done ");
            let cached = response.contains(" cached=true");
            let expect_hit = key.is_some_and(|k| !seen.insert(k));
            if cached {
                hits += 1;
                if op.n < CYCLE {
                    first_cycle_hits += 1;
                }
            } else {
                t.sample("jobs.overhead_ms", latency.saturating_sub(took));
            }
            if cached != expect_hit {
                phase.violations.push(format!(
                    "{name}: cached={cached}, but the client had {}submitted this cache key",
                    if expect_hit { "" } else { "not " }
                ));
            }
            match (&want, result_text(response)) {
                (Ok(text), Some(got)) if done && got == text => phase.ok += 1,
                _ => {
                    if !done {
                        phase.failed += 1;
                    }
                    *phase
                        .misses
                        .entry(format!("{name} -> {response}"))
                        .or_default() += 1;
                    if done {
                        phase.violations.push(format!(
                            "{name}: daemon answered `{response}`, in-process work gave {want:?}"
                        ));
                    }
                }
            }
        }
        phase.passes = phase.passes.max(log.len() / CYCLE);
    }
    for (metric, samples) in lane_samples {
        if t.enabled() {
            // One sample per lane: the lane's median op latency.
            t.sample(
                metric,
                Duration::from_nanos((samples.median_ms() * 1e6) as u64),
            );
        }
    }
    t.count("jobs.cache_hits", first_cycle_hits);
    t.count(
        "jobs.requests",
        logs.iter().map(|l| l.len().min(CYCLE) as u64).sum(),
    );
    phase.counts = t.take_counts();
    phase.cache_hits = hits;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_requests_repeat_an_earlier_request_of_the_same_cycle() {
        for n in (1..3 * CYCLE).filter(|n| n % 2 == 1) {
            let line = request(7, 0, n);
            let cycle = n / CYCLE;
            assert!(
                (cycle * CYCLE..n).any(|m| request(7, 0, m) == line),
                "request {n} repeats nothing"
            );
        }
        assert_eq!(request(7, 1, 5), request(7, 1, 5));
        assert!(request(7, 0, 0).contains("--key-bits 3"));
        assert!(request(7, 1, 0).contains("--key-bits 4"));
    }

    #[test]
    fn every_seed_submits_the_same_fresh_jobs_in_its_own_order() {
        let fresh_of = |seed: u64| {
            let mut v: Vec<String> = (0..2 * CYCLE)
                .step_by(2)
                .map(|n| request(seed, 0, n))
                .collect();
            let order = v.clone();
            v.sort();
            (v, order)
        };
        let (a, order_a) = fresh_of(1);
        let (b, order_b) = fresh_of(2);
        assert_eq!(a, b);
        assert_ne!(order_a, order_b);
        let verifies = a.iter().filter(|l| l.starts_with("verify")).count();
        assert_eq!(verifies, 4, "two verify jobs per cycle");
    }

    #[test]
    fn result_text_skips_the_fixed_fields() {
        let line = "OK id=3 state=done lane=batch cached=false worker=1 verdict=CNS iters=2 \
                    bound=1 decisive=true label=attack int s27 str";
        assert_eq!(
            result_text(line),
            Some("verdict=CNS iters=2 bound=1 decisive=true")
        );
        let cached = "OK id=4 state=done lane=express cached=true equivalent frames=4 label=verify";
        assert_eq!(result_text(cached), Some("equivalent frames=4"));
    }
}
