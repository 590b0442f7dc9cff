//! Per-layer replays for the traced run.
//!
//! Each function calls one layer's public entry point on an op's own
//! inputs and records its time and exact work counts in the [`Tracer`].
//! These are replays next to the op, not a split of time inside
//! `run_attack`: the attack itself is timed as the op span.

use std::path::Path;

use cutelock_attacks::{write_records, AttackSpec, AttackStrategy, RunRecord};
use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_netlist::simplify::{simplify, SimplifyConfig};
use cutelock_netlist::unroll::{scan_view, InitState, KeySharing, ScanView};
use cutelock_netlist::Netlist;
use cutelock_sat::{Binding, CircuitEncoder, MiterBuilder, PortVals, SatResult};
use cutelock_sim::{NetlistCombOracle, NetlistOracle, Pool};
use cutelock_store::{format::read_table, query::group_by};

use crate::measure::BitStream;
use crate::trace::Tracer;

/// Cycles of every `corruption_rate` replay (the lock self-check's length).
const CORRUPTION_CYCLES: usize = 512;
/// Stimulus vectors (or sequences) in every oracle batch replay.
const ORACLE_BATCH: usize = 64;

/// Whether a strategy attacks the full-scan combinational view (the rest
/// unroll the sequential circuit from reset).
fn is_scan(strategy: AttackStrategy) -> bool {
    matches!(
        strategy,
        AttackStrategy::ScanSat | AttackStrategy::AppSat | AttackStrategy::DoubleDip
    )
}

/// The per-op replay of an oracle-guided attack: simplify, encode, the
/// first DIP miter's solve, an oracle batch and a corruption check.
pub fn replay_attack(t: &mut Tracer, locked: &LockedCircuit, spec: &AttackSpec, seed: u64) {
    let cfg = SimplifyConfig::preserving_state();
    let run = |nl: &Netlist| {
        simplify(nl, &cfg).map_or((nl.clone(), 0), |(out, st)| (out, st.gates_removed()))
    };
    let ((netlist, removed_l), (original, removed_o)) = t.span("netlist.simplify_ms", || {
        (run(&locked.netlist), run(&locked.original))
    });
    t.count("netlist.gates_removed", (removed_l + removed_o) as u64);
    let prepared = LockedCircuit {
        netlist,
        original,
        schedule: locked.schedule.clone(),
        scheme: locked.scheme,
        counter_ffs: locked.counter_ffs.clone(),
        locked_ffs: locked.locked_ffs.clone(),
    };
    let Ok(sv) = scan_view(&prepared.netlist) else {
        return;
    };
    encode(t, &prepared, &sv, spec);
    first_dip_solve(t, &prepared, sv, spec);
    oracle_batch(t, &prepared, spec, seed);
    corruption(t, locked, seed);
}

fn encode(t: &mut Tracer, locked: &LockedCircuit, sv: &ScanView, spec: &AttackSpec) {
    let mut enc = CircuitEncoder::new();
    let ok = if is_scan(spec.strategy) {
        t.span("sat.encode_ms", || {
            enc.encode(&sv.netlist, &Binding::new()).is_ok()
        })
    } else {
        let init = if spec.strategy == AttackStrategy::Rane {
            InitState::Free
        } else {
            InitState::FromInit
        };
        let frames = spec.budget.max_bound.max(1);
        t.span("sat.encode_ms", || {
            enc.encode_unrolled(
                &locked.netlist,
                frames,
                init,
                KeySharing::Shared,
                &Binding::new(),
            )
            .is_ok()
        })
    };
    if ok {
        t.count("sat.vars", enc.solver.num_vars() as u64);
        t.count("sat.clauses", enc.solver.stats().clauses as u64);
    }
}

/// Flip-flop positions in the locked netlist that mirror an original
/// flip-flop (by q-net name) — what a scan attacker observes.
fn shared_ffs(locked: &LockedCircuit) -> Vec<usize> {
    let locked_q: Vec<&str> = locked
        .netlist
        .dffs()
        .iter()
        .map(|ff| locked.netlist.net_name(ff.q()))
        .collect();
    locked
        .original
        .dffs()
        .iter()
        .filter_map(|ff| {
            let name = locked.original.net_name(ff.q());
            locked_q.iter().position(|&n| n == name)
        })
        .collect()
}

/// Builds the op's first two-key miter (scan view with a shared free
/// state for scan attacks; one frame from reset for unrolling attacks) and
/// solves it under the op's conflict budget.
fn first_dip_solve(t: &mut Tracer, locked: &LockedCircuit, sv: ScanView, spec: &AttackSpec) {
    let scan = is_scan(spec.strategy);
    let obs = if scan { shared_ffs(locked) } else { Vec::new() };
    let mut m = MiterBuilder::new(sv, &obs);
    m.enc
        .solver
        .set_conflict_budget(spec.budget.conflict_budget);
    let k1 = m.fresh_keys();
    let k2 = m.fresh_keys();
    let xs = m.fresh_data();
    let state = if scan || spec.strategy == AttackStrategy::Rane {
        m.fresh_state()
    } else {
        let bits: Vec<bool> = locked
            .netlist
            .dffs()
            .iter()
            .map(|ff| ff.init().unwrap_or(false))
            .collect();
        m.enc.lits_const(&bits)
    };
    let frames = m
        .frame(&k1, PortVals::Shared(&state), PortVals::Shared(&xs))
        .and_then(|f1| {
            m.frame(&k2, PortVals::Shared(&state), PortVals::Shared(&xs))
                .map(|f2| (f1, f2))
        });
    let Ok((f1, f2)) = frames else {
        return;
    };
    let diff = m.obs_differ(&f1, &f2);
    m.enc.solver.add_clause(&[diff]);
    let before = m.enc.solver.stats();
    let result = t.span("sat.solve_ms", || m.enc.solver.solve());
    let after = m.enc.solver.stats();
    t.count("sat.conflicts", after.conflicts - before.conflicts);
    t.count("sat.propagations", after.propagations - before.propagations);
    t.count("sat.solves_sat", u64::from(result == SatResult::Sat));
}

/// One seeded oracle batch on the op's oracle: 64 scan queries for scan
/// attacks, 64 reset-started sequences of the unrolling bound otherwise.
fn oracle_batch(t: &mut Tracer, locked: &LockedCircuit, spec: &AttackSpec, seed: u64) {
    let mut bits = BitStream::new(seed ^ 0x4f52_4143); // "ORAC"
    let pool = Pool::new(1);
    if is_scan(spec.strategy) {
        let Ok(osv) = scan_view(&locked.original) else {
            return;
        };
        let Ok(mut oracle) = NetlistCombOracle::new(osv.netlist) else {
            return;
        };
        let width = oracle.netlist().input_count();
        let batch: Vec<Vec<bool>> = (0..ORACLE_BATCH).map(|_| bits.bits(width)).collect();
        let out = t.span("sim.oracle_batch_ms", || oracle.query_batch(&batch, &pool));
        t.count("sim.oracle_queries", out.len() as u64);
    } else {
        let Ok(mut oracle) = NetlistOracle::new(locked.original.clone()) else {
            return;
        };
        let width = locked.original.input_count();
        let depth = spec.budget.max_bound.max(1);
        let seqs: Vec<Vec<Vec<bool>>> = (0..ORACLE_BATCH)
            .map(|_| (0..depth).map(|_| bits.bits(width)).collect())
            .collect();
        let out = t.span("sim.oracle_batch_ms", || oracle.run_many(&seqs, &pool));
        t.count(
            "sim.oracle_queries",
            out.iter().map(Vec::len).sum::<usize>() as u64,
        );
    }
}

/// A seeded wrong constant key of the lock's width.
fn wrong_key(locked: &LockedCircuit, seed: u64) -> KeyValue {
    let width = locked.netlist.key_inputs().len();
    KeyValue::from_bits(BitStream::new(seed ^ 0x5752_4f4e).bits(width)) // "WRON"
}

/// One `corruption_rate(key, 512, _)` call under a seeded key.
pub fn corruption(t: &mut Tracer, locked: &LockedCircuit, seed: u64) {
    let key = wrong_key(locked, seed);
    let _ = t.span("sim.corruption_ms", || {
        locked.corruption_rate(&key, CORRUPTION_CYCLES, seed)
    });
}

/// Appends a pass's run records to the store at `path`: the op phase's
/// only store call. Traced, it also records per-row costs.
pub fn store_append(t: &mut Tracer, path: &Path, records: &[RunRecord]) -> Result<(), String> {
    if records.is_empty() {
        return Ok(());
    }
    let before = std::fs::metadata(path).map_or(0, |m| m.len());
    let clock = t.clock().clone();
    let start = clock.now();
    write_records(path, records).map_err(|e| format!("store append: {e}"))?;
    let took = clock.now().duration_since(start);
    let after = std::fs::metadata(path).map_or(0, |m| m.len());
    let rows = records.len() as u32;
    t.sample("store.append_us_per_row", took / rows);
    t.count("store.rows", u64::from(rows));
    t.count("store.bytes", after.saturating_sub(before));
    Ok(())
}

/// Reads the store back and groups conflicts by strategy, as
/// `cutelock report` does.
pub fn store_query(t: &mut Tracer, path: &Path) -> Result<usize, String> {
    t.span("store.query_ms", || {
        let table = read_table(path).map_err(|e| format!("store read: {e}"))?;
        group_by(&table, &["strategy"], "conflicts", &[], &[50.0, 90.0])
            .map(|g| g.len())
            .map_err(|e| format!("store query: {e}"))
    })
}
