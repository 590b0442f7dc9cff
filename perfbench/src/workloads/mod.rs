//! The four workloads and the helpers they share.

pub mod daemon;
pub mod keyfound;
pub mod lockrm;
pub mod multikey;

use cutelock_attacks::{run_attack, AttackSpec, AttackStrategy, RunRecord};
use cutelock_bench::Options;
use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_netlist::{bench, Netlist};

use crate::engine::{Ctx, OpResult};
use crate::layers;
use crate::measure::{mix, salt};
use crate::trace::Tracer;

/// Cycles of the benchmark's own 64-lane key check.
pub const CHECK_CYCLES: usize = 64;

/// The table bins' `--quick` options: bound 4, 48 iterations, 200k
/// conflicts, a 10 s timeout, `--portfolio 1`, sharing off, simplify on.
pub fn quick_options() -> Options {
    Options {
        quick: true,
        timeout_secs: 10,
        ..Options::default()
    }
}

/// The attack spec every oracle-guided op runs under.
pub fn quick_spec(strategy: AttackStrategy) -> AttackSpec {
    quick_options().spec(strategy)
}

/// The per-strategy time metric of the attack layer.
pub fn attack_metric(strategy: AttackStrategy) -> &'static str {
    match strategy {
        AttackStrategy::Bbo => "attacks.bbo_ms",
        AttackStrategy::Int => "attacks.int_ms",
        AttackStrategy::Kc2 => "attacks.kc2_ms",
        AttackStrategy::Rane => "attacks.rane_ms",
        AttackStrategy::ScanSat => "attacks.sat_ms",
        AttackStrategy::AppSat => "attacks.appsat_ms",
        AttackStrategy::DoubleDip => "attacks.double-dip_ms",
        _ => "attacks.other_ms",
    }
}

/// The lock-construction seeds of the `table3`, `table4` and `table5`
/// bins. The attack workloads attack the bins' own locks: with seeded key
/// schedules the attack cost itself moved with the seed, by more than any
/// bound could absorb. `lock-removal`, where locking is the op, seeds its
/// schedules with [`key_seed`].
pub const TABLE3_LOCK_SEED: u64 = 0x7ab1e3;
/// See [`TABLE3_LOCK_SEED`].
pub const TABLE4_LOCK_SEED: u64 = 0x7ab1e4;
/// See [`TABLE3_LOCK_SEED`].
pub const TABLE5_LOCK_SEED: u64 = 0x7ab1e5;

/// A seed for `name`'s draws (key schedule, stimuli) under the workload
/// seed.
pub fn key_seed(ctx: &Ctx, name: &str) -> u64 {
    mix(ctx.seed, salt(name))
}

/// Writes a netlist as `.bench` and parses it back, as a user's files
/// would travel; the parse is the timed `netlist.parse_ms` call, and the
/// parsed copy must print back to the same text.
///
/// Ops attack the netlist as built, not the parsed copy: the copy prints
/// identically but numbers its nets differently, and that alone changes
/// some verdicts (b08's single-key BBO, INT and KC2 recover the key from
/// the parsed copy and miss it on the built one, as `table4` does).
pub fn roundtrip_netlist(t: &mut Tracer, nl: &Netlist) -> Result<(), String> {
    let text = bench::write(nl);
    let parsed = t
        .span("netlist.parse_ms", || {
            bench::parse(nl.name().to_string(), &text)
        })
        .map_err(|e| format!("{}: parse: {e}", nl.name()))?;
    if bench::write(&parsed) != text {
        return Err(format!(
            "{}: .bench round trip changed the netlist",
            nl.name()
        ));
    }
    Ok(())
}

/// [`roundtrip_netlist`] on both halves of a locked circuit.
pub fn roundtrip_locked(t: &mut Tracer, locked: &LockedCircuit) -> Result<(), String> {
    roundtrip_netlist(t, &locked.netlist)?;
    roundtrip_netlist(t, &locked.original)
}

/// Counts the gates a lock added.
pub fn count_gates_added(t: &mut Tracer, locked: &LockedCircuit) {
    let added = locked
        .netlist
        .gate_count()
        .saturating_sub(locked.original.gate_count());
    t.count("core.gates_added", added as u64);
}

/// One attack target: a locked circuit and the seed that locked it.
pub struct Target {
    /// Circuit name.
    pub name: &'static str,
    /// Lock seed.
    pub seed: u64,
    /// The locked circuit (after the `.bench` round trip).
    pub locked: LockedCircuit,
}

/// An attack op: target index and strategy.
pub struct AttackOp {
    /// Index into the target list.
    pub target: usize,
    /// The attack.
    pub strategy: AttackStrategy,
}

/// Runs one oracle-guided attack op.
pub fn run_attack_op(targets: &[Target], op: &AttackOp, t: &mut Tracer) -> OpResult {
    let target = &targets[op.target];
    let spec = quick_spec(op.strategy);
    let report = t.span(attack_metric(op.strategy), || {
        run_attack(&target.locked, &spec)
    });
    let mut r = OpResult::from_report(&report);
    r.record = Some(RunRecord::from_run(
        target.name,
        target.seed,
        &target.locked,
        &spec,
        &report,
    ));
    r
}

/// The benchmark's own key check: 64-lane simulation under a
/// benchmark-owned stimulus seed, not the attack's internal one.
pub fn key_checks_out(ctx: &Ctx, locked: &LockedCircuit, key: &KeyValue) -> bool {
    locked
        .wide_key_matches(key, CHECK_CYCLES, mix(ctx.seed, salt("known-answer")))
        .unwrap_or(false)
}

/// The traced replay of an attack op: every layer below the attack, plus
/// the key check on a returned key.
pub fn replay_attack_op(
    ctx: &Ctx,
    targets: &[Target],
    op: &AttackOp,
    r: &OpResult,
    t: &mut Tracer,
) {
    let target = &targets[op.target];
    let seed = mix(key_seed(ctx, target.name), salt(op.strategy.name()));
    layers::replay_attack(t, &target.locked, &quick_spec(op.strategy), seed);
    if let Some(key) = &r.key {
        t.span("sim.wide_verify_ms", || {
            key_checks_out(ctx, &target.locked, key)
        });
    }
}
