//! `keyfound-scan`: the success path. XOR-16 locks on four ISCAS'89
//! circuits against SAT, AppSAT and Double-DIP, and the single-key
//! Cute-Lock-Str reductions of the Table IV quick set against BBO, INT,
//! KC2 and RANE. Known answer: `KeyFound`, with a key that passes the
//! benchmark's own 64-lane check.

use cutelock_attacks::AttackStrategy;
use cutelock_bench::params::{in_quick_set, TABLE4_ISCAS, TABLE4_ITC};
use cutelock_circuits::{iscas89, itc99};
use cutelock_core::baselines::XorLock;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::{KeySchedule, KeyValue};

use super::{
    count_gates_added, key_checks_out, replay_attack_op, roundtrip_locked, run_attack_op, AttackOp,
    Target, TABLE4_LOCK_SEED,
};
use crate::engine::{Check, Ctx, OpResult, Workload};
use crate::measure::{mix, salt};
use crate::trace::Tracer;

/// Circuits locked with a 16-bit XOR key.
const XOR_CIRCUITS: [&str; 4] = ["s641", "s713", "s832", "s953"];
/// XOR key width.
const XOR_KEY_BITS: usize = 16;
const XOR_ATTACKS: [AttackStrategy; 3] = [
    AttackStrategy::ScanSat,
    AttackStrategy::AppSat,
    AttackStrategy::DoubleDip,
];
const STR_ATTACKS: [AttackStrategy; 4] = [
    AttackStrategy::Bbo,
    AttackStrategy::Int,
    AttackStrategy::Kc2,
    AttackStrategy::Rane,
];

/// The workload.
pub struct KeyFound;

/// Locked targets and the op list.
pub struct Prepared {
    targets: Vec<Target>,
    ops: Vec<AttackOp>,
}

impl Workload for KeyFound {
    type Prepared = Prepared;

    fn setup(&self, _ctx: &Ctx, t: &mut Tracer) -> Result<Prepared, String> {
        let mut targets = Vec::new();
        let mut ops = Vec::new();
        for name in XOR_CIRCUITS {
            let circuit = t
                .span("circuits.gen_ms", || iscas89(name))
                .map_err(|e| format!("{name}: {e}"))?;
            let seed = mix(TABLE4_LOCK_SEED, salt(name));
            let locked = t
                .span("core.lock_ms", || {
                    XorLock::new(XOR_KEY_BITS, seed).lock(&circuit.netlist)
                })
                .map_err(|e| format!("{name}: lock: {e}"))?;
            count_gates_added(t, &locked);
            roundtrip_locked(t, &locked)?;
            for strategy in XOR_ATTACKS {
                ops.push(AttackOp {
                    target: targets.len(),
                    strategy,
                });
            }
            targets.push(Target { name, seed, locked });
        }
        let rows = TABLE4_ISCAS
            .iter()
            .map(|r| (true, r))
            .chain(TABLE4_ITC.iter().map(|r| (false, r)));
        for (iscas, &(name, k, ki)) in rows.filter(|(_, (n, _, _))| in_quick_set(n)) {
            let circuit = t
                .span("circuits.gen_ms", || {
                    if iscas {
                        iscas89(name)
                    } else {
                        itc99(name)
                    }
                })
                .map_err(|e| format!("{name}: {e}"))?;
            let seed = TABLE4_LOCK_SEED;
            // The single key `table4 --single-key` uses.
            let key = KeyValue::from_u64(0x5a5a_5a5a & ((1u64 << ki.min(63)) - 1), ki);
            let locked = t
                .span("core.lock_ms", || {
                    CuteLockStr::new(CuteLockStrConfig {
                        keys: k,
                        key_bits: ki,
                        locked_ffs: 1,
                        seed,
                        schedule: Some(KeySchedule::constant(key, k)),
                        ..Default::default()
                    })
                    .lock(&circuit.netlist)
                })
                .map_err(|e| format!("{name}: lock: {e}"))?;
            count_gates_added(t, &locked);
            roundtrip_locked(t, &locked)?;
            for strategy in STR_ATTACKS {
                ops.push(AttackOp {
                    target: targets.len(),
                    strategy,
                });
            }
            targets.push(Target { name, seed, locked });
        }
        Ok(Prepared { targets, ops })
    }

    fn op_names(&self, p: &Prepared) -> Vec<String> {
        p.ops
            .iter()
            .map(|op| {
                let target = &p.targets[op.target];
                format!(
                    "{}:{}/{}",
                    target.name,
                    target.locked.scheme,
                    op.strategy.name()
                )
            })
            .collect()
    }

    fn run_op(&self, _ctx: &Ctx, p: &Prepared, i: usize, t: &mut Tracer) -> OpResult {
        run_attack_op(&p.targets, &p.ops[i], t)
    }

    fn check(&self, ctx: &Ctx, p: &Prepared, i: usize, r: &OpResult) -> Check {
        match (&r.error, &r.key) {
            (None, Some(key)) => {
                if key_checks_out(ctx, &p.targets[p.ops[i].target].locked, key) {
                    Check::Ok
                } else {
                    Check::Wrong(format!("claimed key {key} fails the 64-lane check"))
                }
            }
            _ => Check::Miss,
        }
    }

    fn replay(&self, ctx: &Ctx, p: &Prepared, i: usize, r: &OpResult, t: &mut Tracer) {
        replay_attack_op(ctx, &p.targets, &p.ops[i], r, t);
    }
}
