//! `multikey-seq`: the paper's headline resilience claim (Tables III-IV,
//! `--quick` sets). Cute-Lock-Beh on five Synthezza machines against BBO,
//! INT and KC2; Cute-Lock-Str on eight ISCAS'89/ITC'99 circuits against
//! BBO, INT, KC2 and RANE. Known answer: no op returns `KeyFound`.

use cutelock_attacks::AttackStrategy;
use cutelock_bench::params::{in_quick_set, TABLE3, TABLE4_ISCAS, TABLE4_ITC};
use cutelock_circuits::{iscas89, itc99, synthezza};
use cutelock_core::beh::{CuteLockBeh, CuteLockBehConfig, WrongfulPolicy};
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

use super::{
    count_gates_added, key_checks_out, replay_attack_op, roundtrip_locked, run_attack_op, AttackOp,
    Target, TABLE3_LOCK_SEED, TABLE4_LOCK_SEED,
};
use crate::engine::{Check, Ctx, OpResult, Workload};
use crate::trace::Tracer;

const BEH_ATTACKS: [AttackStrategy; 3] = [
    AttackStrategy::Bbo,
    AttackStrategy::Int,
    AttackStrategy::Kc2,
];
const STR_ATTACKS: [AttackStrategy; 4] = [
    AttackStrategy::Bbo,
    AttackStrategy::Int,
    AttackStrategy::Kc2,
    AttackStrategy::Rane,
];

/// The workload.
pub struct MultiKey;

/// Locked targets and the op list.
pub struct Prepared {
    targets: Vec<Target>,
    ops: Vec<AttackOp>,
}

impl Workload for MultiKey {
    type Prepared = Prepared;

    fn setup(&self, _ctx: &Ctx, t: &mut Tracer) -> Result<Prepared, String> {
        let mut targets = Vec::new();
        let mut ops = Vec::new();
        for &(name, k, ki) in TABLE3.iter().filter(|(n, _, _)| in_quick_set(n)) {
            let stg = t
                .span("circuits.gen_ms", || synthezza(name))
                .ok_or_else(|| format!("{name}: no Synthezza profile"))?;
            let seed = TABLE3_LOCK_SEED;
            let locked = t
                .span("core.lock_ms", || {
                    CuteLockBeh::new(CuteLockBehConfig {
                        keys: k,
                        key_bits: ki,
                        wrongful: WrongfulPolicy::Auto,
                        seed,
                        schedule: None,
                    })
                    .lock(&stg)
                })
                .map_err(|e| format!("{name}: lock: {e}"))?;
            count_gates_added(t, &locked);
            roundtrip_locked(t, &locked)?;
            for strategy in BEH_ATTACKS {
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
            let locked = t
                .span("core.lock_ms", || {
                    CuteLockStr::new(CuteLockStrConfig {
                        keys: k,
                        key_bits: ki,
                        locked_ffs: 1,
                        seed,
                        schedule: None,
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
            .map(|op| format!("{}/{}", p.targets[op.target].name, op.strategy.name()))
            .collect()
    }

    fn run_op(&self, _ctx: &Ctx, p: &Prepared, i: usize, t: &mut Tracer) -> OpResult {
        run_attack_op(&p.targets, &p.ops[i], t)
    }

    fn check(&self, ctx: &Ctx, p: &Prepared, i: usize, r: &OpResult) -> Check {
        match (&r.error, &r.key) {
            (Some(_), _) => Check::Miss,
            // A multi-key lock has no single correct key: a claimed key
            // either fails the benchmark's own check (an unsound verdict)
            // or shows the defense broke.
            (None, Some(key)) => {
                if key_checks_out(ctx, &p.targets[p.ops[i].target].locked, key) {
                    Check::Miss
                } else {
                    Check::Wrong(format!("claimed key {key} fails the 64-lane check"))
                }
            }
            (None, None) => Check::Ok,
        }
    }

    fn replay(&self, ctx: &Ctx, p: &Prepared, i: usize, r: &OpResult, t: &mut Tracer) {
        replay_attack_op(ctx, &p.targets, &p.ops[i], r, t);
    }
}
