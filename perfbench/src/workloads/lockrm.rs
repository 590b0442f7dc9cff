//! `lock-removal`: Table V rows b14, b15, b20, b21 and b22. One op locks
//! a circuit with Cute-Lock-Str (k=4, ki=5, half its flip-flops), runs
//! DANA on the clean and locked netlists and FALL on the locked one.
//! Known answer: locking succeeds and FALL recovers no key.

use cutelock_attacks::dana::{dana_attack_with_budget, score_against_ground_truth};
use cutelock_attacks::fall::fall_attack_with;
use cutelock_attacks::{AttackReport, AttackStrategy, RunRecord, RunStats};
use cutelock_circuits::itc99;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::KeySchedule;
use cutelock_netlist::Netlist;

use super::{count_gates_added, key_seed, quick_spec, roundtrip_netlist, TABLE5_LOCK_SEED};
use crate::engine::{Check, Ctx, OpResult, Workload};
use crate::layers;
use crate::trace::Tracer;

const CIRCUITS: [&str; 5] = ["b14", "b15", "b20", "b21", "b22"];

/// The workload.
pub struct LockRemoval;

/// One clean circuit with its DANA ground truth.
pub struct Clean {
    name: &'static str,
    netlist: Netlist,
    truth: Vec<usize>,
}

impl Workload for LockRemoval {
    type Prepared = Vec<Clean>;

    fn setup(&self, _ctx: &Ctx, t: &mut Tracer) -> Result<Vec<Clean>, String> {
        CIRCUITS
            .iter()
            .map(|&name| {
                let circuit = t
                    .span("circuits.gen_ms", || itc99(name))
                    .map_err(|e| format!("{name}: {e}"))?;
                roundtrip_netlist(t, &circuit.netlist)?;
                Ok(Clean {
                    name,
                    truth: circuit.word_labels(),
                    netlist: circuit.netlist,
                })
            })
            .collect()
    }

    fn op_names(&self, p: &Vec<Clean>) -> Vec<String> {
        p.iter()
            .map(|c| format!("{}/lock+dana+fall", c.name))
            .collect()
    }

    fn run_op(&self, ctx: &Ctx, p: &Vec<Clean>, i: usize, t: &mut Tracer) -> OpResult {
        let clean = &p[i];
        let spec = quick_spec(AttackStrategy::Fall);
        let seed = TABLE5_LOCK_SEED;
        let schedule = KeySchedule::random(4, 5, key_seed(ctx, clean.name));
        let locked = t.span("core.lock_ms", || {
            CuteLockStr::new(CuteLockStrConfig {
                keys: 4,
                key_bits: 5,
                locked_ffs: (clean.netlist.dff_count() / 2).max(2),
                seed,
                schedule: Some(schedule),
                ..Default::default()
            })
            .lock(&clean.netlist)
        });
        let locked = match locked {
            Ok(l) => l,
            Err(e) => {
                return OpResult {
                    verdict: format!("lock failed: {e}"),
                    error: Some(e.to_string()),
                    ..Default::default()
                }
            }
        };
        count_gates_added(t, &locked);
        let dana_clean = t.span("attacks.dana_ms", || {
            dana_attack_with_budget(&clean.netlist, &spec.budget)
        });
        let dana_locked = t.span("attacks.dana_ms", || {
            dana_attack_with_budget(&locked.netlist, &spec.budget)
        });
        let fall = t.span("attacks.fall_ms", || {
            fall_attack_with(&locked, &spec.budget, &spec.portfolio)
        });
        let nmi_clean = score_against_ground_truth(&dana_clean, &clean.truth);
        let nmi_locked = score_against_ground_truth(&dana_locked, &clean.truth);
        let report = AttackReport {
            outcome: fall.outcome.clone(),
            elapsed: fall.elapsed,
            iterations: fall.candidates,
            bound: 0,
            stats: RunStats::default(),
        };
        let mut r = OpResult::from_report(&report);
        r.verdict = format!(
            "nmi {nmi_clean:.3}->{nmi_locked:.3} fall {} candidates {} keys",
            fall.candidates, fall.keys_found
        );
        r.counts.insert("attacks.fall_keys", fall.keys_found as u64);
        r.counts.insert(
            "attacks.dana_clusters",
            (dana_clean.clusters.len() + dana_locked.clusters.len()) as u64,
        );
        r.counts.insert(
            "attacks.dana_timeouts",
            u64::from(dana_clean.timed_out) + u64::from(dana_locked.timed_out),
        );
        r.record = Some(RunRecord::from_run(
            clean.name, seed, &locked, &spec, &report,
        ));
        r.locked = Some(locked);
        r
    }

    fn check(&self, _ctx: &Ctx, _p: &Vec<Clean>, _i: usize, r: &OpResult) -> Check {
        match r.counts.get("attacks.fall_keys") {
            Some(0) if r.error.is_none() => Check::Ok,
            _ => Check::Miss,
        }
    }

    fn replay(&self, ctx: &Ctx, p: &Vec<Clean>, i: usize, r: &OpResult, t: &mut Tracer) {
        if let Some(locked) = &r.locked {
            layers::corruption(t, locked, key_seed(ctx, p[i].name));
        }
    }
}
