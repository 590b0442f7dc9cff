//! The oracle-guided SAT attack (Subramanyan et al., HOST 2015) under the
//! full-scan assumption.
//!
//! With scan access every flip-flop is controllable and observable, so the
//! attack targets the *combinational core*: pseudo-inputs are the flip-flop
//! outputs, pseudo-outputs the flip-flop data inputs. The classic DIP loop
//! then runs on single input patterns instead of sequences.
//!
//! The oracle chip exposes only the **functional** state (the original
//! flip-flops) through its scan chain; state elements added by the lock
//! (the Cute-Lock counter, DK-Lock's mode register) have no oracle
//! counterpart. They remain attacker-controlled pseudo-inputs of the locked
//! model whose next-state is unobservable. This is exactly why Cute-Lock
//! survives even *with* scan access (paper §I): each DIP pins the counter
//! to some time `t` and teaches the attacker that the constant key must
//! equal `schedule[t]` — two DIPs with different times leave no consistent
//! key and the attack ends in [`AttackOutcome::Cns`](crate::AttackOutcome::Cns).
//!
//! The miter — two scan-view copies with private keys, shared inputs, and
//! a retractable differ constraint — is built by the unified
//! [`MiterBuilder`](cutelock_sat::MiterBuilder) engine, and the DIP loop is
//! the crate's one driver (`dip.rs`). This module only names the
//! differ clause, the key copies each DIP constrains and the verification
//! seed.

use cutelock_core::LockedCircuit;

use crate::dip::no_settle;
use crate::portfolio::Portfolio;
use crate::scan::scan_attack;
use crate::{AttackBudget, AttackReport};

/// Runs the scan-access oracle-guided SAT attack, racing each solver query
/// across the given [`Portfolio`] — the body of
/// [`AttackStrategy::ScanSat`](crate::AttackStrategy::ScanSat).
pub(crate) fn scan_sat(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> AttackReport {
    scan_attack(locked, budget, portfolio, 0x5a7, |dip, m| {
        let diff = m.obs_differ();
        let keys = m.key_pair();
        dip.hunt(m, &[&[diff]], |m| m.constrain_dip(&keys), no_settle)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackOutcome;
    use cutelock_circuits::s27::s27;
    use cutelock_core::baselines::{TtLock, XorLock};
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

    fn quick_budget() -> AttackBudget {
        AttackBudget {
            timeout: std::time::Duration::from_secs(30),
            max_bound: 1,
            max_iterations: 256,
            conflict_budget: Some(500_000),
            ..AttackBudget::default()
        }
    }

    #[test]
    fn scan_sat_breaks_xor_lock() {
        let lc = XorLock::new(6, 41).lock(&s27()).unwrap();
        let report = scan_sat(&lc, &quick_budget(), &Portfolio::single());
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn scan_sat_breaks_ttlock() {
        // FALL's prey; the plain SAT attack also breaks TTLock with scan.
        let lc = TtLock::new(4, 2).lock(&s27()).unwrap();
        let report = scan_sat(&lc, &quick_budget(), &Portfolio::single());
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn scan_sat_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 31,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        assert!(!lc.schedule.is_constant(), "degenerate schedule");
        let report = scan_sat(&lc, &quick_budget(), &Portfolio::single());
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::Cns | AttackOutcome::WrongKey(_)
            ),
            "got {}",
            report.outcome
        );
    }
}
