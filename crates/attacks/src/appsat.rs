//! AppSAT and Double-DIP — the approximate / strengthened SAT-attack
//! variants cited in the paper's related work (§II-B).
//!
//! * **AppSAT** (Shamsi et al., HOST 2017) interleaves the exact DIP loop
//!   with random-query error estimation and settles for an *approximate*
//!   key once the observed error rate drops below a threshold — effective
//!   against low-corruptibility point functions (Anti-SAT), and a relevant
//!   adversary for any scheme whose wrong keys corrupt rarely.
//! * **Double-DIP** (Shen & Zhou, GLSVLSI 2017) constrains each iteration
//!   to find input patterns that eliminate *at least two* wrong keys at
//!   once, defeating SARLock-style one-key-per-DIP defenses.
//!
//! Both run on the shared scan miter model (the same
//! [`MiterBuilder`](cutelock_sat::MiterBuilder)-built model as
//! [`crate::sat_attack`]) and through the crate's one DIP driver
//! (`dip.rs`): AppSAT adds a settle after-step to the hunt, Double-DIP
//! a third key copy and a second hunt. Against
//! Cute-Lock they fare no better than the exact attack: the approximate
//! key AppSAT returns is still a *constant* key, so its error rate can
//! never reach zero, and the run ends in a (labeled) approximate wrong
//! key; Double-DIP's pair constraint just reaches the `CNS` dead end in
//! fewer iterations.

use cutelock_core::{KeyValue, LockedCircuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dip::{no_settle, verdict, Verdict};
use crate::portfolio::Portfolio;
use crate::scan::{scan_attack, ScanModel};
use crate::{AttackBudget, AttackReport};

/// Settings specific to AppSAT.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppSatConfig {
    /// Run the error estimation every this many DIP iterations.
    settle_every: usize,
    /// Number of random queries per estimation round.
    queries: usize,
    /// Accept the key when the estimated error rate is at or below this.
    error_threshold: f64,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        Self {
            settle_every: 4,
            queries: 64,
            error_threshold: 0.0,
        }
    }
}

/// Estimated error rate of candidate `key` over random stimulus, via the
/// 64-lane batched miter: `queries` cycles × 64 lanes of samples per call
/// instead of one scalar sequence.
fn estimate_error(locked: &LockedCircuit, key: &KeyValue, queries: usize, rng: &mut StdRng) -> f64 {
    locked
        .wide_corruption_rate(key, queries, rng.next_u64())
        .unwrap_or(1.0)
}

/// Runs AppSAT, racing each solver query across the given [`Portfolio`]
/// — the body of [`AttackStrategy::AppSat`](crate::AttackStrategy::AppSat).
///
/// Returns [`AttackOutcome::KeyFound`](crate::AttackOutcome::KeyFound)
/// only when the settled key verifies exactly; an approximate key that
/// still errs is reported as
/// [`AttackOutcome::WrongKey`](crate::AttackOutcome::WrongKey) (the
/// paper's `x..x`).
pub(crate) fn appsat(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    config: &AppSatConfig,
    portfolio: &Portfolio,
) -> AttackReport {
    scan_attack(locked, budget, portfolio, 0xa2, |dip, m| {
        let mut rng = StdRng::seed_from_u64(0xa995a7);
        let diff = m.obs_differ();
        let keys = m.key_pair();
        // Settle phase: estimate the current candidate's error.
        let settle = |m: &mut ScanModel, iterations: usize| {
            if iterations % config.settle_every != 0 {
                return Verdict::Continue(());
            }
            let cand = KeyValue::from_bits(m.values(&m.k1));
            let err = estimate_error(locked, &cand, config.queries, &mut rng);
            if err <= config.error_threshold {
                Verdict::Break(verdict(locked, cand, 0xa1))
            } else {
                Verdict::Continue(())
            }
        };
        dip.hunt(m, &[&[diff]], |m| m.constrain_dip(&keys), settle)
    })
}

/// Runs the Double-DIP attack, racing each solver query across the given
/// [`Portfolio`]: each iteration demands an input pattern on which the two
/// key copies disagree **and** at least one of them also disagrees with a
/// third key copy — guaranteeing every DIP prunes two or more wrong keys.
/// The body of [`AttackStrategy::DoubleDip`](crate::AttackStrategy::DoubleDip).
pub(crate) fn double_dip(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> AttackReport {
    scan_attack(locked, budget, portfolio, 0xdd, |dip, m| {
        // Third key copy sharing the same inputs.
        let (k3, f3) = m.add_key_copy();
        let d12 = m.obs_differ();
        let f1 = m.f1.clone();
        let d13 = m.m.obs_differ(&f1, &f3);
        // Phase 1: demand a *double* DIP (both miters differ). One oracle
        // query constrains all three key copies (the third must stay
        // consistent too).
        let [k1, k2] = m.key_pair();
        let triple = [k1, k2, k3];
        dip.hunt(
            m,
            &[&[d12], &[d13]],
            |m| m.constrain_dip(&triple),
            no_settle,
        )?;
        // Phase 2 falls back to the single-miter termination: no pair of
        // distinguishable keys remains at all, or only double-DIPs are
        // exhausted.
        let pair = m.key_pair();
        dip.hunt(m, &[&[d12]], |m| m.constrain_dip(&pair), no_settle)
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
    fn appsat_breaks_xor_lock_exactly() {
        let lc = XorLock::new(5, 51).lock(&s27()).unwrap();
        let report = appsat(
            &lc,
            &quick_budget(),
            &AppSatConfig::default(),
            &Portfolio::single(),
        );
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn appsat_settles_early_on_low_corruption_lock() {
        // TTLock corrupts on a single input pattern; with a permissive
        // threshold AppSAT settles for an approximate key quickly.
        let lc = TtLock::new(4, 9).lock(&s27()).unwrap();
        let cfg = AppSatConfig {
            settle_every: 1,
            queries: 16,
            error_threshold: 0.1,
        };
        let report = appsat(&lc, &quick_budget(), &cfg, &Portfolio::single());
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::KeyFound(_) | AttackOutcome::WrongKey(_)
            ),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn appsat_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 61,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        let report = appsat(
            &lc,
            &quick_budget(),
            &AppSatConfig::default(),
            &Portfolio::single(),
        );
        assert!(report.outcome.defense_held(), "got {}", report.outcome);
    }

    #[test]
    fn double_dip_breaks_xor_lock() {
        let lc = XorLock::new(4, 53).lock(&s27()).unwrap();
        let report = double_dip(&lc, &quick_budget(), &Portfolio::single());
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn double_dip_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 62,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        let report = double_dip(&lc, &quick_budget(), &Portfolio::single());
        assert!(report.outcome.defense_held(), "got {}", report.outcome);
    }
}
