//! The unified attack-request API: one spec type, one entry point.
//!
//! An [`AttackSpec`] names the [`AttackStrategy`], carries the
//! [`AttackBudget`], and carries the [`Portfolio`]; [`run_attack`] is the
//! **one door** every caller drives an oracle-guided attack through — the
//! CLI, the table bins, the job daemon, tests and benches alike. The
//! `LockedCircuit` argument bundles the locked netlist with its oracle (the
//! original), so a spec plus a circuit fully determines a run.
//! [`run_race`] is the same door for the attack-level strategy race when
//! the per-strategy breakdown is wanted.
//!
//! # Example
//!
//! ```
//! use cutelock_attacks::{run_attack, AttackSpec, AttackStrategy};
//! use cutelock_circuits::s27::s27;
//! use cutelock_core::baselines::XorLock;
//!
//! let locked = XorLock::new(4, 3).lock(&s27()).unwrap();
//! let spec = AttackSpec::new(AttackStrategy::ScanSat);
//! let report = run_attack(&locked, &spec);
//! assert!(!report.outcome.defense_held(), "XOR locks fall to the SAT attack");
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cutelock_core::LockedCircuit;
use cutelock_sim::pool::Pool;

use crate::appsat::{appsat, double_dip, AppSatConfig};
use crate::bmc::{Engine, InitModel};
use crate::fall::fall_attack_with;
use crate::portfolio::Portfolio;
use crate::sat_attack::scan_sat;
use crate::{AttackBudget, AttackOutcome, AttackReport};

/// Every attack the unified entry point can run, by CLI/table name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AttackStrategy {
    /// The combinational oracle-guided SAT attack through the scan view
    /// (`sat`).
    ScanSat,
    /// Sequential unrolling, NEOS `bbo` mode (`bbo`).
    Bbo,
    /// Sequential unrolling, NEOS `int` mode (`int`).
    Int,
    /// Key-condition crunching (`kc2`).
    Kc2,
    /// The RANE model: secret initial state (`rane`).
    Rane,
    /// AppSAT approximate attack with the default settle policy
    /// (`appsat`).
    AppSat,
    /// Double-DIP: two wrong keys eliminated per iteration
    /// (`double-dip`).
    DoubleDip,
    /// FALL: structural comparator analysis plus SAT confirmation
    /// (`fall`).
    Fall,
    /// Attack-level race of whole strategies with cooperative
    /// cancellation (`race`); wall-clock layer, see [`run_race`].
    Race,
}

impl AttackStrategy {
    /// Every strategy, in canonical (CLI help) order.
    pub const ALL: [AttackStrategy; 9] = [
        AttackStrategy::ScanSat,
        AttackStrategy::Bbo,
        AttackStrategy::Int,
        AttackStrategy::Kc2,
        AttackStrategy::Rane,
        AttackStrategy::AppSat,
        AttackStrategy::DoubleDip,
        AttackStrategy::Fall,
        AttackStrategy::Race,
    ];

    /// The CLI/table/wire name of this strategy.
    pub fn name(self) -> &'static str {
        match self {
            AttackStrategy::ScanSat => "sat",
            AttackStrategy::Bbo => "bbo",
            AttackStrategy::Int => "int",
            AttackStrategy::Kc2 => "kc2",
            AttackStrategy::Rane => "rane",
            AttackStrategy::AppSat => "appsat",
            AttackStrategy::DoubleDip => "double-dip",
            AttackStrategy::Fall => "fall",
            AttackStrategy::Race => "race",
        }
    }

    /// The strategies [`AttackStrategy::Race`] fields, in canonical
    /// order (the order of [`RaceReport::reports`]).
    pub const RACE_ENTRANTS: [AttackStrategy; 3] = [
        AttackStrategy::ScanSat,
        AttackStrategy::Kc2,
        AttackStrategy::Int,
    ];

    /// Parses a CLI/wire mode name (the inverse of
    /// [`AttackStrategy::name`]).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// True when two runs with the same spec produce bit-identical
    /// reports. Everything but [`AttackStrategy::Race`] qualifies: the
    /// attack-level race is decided by wall-clock and is documented as
    /// exempt in `docs/DETERMINISM.md`.
    pub fn is_deterministic(self) -> bool {
        self != AttackStrategy::Race
    }
}

impl std::fmt::Display for AttackStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete attack request: which attack, under what budget, raced how.
///
/// This is the request type shared by the CLI subcommands, the table
/// bins, and the `cutelock serve` job daemon — see [`run_attack`].
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// The attack to run.
    pub strategy: AttackStrategy,
    /// Search budget (wall-clock, bound, iterations, conflicts).
    pub budget: AttackBudget,
    /// Query-level portfolio settings ([`Portfolio::single`] disables
    /// racing). For [`AttackStrategy::Race`] the portfolio is
    /// reinterpreted: `threads` is the strategy-race width and `k` each
    /// strategy's inner query-race width.
    pub portfolio: Portfolio,
    /// Run the netlist simplification engine
    /// ([`cutelock_netlist::simplify()`], state-preserving configuration)
    /// over both the locked netlist and the oracle before attacking.
    ///
    /// Defaults **off** so the frozen golden pins stay bit-identical; the
    /// CLI and the table bins flip it on by default (escape hatch:
    /// `--no-simplify`). Ignored by
    /// [`AttackStrategy::Fall`] (its comparator analysis reads the locked
    /// structure as-built) and [`AttackStrategy::Race`] (already exempt
    /// from determinism pins; its entrants rebuild their own views).
    pub simplify: bool,
}

impl AttackSpec {
    /// A spec with the default budget, no portfolio racing, and no
    /// simplification.
    pub fn new(strategy: AttackStrategy) -> Self {
        Self {
            strategy,
            budget: AttackBudget::default(),
            portfolio: Portfolio::single(),
            simplify: false,
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: AttackBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the portfolio.
    pub fn with_portfolio(mut self, portfolio: Portfolio) -> Self {
        self.portfolio = portfolio;
        self
    }

    /// Sets the simplification switch.
    pub fn with_simplify(mut self, simplify: bool) -> Self {
        self.simplify = simplify;
        self
    }

    /// True when the report's verdict is *decisive*: a verified key (the
    /// lock is broken) or a CNS proof (no constant key exists for this
    /// model). A refuted key, a FAIL, or a timeout settles nothing —
    /// the CLI maps decisive to exit 0 and everything else to exit 2.
    pub fn is_decisive(outcome: &AttackOutcome) -> bool {
        matches!(outcome, AttackOutcome::KeyFound(_) | AttackOutcome::Cns)
    }
}

/// Runs the attack a spec describes against a locked circuit (which
/// bundles its own oracle netlist) — the single entry point behind the
/// CLI `attack` subcommand, the table bins, and the job daemon.
///
/// | strategy | runs |
/// |---|---|
/// | `sat` | the DIP driver on the scan model ([`crate::sat_attack`]) |
/// | `bbo`, `int` | the DIP driver per bound, reset state ([`crate::bmc`]) |
/// | `kc2` | the DIP driver per bound, reset state, key-bit fixing |
/// | `rane` | the DIP driver per bound, secret initial state |
/// | `appsat` | the DIP driver on the scan model with error-rate settling ([`crate::appsat`]) |
/// | `double-dip` | the DIP driver on the scan model, three key copies then two |
/// | `fall` | [`fall_attack_with`]; [`AttackReport::iterations`] holds the candidate count |
/// | `race` | [`run_race`], reduced to the winning (or best-ranked) report |
pub fn run_attack(locked: &LockedCircuit, spec: &AttackSpec) -> AttackReport {
    let prepared;
    let locked =
        if spec.simplify && !matches!(spec.strategy, AttackStrategy::Fall | AttackStrategy::Race) {
            prepared = simplify_locked(locked);
            &prepared
        } else {
            locked
        };
    let (budget, p) = (&spec.budget, &spec.portfolio);
    let bmc = |init, fix_key_bits| Engine::new(locked, budget, init, fix_key_bits, p).run();
    match spec.strategy {
        AttackStrategy::ScanSat => scan_sat(locked, budget, p),
        AttackStrategy::Bbo | AttackStrategy::Int => bmc(InitModel::Reset, false),
        AttackStrategy::Kc2 => bmc(InitModel::Reset, true),
        AttackStrategy::Rane => bmc(InitModel::Secret, false),
        AttackStrategy::AppSat => appsat(locked, budget, &AppSatConfig::default(), p),
        AttackStrategy::DoubleDip => double_dip(locked, budget, p),
        AttackStrategy::Fall => AttackReport::from(&fall_attack_with(locked, budget, p)),
        AttackStrategy::Race => run_race(locked, spec).report,
    }
}

/// Outcome of an attack-level race: the winning strategy (first to a
/// decisive verdict), its report, and every strategy's report for the
/// record.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The strategy that reached a decisive verdict — a verified key or a
    /// CNS proof — first, if any did within the budget.
    pub winner: Option<AttackStrategy>,
    /// The winner's report, or — when no strategy was decisive — the
    /// best-ranked report, ties broken by canonical strategy order.
    pub report: AttackReport,
    /// All reports in [`AttackStrategy::RACE_ENTRANTS`] order. Cancelled
    /// losers read [`AttackOutcome::Timeout`].
    pub reports: Vec<(AttackStrategy, AttackReport)>,
}

/// Races the [`AttackStrategy::RACE_ENTRANTS`] against one oracle under the
/// spec's shared budget and returns the full [`RaceReport`]. [`run_attack`]
/// with [`AttackStrategy::Race`] is this function reduced to the winning
/// report.
///
/// The first strategy to reach a *decisive* verdict
/// ([`AttackSpec::is_decisive`]) raises a shared stop flag, and every other
/// strategy's solver aborts at its next propagate/decide round. Wrong-key
/// and `Fail` finishes do **not** cancel the race: a strategy whose model
/// is inadequate for the lock must not silence one that could break it.
/// *Which* strategy wins can vary with timing — use a query-level
/// [`Portfolio`] when reproducible output matters more than wall-clock —
/// though any returned key is oracle-verified regardless.
///
/// The spec's portfolio is reinterpreted for the race:
/// [`Portfolio::threads`] is the number of strategy workers and
/// [`Portfolio::k`] each strategy's inner query-race width (entrants race
/// serially inside the strategy's worker) — matching the CLI's
/// `--threads` / `--portfolio` flags in `--mode race`. Every other
/// setting ([`Portfolio::share`] among them) carries over to each
/// strategy, and the sharing ledger totals land in the caller's spec. A
/// [`Portfolio::stop`] flag, when set, becomes the race's shared
/// cancellation slot (the job daemon's `CANCEL` raises it); the cancelled
/// strategies report [`AttackOutcome::Timeout`] and the race returns with
/// no winner. Entrants never run the simplifier.
pub fn run_race(locked: &LockedCircuit, spec: &AttackSpec) -> RaceReport {
    let entrants = AttackStrategy::RACE_ENTRANTS;
    let stop = spec
        .portfolio
        .stop
        .clone()
        .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
    let claimed = AtomicUsize::new(usize::MAX);
    let pool = Pool::new(spec.portfolio.threads.max(1).min(entrants.len()));
    let reports: Vec<AttackReport> = pool.map(entrants.len(), |i| {
        let entrant = AttackSpec::new(entrants[i])
            .with_budget(spec.budget.clone())
            .with_portfolio(Portfolio {
                threads: 1,
                stop: Some(Arc::clone(&stop)),
                ..spec.portfolio.clone()
            });
        let r = run_attack(locked, &entrant);
        if AttackSpec::is_decisive(&r.outcome)
            && claimed
                .compare_exchange(usize::MAX, i, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            stop.store(true, Ordering::Relaxed);
        }
        r
    });
    let winner_idx = claimed.load(Ordering::SeqCst);
    let (winner, report) = if winner_idx != usize::MAX {
        (Some(entrants[winner_idx]), reports[winner_idx].clone())
    } else {
        // No decisive verdict (everything timed out, failed, or returned
        // refuted keys): fall back to the best-ranked report, ties broken
        // by strategy order.
        let best = (0..reports.len())
            .min_by_key(|&i| outcome_rank(&reports[i].outcome))
            .expect("entrants non-empty");
        (None, reports[best].clone())
    };
    RaceReport {
        winner,
        report,
        reports: entrants.into_iter().zip(reports).collect(),
    }
}

/// Severity order for the race's no-decisive-verdict fallback: a broken
/// lock outranks a held defense outranks an inconclusive run.
fn outcome_rank(outcome: &AttackOutcome) -> u8 {
    match outcome {
        AttackOutcome::KeyFound(_) => 0,
        AttackOutcome::WrongKey(_) => 1,
        AttackOutcome::Cns => 2,
        AttackOutcome::Fail => 3,
        AttackOutcome::Timeout => 4,
    }
}

/// Returns a copy of `locked` with both netlists run through the
/// state-preserving netlist simplifier
/// ([`cutelock_netlist::simplify::SimplifyConfig::preserving_state`]) —
/// what [`run_attack`] does when [`AttackSpec::simplify`] is set, exposed
/// for the CLI `verify`/`certify` paths and the bench harness.
///
/// State preservation keeps flip-flop count, order, instance names and
/// q-net names, so [`LockedCircuit::counter_ffs`] / `locked_ffs` indices
/// and the scan model's name-based FF mapping stay valid. Schedule,
/// scheme, and FF index lists are carried over verbatim. A simplifier
/// error (a bug on a valid netlist) falls back to the unsimplified copy
/// rather than failing the attack.
pub fn simplify_locked(locked: &LockedCircuit) -> LockedCircuit {
    let cfg = cutelock_netlist::simplify::SimplifyConfig::preserving_state();
    let run = |nl: &cutelock_netlist::Netlist| match cutelock_netlist::simplify::simplify(nl, &cfg)
    {
        Ok((out, _)) => out,
        Err(_) => nl.clone(),
    };
    LockedCircuit {
        netlist: run(&locked.netlist),
        original: run(&locked.original),
        schedule: locked.schedule.clone(),
        scheme: locked.scheme,
        counter_ffs: locked.counter_ffs.clone(),
        locked_ffs: locked.locked_ffs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in AttackStrategy::ALL {
            assert_eq!(AttackStrategy::parse(s.name()), Some(s), "{s}");
        }
        assert_eq!(AttackStrategy::parse("dana"), None, "dana is not a spec");
        assert_eq!(AttackStrategy::parse(""), None);
    }

    #[test]
    fn race_is_the_one_nondeterministic_strategy() {
        for s in AttackStrategy::ALL {
            assert_eq!(s.is_deterministic(), s != AttackStrategy::Race);
        }
    }

    #[test]
    fn decisive_matches_the_race_rule() {
        use cutelock_core::KeyValue;
        assert!(AttackSpec::is_decisive(&AttackOutcome::KeyFound(
            KeyValue::from_u64(1, 2)
        )));
        assert!(AttackSpec::is_decisive(&AttackOutcome::Cns));
        assert!(!AttackSpec::is_decisive(&AttackOutcome::WrongKey(
            KeyValue::from_u64(1, 2)
        )));
        assert!(!AttackSpec::is_decisive(&AttackOutcome::Fail));
        assert!(!AttackSpec::is_decisive(&AttackOutcome::Timeout));
    }

    #[test]
    fn builders_compose() {
        let spec = AttackSpec::new(AttackStrategy::Int)
            .with_budget(AttackBudget {
                timeout: std::time::Duration::from_secs(5),
                ..AttackBudget::default()
            })
            .with_portfolio(Portfolio::new(4, 2))
            .with_simplify(true);
        assert_eq!(spec.strategy, AttackStrategy::Int);
        assert_eq!(spec.budget.timeout.as_secs(), 5);
        assert_eq!(spec.portfolio.k, 4);
        assert!(spec.simplify);
    }

    #[test]
    fn race_entrants_keep_the_spec_sharing_settings() {
        use cutelock_circuits::iscas89;
        use cutelock_core::baselines::XorLock;
        // The lock and budget of the `golden_sharing_thread_independence`
        // pin, whose scan-SAT queries survive a few epoch barriers. One
        // strategy worker runs the entrants in order, so the ledger total
        // is deterministic.
        let lc = XorLock::new(12, 3)
            .lock(&iscas89("s510").expect("bundled").netlist)
            .expect("locks");
        let spec = AttackSpec::new(AttackStrategy::Race)
            .with_budget(AttackBudget {
                timeout: std::time::Duration::from_secs(60),
                max_bound: 6,
                max_iterations: 8,
                conflict_budget: Some(3_000),
                ..AttackBudget::default()
            })
            .with_portfolio(
                Portfolio {
                    epoch_base: 1,
                    ..Portfolio::new(4, 1)
                }
                .with_share(true),
            );
        run_race(&lc, &spec);
        let (exported, _, _) = spec.portfolio.share_stats();
        assert!(exported > 0, "race entrants dropped --share");
    }

    #[test]
    fn simplify_defaults_off_for_golden_stability() {
        // The frozen golden pins rely on plain specs encoding the raw
        // netlists; simplification is strictly opt-in at this layer.
        for s in AttackStrategy::ALL {
            assert!(!AttackSpec::new(s).simplify, "{s}");
        }
    }

    #[test]
    fn simplify_locked_preserves_the_attack_interface() {
        use cutelock_circuits::s27::s27;
        use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 6,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .expect("locks");
        let simplified = simplify_locked(&lc);
        // Interface invariants the attacks depend on.
        assert_eq!(simplified.netlist.input_count(), lc.netlist.input_count());
        assert_eq!(simplified.netlist.output_count(), lc.netlist.output_count());
        assert_eq!(simplified.netlist.dff_count(), lc.netlist.dff_count());
        assert_eq!(simplified.original.dff_count(), lc.original.dff_count());
        assert_eq!(simplified.key_input_ids().len(), lc.key_input_ids().len());
        assert_eq!(simplified.counter_ffs, lc.counter_ffs);
        assert_eq!(simplified.locked_ffs, lc.locked_ffs);
        // FF q-net names survive (the scan model maps state by name).
        for (a, b) in lc.netlist.dffs().iter().zip(simplified.netlist.dffs()) {
            assert_eq!(
                lc.netlist.net_name(a.q()),
                simplified.netlist.net_name(b.q())
            );
        }
        // And the simplified lock still verifies under the correct key.
        assert!(simplified.verify_equivalence(32, 7).unwrap());
    }
}
