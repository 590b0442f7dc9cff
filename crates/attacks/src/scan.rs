//! The shared scan-access miter model under the combinational oracle-guided
//! attacks (SAT, AppSAT, Double-DIP).
//!
//! With scan access the attack target is the full-scan view of the locked
//! netlist; observations are the primary outputs plus the next-state bits
//! of the flip-flops the oracle also has (lock-inserted state elements have
//! no oracle counterpart and stay unobservable). All CNF construction goes
//! through [`MiterBuilder`] — this module only adds the `LockedCircuit`
//! bookkeeping: which flip-flops are shared with the oracle, and how oracle
//! scan queries become pinned constraint frames. [`scan_attack`] runs one
//! such attack through the [`Dip`] driver.

use cutelock_core::LockedCircuit;
use cutelock_netlist::unroll::scan_view;
use cutelock_sat::{Frame, Lit, MiterBuilder, PortVals, Solver};
use cutelock_sim::NetlistOracle;

use crate::dip::{Dip, DipModel, Verdict};
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackOutcome, AttackReport};

/// For each flip-flop of the *original* circuit (the oracle's scan-chain
/// order), its index in the locked circuit's flip-flop list.
///
/// # Panics
///
/// Panics if locking dropped a functional flip-flop (lock transforms
/// preserve them by contract).
pub(crate) fn shared_ffs(locked: &LockedCircuit) -> Vec<usize> {
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
        .map(|ff| {
            let name = locked.original.net_name(ff.q());
            locked_q
                .iter()
                .position(|&n| n == name)
                .expect("locking preserves functional flip-flops")
        })
        .collect()
}

/// The two-copy scan miter every combinational oracle-guided attack starts
/// from: private key vectors `k1`/`k2`, shared data (`xs`) and state (`ss`)
/// inputs, and the two encoded copies (`f1`/`f2`) whose observations the
/// DIP hunt compares.
pub(crate) struct ScanModel {
    pub shared_ffs: Vec<usize>,
    pub m: MiterBuilder,
    pub oracle: NetlistOracle,
    pub k1: Vec<Lit>,
    pub k2: Vec<Lit>,
    pub xs: Vec<Lit>,
    pub ss: Vec<Lit>,
    pub f1: Frame,
    pub f2: Frame,
}

impl ScanModel {
    /// Builds the miter on a solver under the budget's conflict cap and
    /// clock and the portfolio's stop flag, or `None` when the netlist has
    /// no key inputs or is structurally unusable.
    pub fn new(
        locked: &LockedCircuit,
        budget: &AttackBudget,
        portfolio: &Portfolio,
    ) -> Option<Self> {
        if locked.netlist.key_inputs().is_empty() {
            return None;
        }
        let sv = scan_view(&locked.netlist).ok()?;
        let oracle = NetlistOracle::new(locked.original.clone()).ok()?;
        let shared = shared_ffs(locked);
        let mut m = MiterBuilder::new(sv, &shared);
        m.enc.solver.set_conflict_budget(budget.conflict_budget);
        let k1 = m.fresh_keys();
        let k2 = m.fresh_keys();
        let xs = m.fresh_data();
        let ss = m.fresh_state();
        let f1 = m
            .frame(&k1, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .ok()?;
        let f2 = m
            .frame(&k2, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .ok()?;
        m.enc.solver.set_clock(budget.clock.clone());
        portfolio.install(&mut m.enc.solver);
        Some(Self {
            shared_ffs: shared,
            m,
            oracle,
            k1,
            k2,
            xs,
            ss,
            f1,
            f2,
        })
    }

    /// Model values of `lits` after a SAT answer.
    pub fn values(&self, lits: &[Lit]) -> Vec<bool> {
        self.m.enc.values(lits)
    }

    /// The miter key copies `[k1, k2]`.
    pub fn key_pair(&self) -> [Vec<Lit>; 2] {
        [self.k1.clone(), self.k2.clone()]
    }

    /// The miter constraint: some observation of the two copies differs.
    pub fn obs_differ(&mut self) -> Lit {
        let (f1, f2) = (self.f1.clone(), self.f2.clone());
        self.m.obs_differ(&f1, &f2)
    }

    /// Adds a third (or nth) key copy sharing `xs`/`ss`, for Double-DIP.
    pub fn add_key_copy(&mut self) -> (Vec<Lit>, Frame) {
        let keys = self.m.fresh_keys();
        let (ss, xs) = (self.ss.clone(), self.xs.clone());
        let frame = self
            .m
            .frame(&keys, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .expect("scan view encodes");
        (keys, frame)
    }

    /// The per-DIP step: reads the scan pattern `(x, s)` the hunt found,
    /// queries the oracle on it and pins a fresh constraint copy per key
    /// vector in `key_copies` to its answer.
    pub fn constrain_dip(&mut self, key_copies: &[Vec<Lit>]) -> Verdict {
        let (x, s) = (self.values(&self.xs), self.values(&self.ss));
        let s_shared: Vec<bool> = self.shared_ffs.iter().map(|&f| s[f]).collect();
        let (y, s_next) = self.oracle.scan_query(&s_shared, &x);
        for keys in key_copies {
            let f = self
                .m
                .frame(keys, PortVals::Const(&s), PortVals::Const(&x))
                .expect("scan view encodes");
            self.m.pin_observations(&f, &y, &s_next);
        }
        Verdict::Continue(())
    }
}

impl DipModel for ScanModel {
    fn solver(&mut self) -> &mut Solver {
        &mut self.m.enc.solver
    }
}

/// Runs one scan-view attack: builds the [`ScanModel`], lets `hunt` drive
/// the DIP loop through the [`Dip`] driver, then extracts `k1` and
/// verifies it under `seed`. Every report is at bound 1.
pub(crate) fn scan_attack(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
    seed: u64,
    hunt: impl FnOnce(&mut Dip, &mut ScanModel) -> Verdict,
) -> AttackReport {
    let mut dip = Dip::new(budget, portfolio, budget.start());
    let Some(mut m) = ScanModel::new(locked, budget, portfolio) else {
        return dip.report(AttackOutcome::Fail, 1, None);
    };
    let outcome = hunt(&mut dip, &mut m)
        .break_value()
        .unwrap_or_else(|| dip.extract(&mut m.m, &m.k1, locked, seed));
    dip.report(outcome, 1, Some(&m.m.enc.solver))
}
