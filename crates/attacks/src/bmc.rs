//! Sequential oracle-guided unrolling attacks: NEOS `bbo` / `int`, KC2 and
//! RANE.
//!
//! Every one of them searches for a **constant key** consistent with the sequential
//! oracle by unrolling the locked circuit over clock cycles and running the
//! crate's one DIP driver (`dip.rs`) per bound; this module supplies the
//! unrolled miter and the per-DIP step:
//!
//! 1. build a *miter*: two copies of the unrolled locked circuit sharing the
//!    input sequence (and, for RANE, the unknown initial state) but carrying
//!    independent key variables `K1`, `K2`; ask the solver for an input
//!    sequence on which their outputs differ;
//! 2. query the oracle (the activated chip, simulated from reset) with that
//!    sequence and constrain both copies to reproduce the oracle's outputs;
//! 3. repeat until no discriminating sequence exists at this bound; then
//!    extract a candidate key, verify it by simulation, and either finish or
//!    deepen the unrolling.
//!
//! The key model is where Cute-Lock bites: once oracle constraints span two
//! counter times with different scheduled keys, *no* constant key is
//! consistent — the solver proves the attack's own model unsatisfiable and
//! the run ends in [`AttackOutcome::Cns`].
//!
//! All frame encoding happens through the unified
//! [`MiterBuilder`] engine: each clock cycle of each
//! miter copy is one [`MiterBuilder::frame`] call, with the next-state
//! literals threaded into the following frame. Every strategy runs on one
//! **persistent incremental solver**: frames are appended as the bound
//! grows, the per-bound "some output differs" constraint lives in the
//! driver's retractable [`Solver`] scope, and oracle/DIP constraints are
//! asserted permanently — so learnt clauses survive across bounds and
//! iterations.
//!
//! [`run_attack`](crate::run_attack) builds one engine per strategy:
//!
//! | strategy | initial state | key-bit fixing |
//! |---|---|---|
//! | `bbo`, `int` | reset | no |
//! | `kc2` | reset | yes |
//! | `rane` | secret | no |
//!
//! `bbo` and `int` run the same code: NEOS's `bbo` historically re-solved
//! from scratch per bound, a difference only in lineage here.
//!
//! # KC2 — Key-Condition Crunching (Shamsi et al., DATE 2019)
//!
//! KC2 accelerates the incremental unrolling attack by *simplifying the key
//! condition* as oracle constraints accumulate: after each discriminating
//! sequence it probes every still-free key bit with cheap bounded SAT calls
//! and permanently fixes the implied ones. On single-key locks this
//! collapses the key space rapidly; on Cute-Lock the probes accelerate the
//! discovery that **no** constant key remains, so KC2 reaches the paper's
//! `CNS` verdict faster than plain INT — visible in Tables III–IV, where
//! KC2 times track INT closely.
//!
//! # RANE — Reverse Assessment of Netlist Encryption (Roshanisefat et al.)
//!
//! RANE drives formal verification tools over the locked design, modeling
//! the **initial state as a secret variable** alongside the key, and
//! searches for an unlocking key/sequence consistent with the oracle. This
//! reproduction realizes the same model on the same engine: one shared set
//! of free initial-state variables joins the two miter copies and every
//! oracle-constraint chain.
//!
//! Against Cute-Lock the extra freedom does not help: whatever initial
//! counter phase the solver guesses, oracle traces longer than one counter
//! period demand a different key value per cycle, and the constant-key
//! model collapses to `CNS` just as in Tables III–IV.

use cutelock_core::clock::Instant;
use cutelock_core::LockedCircuit;
use cutelock_netlist::unroll::scan_view;
use cutelock_sat::{CircuitEncoder, Lit, MiterBuilder, PortVals, SatResult, Solver};
use cutelock_sim::{NetlistOracle, SequentialOracle};

use crate::dip::{no_settle, Dip, DipModel, Verdict};
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackOutcome, AttackReport};

/// How the attacker models the initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InitModel {
    /// Known reset state (read from the netlist's flip-flop inits).
    Reset,
    /// Unknown initial state, modeled as secret variables shared by all
    /// copies (the RANE model).
    Secret,
}

/// Incremental-mode state: the miter (owning the solver), the two
/// key-literal vectors, the shared data inputs of every frame so far, each
/// copy's state literals feeding the next frame, and the shared
/// secret-initial-state literals (if any).
struct IncState {
    m: MiterBuilder,
    k1: Vec<Lit>,
    k2: Vec<Lit>,
    xs: Vec<Vec<Lit>>,
    state1: Vec<Lit>,
    state2: Vec<Lit>,
    secret: Option<Vec<Lit>>,
}

impl DipModel for IncState {
    fn solver(&mut self) -> &mut Solver {
        &mut self.m.enc.solver
    }
}

/// The unrolled miter model and per-DIP step behind BBO, INT, KC2 and
/// RANE.
pub(crate) struct Engine<'a> {
    locked: &'a LockedCircuit,
    budget: &'a AttackBudget,
    init: InitModel,
    /// KC2 extension: probe and fix implied key bits after each iteration.
    fix_key_bits: bool,
    /// Query-level portfolio racing (and the attack-level stop flag).
    portfolio: &'a Portfolio,
    start: Instant,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        locked: &'a LockedCircuit,
        budget: &'a AttackBudget,
        init: InitModel,
        fix_key_bits: bool,
        portfolio: &'a Portfolio,
    ) -> Self {
        Self {
            locked,
            budget,
            init,
            fix_key_bits,
            portfolio,
            start: budget.start(),
        }
    }

    fn remaining(&self) -> Option<std::time::Duration> {
        self.budget.remaining(self.start)
    }

    /// A fresh miter over the scan view with keys, optional secret initial
    /// state, and no frames yet — the bound-0 state of a run.
    fn fresh_state(&self) -> IncState {
        let sv = scan_view(&self.locked.netlist).expect("locked netlist is well-formed");
        let mut m = MiterBuilder::new(sv, &[]);
        m.enc
            .solver
            .set_conflict_budget(self.budget.conflict_budget);
        m.enc.solver.set_clock(self.budget.clock.clone());
        self.portfolio.install(&mut m.enc.solver);
        let k1 = m.fresh_keys();
        let k2 = m.fresh_keys();
        let secret: Option<Vec<Lit>> = (self.init == InitModel::Secret)
            .then(|| m.enc.fresh_lits(self.locked.netlist.dff_count()));
        let init = self.init_state(&mut m.enc, secret.as_deref());
        IncState {
            m,
            k1,
            k2,
            xs: Vec::new(),
            state1: init.clone(),
            state2: init,
            secret,
        }
    }

    /// Initial-state literals for a fresh chain: the RANE secret variables
    /// when provided, otherwise reset constants.
    fn init_state(&self, enc: &mut CircuitEncoder, secret: Option<&[Lit]>) -> Vec<Lit> {
        match (self.init, secret) {
            (InitModel::Secret, Some(s0)) => s0.to_vec(),
            _ => {
                let bits: Vec<bool> = self
                    .locked
                    .netlist
                    .dffs()
                    .iter()
                    .map(|ff| ff.init().unwrap_or(false))
                    .collect();
                enc.lits_const(&bits)
            }
        }
    }

    /// The per-DIP step: reads the discriminating input sequence, replays
    /// it on the oracle from reset, and constrains both key copies to
    /// reproduce the oracle outputs. KC2 then crunches the key condition,
    /// which may run out the deadline.
    fn constrain_dip(
        &self,
        st: &mut IncState,
        oracle: &mut NetlistOracle,
        fixed: &mut [Option<bool>],
    ) -> Verdict {
        let xseq: Vec<Vec<bool>> = st.xs.iter().map(|frame| st.m.enc.values(frame)).collect();
        oracle.reset();
        let oracle_out: Vec<Vec<bool>> = xseq.iter().map(|x| oracle.step(x)).collect();
        for keys in [&st.k1, &st.k2] {
            let mut state = self.init_state(&mut st.m.enc, st.secret.as_deref());
            for (xs, ys) in xseq.iter().zip(&oracle_out) {
                let f =
                    st.m.frame(keys, PortVals::Shared(&state), PortVals::Const(xs))
                        .expect("scan view encodes");
                st.m.enc.pin(&f.outputs, ys);
                state = f.next_state;
            }
        }
        if self.fix_key_bits && self.crunch_key_bits(&mut st.m.enc.solver, &st.k1, fixed) {
            return Verdict::Break(AttackOutcome::Timeout);
        }
        Verdict::Continue(())
    }

    /// KC2-style key-bit fixation: probe each still-free key bit under a
    /// small conflict budget; implied bits get asserted as units, shrinking
    /// the key condition.
    ///
    /// Returns `true` when the attack's wall-clock deadline expired
    /// mid-probe (the caller must report [`AttackOutcome::Timeout`]). The
    /// probe loop checks the deadline *between* probes — a wide key no
    /// longer blows past `AttackBudget::timeout` one 2 000-conflict probe at
    /// a time — and the main loop's conflict budget is restored on every
    /// exit path, timeout included.
    fn crunch_key_bits(&self, solver: &mut Solver, k1: &[Lit], fixed: &mut [Option<bool>]) -> bool {
        let mut timed_out = false;
        for (j, &kj) in k1.iter().enumerate() {
            if fixed[j].is_some() {
                continue;
            }
            let Some(rem) = self.remaining() else {
                timed_out = true;
                break;
            };
            solver.set_timeout(Some(rem));
            solver.set_conflict_budget(Some(2_000));
            if solver.solve_with_assumptions(&[kj]) == SatResult::Unsat {
                solver.add_clause(&[!kj]);
                fixed[j] = Some(false);
            } else if solver.solve_with_assumptions(&[!kj]) == SatResult::Unsat {
                solver.add_clause(&[kj]);
                fixed[j] = Some(true);
            }
        }
        solver.set_conflict_budget(self.budget.conflict_budget);
        timed_out
    }

    /// Runs the attack: one DIP hunt per bound on the growing miter, then
    /// a candidate-key extraction that either ends the run or, on a wrong
    /// key below `max_bound`, deepens the unrolling.
    pub(crate) fn run(self) -> AttackReport {
        let mut dip = Dip::new(self.budget, self.portfolio, self.start);
        let ki = self.locked.netlist.key_inputs().len();
        if ki == 0 || self.budget.max_bound == 0 {
            return dip.report(AttackOutcome::Fail, 0, None);
        }
        let mut oracle =
            NetlistOracle::new(self.locked.original.clone()).expect("oracle netlist valid");
        let mut fixed: Vec<Option<bool>> = vec![None; ki];
        let mut st = self.fresh_state();
        let mut diff_lits: Vec<Lit> = Vec::new();
        let mut bound = 0;
        loop {
            bound += 1;
            // Extend the miter up to `bound` frames: fresh shared data
            // inputs per frame, state threaded from the previous frame.
            while st.xs.len() < bound {
                let f1 =
                    st.m.frame(&st.k1, PortVals::Shared(&st.state1), PortVals::Fresh)
                        .expect("scan view encodes");
                let f2 =
                    st.m.frame(
                        &st.k2,
                        PortVals::Shared(&st.state2),
                        PortVals::Shared(&f1.xs),
                    )
                    .expect("scan view encodes");
                diff_lits.push(st.m.enc.differ(&f1.outputs, &f2.outputs));
                st.xs.push(f1.xs);
                st.state1 = f1.next_state;
                st.state2 = f2.next_state;
            }
            // The "some frame's outputs differ" clause holds only during
            // the hunt: one retractable clause per bound, and the solver
            // (with everything it learnt) stays live for the extraction
            // and the next bound.
            let step = |st: &mut IncState| self.constrain_dip(st, &mut oracle, &mut fixed);
            let outcome = match dip.hunt(&mut st, &[&diff_lits], step, no_settle) {
                Verdict::Break(outcome) => outcome,
                Verdict::Continue(()) => match dip.extract(&mut st.m, &st.k1, self.locked, 0xd1f) {
                    AttackOutcome::WrongKey(_) if bound < self.budget.max_bound => continue,
                    outcome => outcome,
                },
            };
            return dip.report(outcome, bound, Some(&st.m.enc.solver));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::verify_candidate_key;
    use crate::{run_attack, AttackSpec, AttackStrategy};
    use cutelock_circuits::s27::s27;
    use cutelock_core::baselines::XorLock;
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
    use cutelock_core::KeySchedule;

    fn quick_budget() -> AttackBudget {
        AttackBudget {
            timeout: std::time::Duration::from_secs(30),
            max_bound: 6,
            max_iterations: 64,
            conflict_budget: Some(500_000),
            ..AttackBudget::default()
        }
    }

    fn attack(strategy: AttackStrategy, lc: &LockedCircuit) -> AttackReport {
        run_attack(lc, &AttackSpec::new(strategy).with_budget(quick_budget()))
    }

    /// A multi-key Cute-Lock-Str on s27: `keys` keys of 2 bits, one locked FF.
    fn multi_key_cutelock(keys: usize, seed: u64) -> LockedCircuit {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys,
            key_bits: 2,
            locked_ffs: 1,
            seed,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        assert!(!lc.schedule.is_constant(), "degenerate schedule");
        lc
    }

    #[test]
    fn int_breaks_xor_lock() {
        let lc = XorLock::new(4, 3).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::Int, &lc);
        match &report.outcome {
            AttackOutcome::KeyFound(k) => {
                assert!(verify_candidate_key(&lc, k, 500, 1));
            }
            other => panic!("expected KeyFound, got {other}"),
        }
    }

    #[test]
    fn bbo_breaks_xor_lock() {
        let lc = XorLock::new(3, 7).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::Bbo, &lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn crunch_key_bits_times_out_and_restores_budget() {
        // Regression (attack-budget bugfix): with the wall clock already
        // exhausted, the probe loop must bail before probing anything and
        // must not leak its temporary 2 000-conflict budget.
        let lc = XorLock::new(4, 3).lock(&s27()).unwrap();
        let budget = AttackBudget {
            timeout: std::time::Duration::ZERO,
            ..quick_budget()
        };
        let portfolio = Portfolio::single();
        let engine = Engine::new(&lc, &budget, InitModel::Reset, true, &portfolio);
        let mut solver = Solver::new();
        solver.set_conflict_budget(budget.conflict_budget);
        let k1: Vec<Lit> = (0..4).map(|_| Lit::positive(solver.new_var())).collect();
        let mut fixed = vec![None; 4];
        let conflicts_before = solver.stats().conflicts;
        assert!(
            engine.crunch_key_bits(&mut solver, &k1, &mut fixed),
            "expired deadline must report a timeout"
        );
        assert_eq!(
            solver.conflict_budget(),
            budget.conflict_budget,
            "probe budget leaked into the main loop"
        );
        assert_eq!(
            solver.stats().conflicts,
            conflicts_before,
            "probes ran anyway"
        );
        assert!(fixed.iter().all(Option::is_none));
    }

    #[test]
    fn crunch_key_bits_restores_budget_after_probing() {
        // The success path must restore the budget too (covers the
        // incremental refactor's early-return audit).
        let lc = XorLock::new(2, 3).lock(&s27()).unwrap();
        let budget = quick_budget();
        let portfolio = Portfolio::single();
        let engine = Engine::new(&lc, &budget, InitModel::Reset, true, &portfolio);
        let mut solver = Solver::new();
        solver.set_conflict_budget(budget.conflict_budget);
        let k1: Vec<Lit> = (0..2).map(|_| Lit::positive(solver.new_var())).collect();
        // Force k1[0] true so the probe of !k1[0] is UNSAT and fixes a bit.
        solver.add_clause(&[k1[0]]);
        let mut fixed = vec![None; 2];
        assert!(!engine.crunch_key_bits(&mut solver, &k1, &mut fixed));
        assert_eq!(fixed[0], Some(true));
        assert_eq!(solver.conflict_budget(), budget.conflict_budget);
    }

    #[test]
    fn int_breaks_single_key_cutelock() {
        // The paper's validation (§IV.A): reduced to one key value,
        // Cute-Lock is SAT-attackable.
        let sched = KeySchedule::constant(cutelock_core::KeyValue::from_u64(2, 2), 4);
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 5,
            schedule: Some(sched),
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        let report = attack(AttackStrategy::Int, &lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn int_dead_ends_on_multi_key_cutelock() {
        let report = attack(AttackStrategy::Int, &multi_key_cutelock(4, 6));
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::Cns | AttackOutcome::WrongKey(_)
            ),
            "expected CNS or wrong key, got {}",
            report.outcome
        );
    }

    #[test]
    fn bbo_dead_ends_on_multi_key_cutelock() {
        let report = attack(AttackStrategy::Bbo, &multi_key_cutelock(2, 11));
        assert!(report.outcome.defense_held(), "got {}", report.outcome);
    }

    #[test]
    fn kc2_breaks_xor_lock() {
        let lc = XorLock::new(4, 13).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::Kc2, &lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn kc2_dead_ends_on_multi_key_cutelock() {
        let report = attack(AttackStrategy::Kc2, &multi_key_cutelock(4, 17));
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::Cns | AttackOutcome::WrongKey(_)
            ),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn rane_breaks_xor_lock() {
        let lc = XorLock::new(3, 23).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::Rane, &lc);
        match &report.outcome {
            AttackOutcome::KeyFound(k) => assert!(verify_candidate_key(&lc, k, 300, 2)),
            other => panic!("expected KeyFound, got {other}"),
        }
    }

    #[test]
    fn rane_dead_ends_on_multi_key_cutelock() {
        let report = attack(AttackStrategy::Rane, &multi_key_cutelock(4, 29));
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::Cns | AttackOutcome::WrongKey(_) | AttackOutcome::Timeout
            ),
            "got {}",
            report.outcome
        );
    }
}
