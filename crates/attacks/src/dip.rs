//! The one DIP loop behind every oracle-guided attack in this crate: the
//! SAT attack of Subramanyan et al. (HOST 2015). Scan SAT, AppSAT
//! (Shamsi et al., HOST 2017), both Double-DIP phases and the per-bound
//! loop of the unrolling attacks (`bbo`, `int`, KC2, RANE) all run it;
//! they differ only in their miter model and in the step they take per
//! discriminating input pattern (DIP).
//!
//! A [`Dip`] driver owns everything the loop does around that step:
//!
//! * [`Dip::hunt`] opens one retractable scope holding the caller's
//!   "copies differ" clauses and repeats: poll the deadline, race the
//!   scoped query (`Unknown` is a timeout, `Unsat` pops the scope and ends
//!   the hunt), count the iteration against `max_iterations`, run the
//!   caller's step, race the consistency query (`Unsat` is CNS), and run
//!   the optional after-step (AppSAT's settle);
//! * [`Dip::extract`] races the unscoped query once more, reads a
//!   candidate key and verifies it by simulation;
//! * [`Dip::report`] builds the [`AttackReport`] every exit returns.
//!
//! The iteration counter lives in the driver, so it persists across hunts
//! (Double-DIP's two phases, the unrolling attacks' bounds).

use std::ops::ControlFlow;

use cutelock_core::clock::Instant;
use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_sat::{Lit, MiterBuilder, SatResult, Solver};

use crate::outcome::verify_candidate_key;
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackOutcome, AttackReport};

/// A miter model the hunt can drive: it owns the live incremental solver.
pub(crate) trait DipModel {
    /// The solver every query of the hunt runs on.
    fn solver(&mut self) -> &mut Solver;
}

/// `Break` carries the verdict that ends the attack; `Continue` means the
/// hunt ran out of DIPs (or a step has nothing to report).
pub(crate) type Verdict = ControlFlow<AttackOutcome>;

/// The after-step of an attack that never settles early.
pub(crate) fn no_settle<M>(_: &mut M, _: usize) -> Verdict {
    ControlFlow::Continue(())
}

/// `KeyFound` when `key` verifies against the oracle by simulation under
/// `seed`, `WrongKey` otherwise.
pub(crate) fn verdict(locked: &LockedCircuit, key: KeyValue, seed: u64) -> AttackOutcome {
    if verify_candidate_key(locked, &key, 256, seed) {
        AttackOutcome::KeyFound(key)
    } else {
        AttackOutcome::WrongKey(key)
    }
}

/// The DIP-loop driver of one attack run: its budget, portfolio, start
/// instant and the iteration count so far.
pub(crate) struct Dip<'a> {
    budget: &'a AttackBudget,
    portfolio: &'a Portfolio,
    start: Instant,
    iterations: usize,
}

impl<'a> Dip<'a> {
    /// A driver for an attack that started at `start`.
    pub(crate) fn new(budget: &'a AttackBudget, portfolio: &'a Portfolio, start: Instant) -> Self {
        Self {
            budget,
            portfolio,
            start,
            iterations: 0,
        }
    }

    /// Hunts DIPs under the `differ` clauses until none is left
    /// (`Continue`) or the attack ends (`Break`). `step` handles each DIP
    /// (read it, query the oracle, constrain key copies); `settle` runs
    /// after the consistency check with the iteration count so far.
    pub(crate) fn hunt<M: DipModel>(
        &mut self,
        model: &mut M,
        differ: &[&[Lit]],
        mut step: impl FnMut(&mut M) -> Verdict,
        mut settle: impl FnMut(&mut M, usize) -> Verdict,
    ) -> Verdict {
        let solver = model.solver();
        solver.push_scope();
        for clause in differ {
            solver.add_scoped_clause(clause);
        }
        loop {
            let Some(rem) = self.budget.remaining(self.start) else {
                return ControlFlow::Break(AttackOutcome::Timeout);
            };
            let solver = model.solver();
            solver.set_timeout(Some(rem));
            match self.portfolio.race_scoped(solver, &[]) {
                SatResult::Unknown => return ControlFlow::Break(AttackOutcome::Timeout),
                SatResult::Unsat => break,
                SatResult::Sat => {}
            }
            self.iterations += 1;
            if self.iterations > self.budget.max_iterations {
                return ControlFlow::Break(AttackOutcome::Timeout);
            }
            step(model)?;
            if self.portfolio.race(model.solver()) == SatResult::Unsat {
                return ControlFlow::Break(AttackOutcome::Cns);
            }
            settle(model, self.iterations)?;
        }
        model.solver().pop_scope();
        ControlFlow::Continue(())
    }

    /// After an exhausted hunt: races the unscoped miter once more and
    /// verifies the `key` literals' model value under `seed`.
    pub(crate) fn extract(
        &self,
        miter: &mut MiterBuilder,
        key: &[Lit],
        locked: &LockedCircuit,
        seed: u64,
    ) -> AttackOutcome {
        match self.portfolio.race(&mut miter.enc.solver) {
            SatResult::Unsat => AttackOutcome::Cns,
            SatResult::Unknown => AttackOutcome::Timeout,
            SatResult::Sat => verdict(locked, KeyValue::from_bits(miter.enc.values(key)), seed),
        }
    }

    /// The report of an attack that ends now with `outcome` at `bound`;
    /// the counters come from `solver` (zero when no miter was built).
    pub(crate) fn report(
        &self,
        outcome: AttackOutcome,
        bound: usize,
        solver: Option<&Solver>,
    ) -> AttackReport {
        AttackReport {
            outcome,
            elapsed: self.budget.clock.now().duration_since(self.start),
            iterations: self.iterations,
            bound,
            stats: solver.map(|s| s.stats().into()).unwrap_or_default(),
        }
    }
}
