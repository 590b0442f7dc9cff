//! Attacks on logic locking: the evaluation substrate of the Cute-Lock paper.
//!
//! The paper tests its locks against the NEOS attack suite (`bbo`, `int`,
//! KC2 modes), RANE, FALL and DANA — all external tools. This crate
//! re-implements the published algorithms on the workspace's own SAT solver
//! and simulators:
//!
//! * [`sat_attack`] — the combinational oracle-guided SAT attack
//!   (Subramanyan et al.), applied through the full-scan view;
//! * [`appsat`] — the AppSAT and Double-DIP variants on the same scan
//!   model;
//! * [`bmc`] — sequential unrolling attacks on one persistent incremental
//!   solver: NEOS `bbo` and `int`, KC2 key-condition crunching (Shamsi et
//!   al.), and the RANE model with a secret initial state;
//! * [`fall`] — FALL-style functional analysis (comparator detection +
//!   candidate extraction + SAT verification), oracle-less;
//! * [`dana`] — DANA-style dataflow register clustering, scored with
//!   [`dana::nmi`] against ground-truth register words;
//! * [`portfolio`] — deterministic portfolio racing: every oracle-guided
//!   attack accepts a [`Portfolio`] that races diversified solver clones
//!   per DIP/BMC query across [`Pool`](cutelock_sim::pool::Pool) threads
//!   (bit-identical for any thread count), and [`run_race`] races whole
//!   strategies with cooperative cancellation.
//!
//! Every oracle-guided attack is driven through **one door**: build an
//! [`AttackSpec`] (strategy + budget + portfolio) and call [`run_attack`]
//! — the request type the CLI subcommands, the table bins, and the
//! `cutelock serve` job daemon share. FALL additionally exposes
//! [`fall::fall_attack_with`] for callers that need its confirmed key list,
//! and DANA, which needs no oracle, runs on a bare netlist through
//! [`dana::dana_attack_with_budget`].
//!
//! The full pipeline walkthrough lives in `docs/ARCHITECTURE.md` at the
//! repository root; the determinism rules the portfolio layer upholds are
//! codified in `docs/DETERMINISM.md`.
//!
//! Every oracle-guided attack reports an [`AttackOutcome`] matching the
//! paper's table legend: key found (green), wrong key (`x..x`), `CNS`
//! ("condition not solvable"), `FAIL`, or timeout (`N/A`). Every attack —
//! including the oracle-less [`fall`] and [`dana`] — enforces
//! [`AttackBudget::timeout`] as a hard wall-clock deadline.
//!
//! None of these modules touch CNF directly: every miter — the scan-access
//! two-copy model, the frame-appending BMC chains, FALL's confirmation
//! check, and the certifier's unrolled equivalence instances — is built
//! through the unified encoding engine in
//! [`cutelock_sat::encode`]
//! ([`CircuitEncoder`](cutelock_sat::CircuitEncoder) /
//! [`MiterBuilder`](cutelock_sat::MiterBuilder)). The oracle-guided
//! attacks (scan SAT, AppSAT, Double-DIP, `bbo`/`int`, KC2, RANE) share one
//! crate-private DIP driver (`dip.rs`) that owns the hunt, the candidate
//! extraction and the report; each attack module supplies only its miter
//! model and its per-DIP step.
//!
//! # Example
//!
//! The oracle-less FALL attack breaks TTLock but finds nothing on
//! Cute-Lock (the paper's Table V contrast):
//!
//! ```
//! use cutelock_attacks::{run_attack, AttackOutcome, AttackSpec, AttackStrategy};
//! use cutelock_circuits::s27::s27;
//! use cutelock_core::baselines::TtLock;
//!
//! # fn main() -> Result<(), cutelock_core::LockError> {
//! let locked = TtLock::new(4, 3).lock(&s27())?;
//! let report = run_attack(&locked, &AttackSpec::new(AttackStrategy::Fall));
//! assert!(matches!(report.outcome, AttackOutcome::KeyFound(_)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appsat;
pub mod bmc;
pub mod certify;
pub mod dana;
mod dip;
pub mod fall;
mod outcome;
pub mod portfolio;
pub mod record;
pub mod sat_attack;
mod scan;
pub mod spec;

pub use outcome::{AttackBudget, AttackOutcome, AttackReport, RunStats};
pub use portfolio::Portfolio;
pub use record::{write_records, RunRecord};
pub use spec::{run_attack, run_race, simplify_locked, AttackSpec, AttackStrategy, RaceReport};
