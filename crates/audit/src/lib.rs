//! # mascot-audit — cross-layer correctness tooling
//!
//! Every paper-facing number in this repository rests on the cycle-level
//! engine in `mascot-sim` and the predictors behind it. This crate is the
//! validation layer that keeps those numbers trustworthy (DESIGN.md §8):
//!
//! * [`runner`] — drives [`mascot_sim::Simulator`] with its cycle auditor
//!   enabled and converts audit panics (and watchdog hangs) into values, so
//!   soaks and shrink loops can treat "the engine is broken on this trace"
//!   as an ordinary result.
//! * [`differential`] — replays the same trace twice and diffs the
//!   statistics and a behavioral fingerprint of the final predictor state
//!   (catching nondeterminism), and walks `MascotMdpOnly` against full
//!   MASCOT in lockstep, where every prediction must agree modulo bypass
//!   demotion.
//! * [`shrink`](mod@shrink) — delta-debugs a failing trace down to a minimal repro,
//!   renormalizing ground-truth dependence annotations after every cut so
//!   each candidate is a well-formed trace, and writes the result as an
//!   `.mtrc` artifact with a one-line reproduction command.
//!
//! The `audit-soak` binary wires the three together over every workload
//! profile (seeded, offline); `scripts/check.sh` runs a bounded soak on
//! every change.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod differential;
pub mod runner;
pub mod shrink;

pub use differential::{
    check_batch_equivalence, check_determinism, check_mdp_agreement, check_sampled_determinism,
    check_snapshot_roundtrip, fingerprint, DiffError,
};
pub use runner::{run_audited, run_audited_with, AuditFailure};
pub use shrink::{renormalize, shrink, write_repro};
