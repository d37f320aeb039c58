//! # hetfeas-robust
//!
//! Hardened-execution substrate for the `hetfeas` workspace: execution
//! budgets, deterministic fault injection and panic firewalls.
//!
//! Exact feasibility for sporadic systems is coNP-hard already on one
//! processor, so worst-case blowup in the exact oracles, the QPA/RTA fixed
//! points and the simplex LP is inherent — it must be *budgeted*, not hoped
//! away. This crate provides the three pieces the rest of the workspace
//! threads through its potentially-unbounded loops:
//!
//! * [`Budget`] / [`Gas`] — a declarative budget (wall-clock deadline,
//!   operation cap, cooperative cancellation flag) and the per-computation
//!   meter derived from it. The meter's [`Gas::tick`] is a decrement plus a
//!   branch; the clock and the cancellation flag are only polled every
//!   ~1024 ticks, so metered loops stay within noise of their unmetered
//!   selves. Exhaustion is a value ([`Exhaustion`]), never a panic.
//! * [`FaultPlan`] — deterministic adversarial instance generation
//!   (near-max periods, degenerate speeds, zero-slack deadlines,
//!   LP-cycling and exact-search-blowup instances) for the no-panic
//!   battery and the CI fault-smoke stage.
//! * [`Backoff`] — capped exponential backoff with deterministic seeded
//!   jitter: the delay for attempt `k` is a pure function of
//!   `(seed, k)`, so retry schedules (journal IO, supervised shard
//!   restarts) replay bit-identically under test.
//! * [`firewall::guard`] — a `catch_unwind` wrapper that converts a panic
//!   in one sweep cell into a reportable [`PanicReport`] and a
//!   `robust.panics` counter increment instead of aborting the run.
//! * [`journal`] — crash-safe durability primitives: CRC32-framed
//!   write-ahead journal records, torn-tail-tolerant recovery scans,
//!   atomic temp-file-then-rename replacement, deterministic IO fault
//!   injection ([`FaultFs`]) and gas-budgeted retry-with-backoff for
//!   transient IO errors.
//!
//! Metric names for the robustness counters live in [`metrics`].

#![warn(missing_docs)]

pub mod backoff;
pub mod budget;
pub mod fault;
pub mod firewall;
pub mod journal;
pub mod metrics;

pub use backoff::Backoff;
pub use budget::{Budget, Exhaustion, Gas, SharedBudget, SharedGas};
pub use fault::{FaultCase, FaultKind, FaultPlan};
pub use firewall::{guard, guard_with, PanicReport};
pub use journal::{
    atomic_write, FaultFs, FaultScript, FileStorage, Journal, JournalError, MemStorage, Storage,
    TailReport,
};
