//! `detdiv-resil`: supervised fault-tolerant execution for the detdiv
//! workspace, free of any dependency (std only).
//!
//! The paper's evaluation methodology stands or falls with the
//! trustworthiness of every (AS × DW) cell in its coverage grids: a
//! sweep that dies at cell 4,000 of 4,400 throws everything away, and a
//! torn `paper_report.json` silently corrupts the record. This crate
//! makes failure handling a first-class, *tested* subsystem:
//!
//! 1. **Deterministic fault injection** ([`FaultPlan`], [`point`],
//!    [`io_point`]) — a seeded plan armed via the
//!    `DETDIV_FAULT=seed:rate:kinds[:stall_ms]` environment variable
//!    (or programmatically) injects panics, synthetic I/O errors, and
//!    artificial stalls at named sites. Every injection decision is a
//!    pure function of `(seed, site, hit-index)`, so chaos runs are
//!    exactly replayable: the same seed trips the same hits of the same
//!    sites in a serial run, and the same *multiset* of per-site
//!    decisions at any thread count. Disarmed, a site costs **one
//!    relaxed atomic load**.
//! 2. **Supervision** ([`supervised`], [`RetryPolicy`],
//!    [`CellOutcome`]) — wraps a unit of work in `catch_unwind` with
//!    bounded retry and exponential backoff. A poisoned cell degrades
//!    to a marked [`CellOutcome::Failed`] instead of killing the
//!    sweep. Supervision reads no clock.
//! 3. **Crash-safe outputs** ([`AtomicFile`]) — temp file + fsync +
//!    atomic rename, so no artifact can ever be observed half-written;
//!    [`AtomicFile::dry_run`] preflights a destination by opening the
//!    very temp path a later write will use.
//! 4. **Checkpoint journal** ([`Journal`]) — an append-only, per-line
//!    checksummed log that survives `SIGKILL` mid-append (a torn tail
//!    line is detected and discarded on load), the substrate for
//!    `regenerate --resume`.
//!
//! Process-wide injection/supervision counters are available through
//! [`stats`] regardless of any telemetry switch; the evaluation layer
//! mirrors them into the run's `TelemetrySnapshot` as `resil/…`.
//!
//! # Example
//!
//! ```
//! use detdiv_resil as resil;
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! // A flaky job that fails twice, then succeeds: supervision retries
//! // it to completion and reports how many retries were needed.
//! let attempts = AtomicU32::new(0);
//! let outcome = resil::supervised("demo/flaky", &resil::RetryPolicy::default(), || {
//!     if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
//!         panic!("transient");
//!     }
//!     42
//! });
//! match outcome {
//!     resil::CellOutcome::Ok { value, retries } => {
//!         assert_eq!(value, 42);
//!         assert_eq!(retries, 2);
//!     }
//!     resil::CellOutcome::Failed { .. } => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod atomic_file;
mod fault;
mod fnv;
mod journal;
mod supervise;

pub use atomic_file::AtomicFile;
pub use fault::{
    arm, arm_from_env, armed, disarm, io_point, point, suppress, would_inject, FaultKind,
    FaultPlan, SuppressGuard,
};
pub use fnv::{fnv1a, Fnv1a};
pub use journal::{checksum_line, Journal};
pub use supervise::{
    clear_failure_observer, set_failure_observer, supervised, CellOutcome, FailureObserver,
    RetryPolicy,
};

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide fault-injection and supervision counters, independent
/// of any telemetry switch. Mirror these into `detdiv-obs` counters at
/// the layer that depends on both crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilStats {
    /// Panics injected by [`point`] / [`io_point`].
    pub injected_panics: u64,
    /// Synthetic I/O errors injected by [`io_point`].
    pub injected_io_errors: u64,
    /// Artificial stalls injected by [`point`] / [`io_point`].
    pub injected_stalls: u64,
    /// Units of work run under [`supervised`].
    pub supervised_cells: u64,
    /// Retries performed across all supervised units.
    pub retries: u64,
    /// Supervised units that exhausted their retry budget and degraded
    /// to [`CellOutcome::Failed`].
    pub degraded_cells: u64,
}

#[derive(Debug, Default)]
pub(crate) struct StatCells {
    pub injected_panics: AtomicU64,
    pub injected_io_errors: AtomicU64,
    pub injected_stalls: AtomicU64,
    pub supervised_cells: AtomicU64,
    pub retries: AtomicU64,
    pub degraded_cells: AtomicU64,
}

pub(crate) fn cells() -> &'static StatCells {
    static CELLS: StatCells = StatCells {
        injected_panics: AtomicU64::new(0),
        injected_io_errors: AtomicU64::new(0),
        injected_stalls: AtomicU64::new(0),
        supervised_cells: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        degraded_cells: AtomicU64::new(0),
    };
    &CELLS
}

/// Freezes the process-wide counters.
pub fn stats() -> ResilStats {
    let c = cells();
    ResilStats {
        injected_panics: c.injected_panics.load(Ordering::Relaxed),
        injected_io_errors: c.injected_io_errors.load(Ordering::Relaxed),
        injected_stalls: c.injected_stalls.load(Ordering::Relaxed),
        supervised_cells: c.supervised_cells.load(Ordering::Relaxed),
        retries: c.retries.load(Ordering::Relaxed),
        degraded_cells: c.degraded_cells.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide counters (per-site hit indices are *not*
/// reset — use [`reset_all`] for that).
pub fn reset_stats() {
    let c = cells();
    c.injected_panics.store(0, Ordering::Relaxed);
    c.injected_io_errors.store(0, Ordering::Relaxed);
    c.injected_stalls.store(0, Ordering::Relaxed);
    c.supervised_cells.store(0, Ordering::Relaxed);
    c.retries.store(0, Ordering::Relaxed);
    c.degraded_cells.store(0, Ordering::Relaxed);
}

/// [`reset_stats`] plus a reset of every per-site hit index, so a new
/// chaos run replays the fault plan from hit 0.
pub fn reset_all() {
    reset_stats();
    fault::reset_hits();
}
