//! Armed-subsystem flags for `/healthz` triage.
//!
//! `detdiv-scope`'s liveness endpoint reports which optional
//! subsystems are active in the process it is introspecting. The fault
//! and flight answers come from their own crates; the serve and
//! stream-scoring answers are plain process facts kept here (this crate
//! sits below scope and eval in the dependency graph, so it is the
//! natural meeting point): scope mirrors whether it serves, and eval's
//! stream-scoring switch *is* the flag below.

use std::sync::atomic::{AtomicBool, Ordering};

static STREAM_SCORING: AtomicBool = AtomicBool::new(false);
static SERVING: AtomicBool = AtomicBool::new(false);

/// Sets the evaluation layer's stream-scoring switch
/// (`regenerate --stream` / `DETDIV_STREAM`).
pub fn set_stream_scoring(on: bool) {
    STREAM_SCORING.store(on, Ordering::Relaxed);
}

/// Whether the evaluation layer scores through the streaming adapter.
pub fn stream_scoring() -> bool {
    STREAM_SCORING.load(Ordering::Relaxed)
}

/// Mirrors whether a scope server is currently serving
/// (`DETDIV_SERVE`); set and cleared by `detdiv-scope`.
pub fn set_serving(on: bool) {
    SERVING.store(on, Ordering::Relaxed);
}

/// Which optional subsystems are armed right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subsystems {
    /// A scope metrics server is live.
    pub serve: bool,
    /// Coverage rows score through the streaming adapter.
    pub stream: bool,
    /// A `detdiv-resil` fault plan is armed.
    pub fault: bool,
    /// The flight recorder is armed.
    pub flight: bool,
}

/// Snapshot of the armed-subsystem flags.
pub fn subsystems() -> Subsystems {
    Subsystems {
        serve: SERVING.load(Ordering::Relaxed),
        stream: stream_scoring(),
        fault: detdiv_resil::armed(),
        flight: crate::armed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_reflect_their_setters() {
        let _guard = crate::test_lock();
        set_stream_scoring(true);
        set_serving(true);
        let s = subsystems();
        assert!(s.serve && s.stream);
        set_stream_scoring(false);
        set_serving(false);
        let s = subsystems();
        assert!(!s.serve && !s.stream);
    }
}
