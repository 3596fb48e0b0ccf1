//! Armed-subsystem flags for `/healthz` triage.
//!
//! `detdiv-scope`'s liveness endpoint reports which optional
//! subsystems are active in the process it is introspecting. The fault
//! and flight answers come from their own crates; whether a scope
//! server is serving is a plain process fact kept here (this crate
//! sits below scope in the dependency graph, so it is the natural
//! meeting point), mirrored by scope itself.

use std::sync::atomic::{AtomicBool, Ordering};

static SERVING: AtomicBool = AtomicBool::new(false);

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
    /// A `detdiv-resil` fault plan is armed.
    pub fault: bool,
    /// The flight recorder is armed.
    pub flight: bool,
}

/// Snapshot of the armed-subsystem flags.
pub fn subsystems() -> Subsystems {
    Subsystems {
        serve: SERVING.load(Ordering::Relaxed),
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
        set_serving(true);
        assert!(subsystems().serve);
        set_serving(false);
        assert!(!subsystems().serve);
    }
}
