//! The push contract every streaming detector implements.

use crate::context::{DetectionResult, SignalContext};

/// A detector consuming one event at a time.
///
/// Implementations are owned by a single stream (each stream gets its
/// own [`crate::Bank`]), so `update` takes `&mut self`; `Send` lets
/// banks migrate across worker threads.
///
/// ## Warmup
///
/// Warmup is explicit: `update` returns `None` for exactly the first
/// [`warmup_len`](StreamDetector::warmup_len) events of a stream and
/// `Some` for every event after. Callers therefore never see a score
/// invented from insufficient state — a sliding-window adapter stays
/// silent until its first full window, an EWMA until its running mean
/// means something.
///
/// ## Score contract
///
/// Every emitted [`DetectionResult`] carries `score` and `confidence`
/// in `[0, 1]` and a static `reason`. Determinism is part of the
/// contract: feeding the same event sequence into a freshly constructed
/// detector must reproduce results bit-identically (the differential
/// suite enforces this for every implementation shipped here).
pub trait StreamDetector: Send {
    /// Stable name of the detector (used in telemetry and reports).
    fn name(&self) -> &str;

    /// Number of leading events consumed silently before the first
    /// `Some` verdict.
    fn warmup_len(&self) -> usize;

    /// Consumes one event; returns a verdict once warm.
    fn update(&mut self, ctx: &SignalContext) -> Option<DetectionResult>;

    /// Forgets all per-stream state, returning the detector to its
    /// pre-warmup condition (trained model state, if any, is retained).
    fn reset(&mut self);

    /// Serializes the detector's *per-stream* state (never trained
    /// model weights — those are reconstructed by the bank factory on
    /// restore). `None` means the detector is not snapshotable; a
    /// snapshotting caller must treat such a slot as starting from
    /// warmup after recovery.
    ///
    /// The contract, enforced by the serve recovery suite: feeding
    /// events `0..k`, calling `state_bytes`, constructing a fresh
    /// detector from the same factory, restoring, and feeding events
    /// `k..n` must reproduce the uninterrupted run's verdicts
    /// bit-identically.
    fn state_bytes(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by
    /// [`state_bytes`](StreamDetector::state_bytes) into a freshly
    /// constructed detector. Returns `false` (leaving the detector
    /// reset) when the bytes do not parse — a snapshot from a
    /// different detector or version is degraded to a cold start, not
    /// a panic.
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let _ = bytes;
        false
    }

    /// Upper bound on the size of the buffer
    /// [`state_bytes`](StreamDetector::state_bytes) would return, in
    /// bytes. The guard layer sums this across resident detectors to
    /// estimate memory pressure without serializing anything, so the
    /// bound must be cheap and deterministic. The default (64) covers
    /// small fixed-size states and non-snapshotable detectors.
    fn state_bytes_cap(&self) -> usize {
        64
    }
}

impl<D: StreamDetector + ?Sized> StreamDetector for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn warmup_len(&self) -> usize {
        (**self).warmup_len()
    }

    fn update(&mut self, ctx: &SignalContext) -> Option<DetectionResult> {
        (**self).update(ctx)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn state_bytes(&self) -> Option<Vec<u8>> {
        (**self).state_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        (**self).restore_state(bytes)
    }

    fn state_bytes_cap(&self) -> usize {
        (**self).state_bytes_cap()
    }
}
