//! The labeled per-stream statistics registry behind `GET /streams`.
//!
//! The streaming engine owns per-stream detector banks; this registry
//! owns the *observable* side: per-stream event/verdict/alarm/
//! degradation counts, the last score seen, and a human label. Entries
//! are `Arc`-shared — the engine caches its stream's handle on first
//! contact, so the steady-state hot path touches only atomics, never
//! the registry lock.
//!
//! The registry is populated when it is **enabled** ([`set_enabled`],
//! flipped by `detdiv-scope` while serving) *or* the flight recorder is
//! armed; otherwise [`handle`] returns `None` and the engine pays one
//! relaxed load per stream creation. A `BTreeMap` keyed by the stream
//! hash keeps [`snapshots`] in deterministic order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A score at or above this is an alarm (the maximal-response
/// convention: adapter scores cap at 1.0 exactly when the batch
/// detector's alarm floor is met).
pub const ALARM_SCORE: f64 = 1.0;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn map() -> &'static Mutex<BTreeMap<u64, Arc<StreamStats>>> {
    static MAP: OnceLock<Mutex<BTreeMap<u64, Arc<StreamStats>>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Live counters for one stream, shared between the engine (writer)
/// and the introspection endpoints (readers). All fields are atomics;
/// no lock is held while updating.
#[derive(Debug, Default)]
pub struct StreamStats {
    label: Mutex<String>,
    events: AtomicU64,
    emitted: AtomicU64,
    alarms: AtomicU64,
    degraded: AtomicU64,
    /// `f64::to_bits` of the most recent score.
    last_score_bits: AtomicU64,
    last_event_index: AtomicU64,
}

impl StreamStats {
    /// Counts one routed event.
    pub fn on_event(&self, event_index: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.last_event_index.store(event_index, Ordering::Relaxed);
    }

    /// Counts one emitted verdict (and an alarm when the score reaches
    /// [`ALARM_SCORE`]).
    pub fn on_emit(&self, score: f64) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        self.last_score_bits
            .store(score.to_bits(), Ordering::Relaxed);
        if score >= ALARM_SCORE {
            self.alarms.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one permanently degraded slot.
    pub fn on_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// The stream's label (empty until [`label`] assigns one).
    pub fn label_string(&self) -> String {
        self.label
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A point-in-time copy of one stream's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// The pre-hashed stream id the engine routes by.
    pub stream_hash: u64,
    /// Human label, or `""` when never labeled.
    pub label: String,
    /// Events routed to this stream.
    pub events: u64,
    /// Verdicts emitted across the stream's bank.
    pub emitted: u64,
    /// Emitted verdicts whose score reached [`ALARM_SCORE`].
    pub alarms: u64,
    /// Slots permanently degraded by a caught panic.
    pub degraded: u64,
    /// The most recent emitted score.
    pub last_score: f64,
    /// Sequence number of the most recent routed event.
    pub last_event_index: u64,
}

/// Whether the registry is populated: enabled explicitly (scope is
/// serving) or implicitly by an armed flight recorder.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || crate::armed()
}

/// Enables or disables registry population. `detdiv-scope` enables it
/// for the lifetime of its server so `/streams` has data even when the
/// flight recorder is disarmed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Returns (creating if needed) the stats handle for `stream_hash`, or
/// `None` while the registry is disabled. The engine caches the handle
/// per stream, so this lock is taken once per stream lifetime, not per
/// event.
pub fn handle(stream_hash: u64) -> Option<Arc<StreamStats>> {
    if !enabled() {
        return None;
    }
    let mut map = map().lock().unwrap_or_else(PoisonError::into_inner);
    Some(Arc::clone(map.entry(stream_hash).or_default()))
}

/// Assigns a human label to a stream (creating its entry if the
/// registry is enabled); harness binaries call this right after
/// hashing the id so `/streams` shows names, not just hashes.
pub fn label(stream_hash: u64, label: &str) {
    if let Some(stats) = handle(stream_hash) {
        *stats.label.lock().unwrap_or_else(PoisonError::into_inner) = label.to_owned();
    }
}

/// Point-in-time snapshots of every known stream, ascending by stream
/// hash (deterministic order for rendering and tests).
pub fn snapshots() -> Vec<StreamSnapshot> {
    let map = map().lock().unwrap_or_else(PoisonError::into_inner);
    map.iter()
        .map(|(&stream_hash, stats)| StreamSnapshot {
            stream_hash,
            label: stats.label_string(),
            events: stats.events.load(Ordering::Relaxed),
            emitted: stats.emitted.load(Ordering::Relaxed),
            alarms: stats.alarms.load(Ordering::Relaxed),
            degraded: stats.degraded.load(Ordering::Relaxed),
            last_score: f64::from_bits(stats.last_score_bits.load(Ordering::Relaxed)),
            last_event_index: stats.last_event_index.load(Ordering::Relaxed),
        })
        .collect()
}

/// Number of streams with at least one degraded slot — the `/healthz`
/// triage number.
pub fn degraded_streams() -> u64 {
    let map = map().lock().unwrap_or_else(PoisonError::into_inner);
    map.values()
        .filter(|s| s.degraded.load(Ordering::Relaxed) > 0)
        .count() as u64
}

/// Drops every registry entry and disables population (test hook).
pub fn reset() {
    set_enabled(false);
    map().lock().unwrap_or_else(PoisonError::into_inner).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_nothing() {
        let _guard = crate::test_lock();
        reset();
        crate::disarm();
        assert!(handle(1).is_none());
        assert!(snapshots().is_empty());
    }

    #[test]
    fn counters_accumulate_and_snapshot_in_hash_order() {
        let _guard = crate::test_lock();
        reset();
        set_enabled(true);
        let b = handle(0xbbb).unwrap();
        let a = handle(0xaaa).unwrap();
        label(0xaaa, "host-a");
        a.on_event(0);
        a.on_emit(1.0);
        a.on_event(1);
        a.on_emit(0.2);
        b.on_event(0);
        b.on_degraded();
        let snaps = snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].stream_hash, 0xaaa, "ascending hash order");
        assert_eq!(snaps[0].label, "host-a");
        assert_eq!(snaps[0].events, 2);
        assert_eq!(snaps[0].emitted, 2);
        assert_eq!(snaps[0].alarms, 1, "only the 1.0 score alarmed");
        assert_eq!(snaps[0].last_score, 0.2);
        assert_eq!(snaps[1].degraded, 1);
        assert_eq!(degraded_streams(), 1);
        reset();
    }

    #[test]
    fn handles_are_shared_per_stream() {
        let _guard = crate::test_lock();
        reset();
        set_enabled(true);
        let one = handle(7).unwrap();
        let two = handle(7).unwrap();
        assert!(Arc::ptr_eq(&one, &two));
        reset();
    }
}
