//! Per-stream detector banks: per-slot panic isolation and degradation
//! accounting, plus the multi-stream engine that routes to them.
//!
//! A [`Bank`] is one stream's tier-2 detectors. Each slot's `update`
//! runs under `catch_unwind`: a panicking detector must not take down
//! its siblings or the process, so a panic permanently degrades that
//! one slot (subsequent events skip it) and [`Bank::push`] reports it
//! for the caller to count. When a [`detdiv_resil`] fault plan is
//! armed, every update passes the `stream/update` fault site first, so
//! chaos runs exercise exactly this isolation path.
//!
//! A [`StreamEngine`] keeps one bank per distinct stream id (built
//! lazily by the factory the engine was constructed with) and routes
//! each pushed [`SignalContext`] to its stream's bank by the pre-hashed
//! id — interleaved multi-stream feeds keep every stream's warmup and
//! window state independent, exactly as if each stream were fed alone.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use detdiv_flight::streams::StreamStats;

use crate::context::{DetectionResult, SignalContext};
use crate::detector::StreamDetector;

/// One detector verdict routed back to the caller by [`Bank::push`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotResult {
    /// Index of the emitting detector within its stream's bank (banks
    /// are built by one factory, so the index identifies the detector
    /// across streams).
    pub slot: usize,
    /// The verdict.
    pub result: DetectionResult,
}

struct Slot {
    detector: Box<dyn StreamDetector>,
    degraded: bool,
}

/// One slot's captured state in a bank snapshot: the degraded flag
/// plus the detector's serialized per-stream state (`None` when the
/// detector is not snapshotable — that slot restarts from warmup on
/// [`Bank::restore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotState {
    /// Whether the slot had been permanently degraded by a caught
    /// panic when the snapshot was taken.
    pub degraded: bool,
    /// [`StreamDetector::state_bytes`] at snapshot time.
    pub state: Option<Vec<u8>>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("detector", &self.detector.name())
            .field("degraded", &self.degraded)
            .finish()
    }
}

/// One stream's tier-2 detectors plus its cached introspection handle.
/// The handle is resolved once (when the registry is enabled), so the
/// per-event hot path updates atomics without ever touching the
/// registry lock.
///
/// # Examples
///
/// ```
/// use detdiv_stream::{hash_stream_id, Bank, Ewma, SignalContext, StreamDetector};
/// use detdiv_sequence::Symbol;
///
/// let stream = hash_stream_id("host-a");
/// let mut bank = Bank::new(stream, vec![Box::new(Ewma::new(0.1, 4)) as Box<dyn StreamDetector>]);
/// let mut out = Vec::new();
/// for i in 0..8 {
///     let degraded = bank.push(&SignalContext::new(i, stream, Symbol::new(0), 5.0), &mut out);
///     assert_eq!(degraded, 0);
/// }
/// assert_eq!(out.len(), 4); // events 0..=3 were warmup; 4.. score
/// ```
#[derive(Debug)]
pub struct Bank {
    slots: Vec<Slot>,
    stats: Option<Arc<StreamStats>>,
}

impl Bank {
    /// A bank of `detectors` for the stream `stream_id_hash`.
    pub fn new(stream_id_hash: u64, detectors: Vec<Box<dyn StreamDetector>>) -> Bank {
        Bank {
            slots: detectors
                .into_iter()
                .map(|detector| Slot {
                    detector,
                    degraded: false,
                })
                .collect(),
            stats: detdiv_flight::streams::handle(stream_id_hash),
        }
    }

    /// Feeds one event to every live slot, appending every emitted
    /// verdict to `out` (which is *not* cleared — callers own the
    /// buffer so the steady-state hot path performs no allocation).
    /// Returns how many slots this event newly degraded.
    ///
    /// A slot whose detector panics is degraded: the panic is caught,
    /// reported, and the slot skips all subsequent events. `push`
    /// itself never panics on detector failure.
    pub fn push(&mut self, ctx: &SignalContext, out: &mut Vec<SlotResult>) -> u64 {
        // The registry can be enabled after a stream's first contact
        // (scope starting mid-run); re-resolve lazily, but only when
        // enabled — the disarmed path stays atomic-load cheap.
        if self.stats.is_none() && detdiv_flight::streams::enabled() {
            self.stats = detdiv_flight::streams::handle(ctx.stream_id_hash);
        }
        if let Some(stats) = &self.stats {
            stats.on_event(ctx.seq);
        }
        let flight = detdiv_flight::armed();
        let label = if flight {
            self.stats
                .as_ref()
                .map(|s| s.label_string())
                .unwrap_or_default()
        } else {
            String::new()
        };
        let mut newly_degraded = 0u64;
        for (slot_index, slot) in self.slots.iter_mut().enumerate() {
            if slot.degraded {
                continue;
            }
            let update = catch_unwind(AssertUnwindSafe(|| {
                if detdiv_resil::armed() {
                    detdiv_resil::point("stream/update");
                }
                slot.detector.update(ctx)
            }));
            match update {
                Ok(Some(result)) => {
                    if let Some(stats) = &self.stats {
                        stats.on_emit(result.score);
                    }
                    if flight {
                        detdiv_flight::record(
                            detdiv_flight::StreamRecord {
                                stream_label: &label,
                                stream_hash: ctx.stream_id_hash,
                                slot: slot_index,
                                detector: slot.detector.name(),
                                event_index: ctx.seq,
                                score: result.score,
                                confidence: result.confidence,
                                reason: result.reason,
                                warmup: false,
                            }
                            .render(),
                        );
                    }
                    out.push(SlotResult {
                        slot: slot_index,
                        result,
                    });
                }
                Ok(None) => {
                    // Warmup absorption is a decision too: the audit
                    // log shows *why* no verdict was emitted.
                    if flight {
                        detdiv_flight::record(
                            detdiv_flight::StreamRecord {
                                stream_label: &label,
                                stream_hash: ctx.stream_id_hash,
                                slot: slot_index,
                                detector: slot.detector.name(),
                                event_index: ctx.seq,
                                score: 0.0,
                                confidence: 0.0,
                                reason: "warmup",
                                warmup: true,
                            }
                            .render(),
                        );
                    }
                }
                Err(_) => {
                    slot.degraded = true;
                    newly_degraded += 1;
                    if let Some(stats) = &self.stats {
                        stats.on_degraded();
                    }
                    if flight {
                        detdiv_flight::record(
                            detdiv_flight::DegradedRecord {
                                stream_label: &label,
                                stream_hash: ctx.stream_id_hash,
                                slot: slot_index,
                                detector: slot.detector.name(),
                                event_index: ctx.seq,
                            }
                            .render(),
                        );
                    }
                }
            }
        }
        if newly_degraded > 0 {
            if detdiv_obs::telemetry_enabled() {
                detdiv_obs::incr_counter("stream/degraded", newly_degraded);
            }
            // Every degradation leaves a post-mortem artifact: dump the
            // crash ring (no-op unless the flight recorder is armed
            // with a path). The panic hook already dumped once at the
            // panic itself; this second dump also captures the
            // `degraded` record emitted above.
            detdiv_flight::blackbox::dump_on_degradation();
        }
        newly_degraded
    }

    /// Captures the bank's per-slot state: each slot's degraded flag
    /// plus its detector's [`StreamDetector::state_bytes`] (which is
    /// `None` for non-snapshotable detectors — such slots restart from
    /// warmup on restore).
    pub fn snapshot(&self) -> Vec<SlotState> {
        self.slots
            .iter()
            .map(|slot| SlotState {
                degraded: slot.degraded,
                state: slot.detector.state_bytes(),
            })
            .collect()
    }

    /// Restores a freshly built bank from [`snapshot`](Bank::snapshot)
    /// state: each slot's degraded flag and detector state. Returns
    /// `false` — leaving the bank unchanged — when the snapshot's slot
    /// count does not match (the bank composition changed since the
    /// snapshot was taken).
    ///
    /// A slot whose `state` is `None`, or whose bytes the detector
    /// rejects, starts cold (from warmup): recovery degrades to a
    /// restart for that slot, never to wrong state.
    pub fn restore(&mut self, saved: &[SlotState]) -> bool {
        if self.slots.len() != saved.len() {
            return false;
        }
        for (slot, saved) in self.slots.iter_mut().zip(saved) {
            slot.degraded = saved.degraded;
            if let Some(bytes) = &saved.state {
                // A rejected payload leaves the detector reset: the
                // restore_state contract.
                let _ = slot.detector.restore_state(bytes);
            }
        }
        true
    }
}

/// A push-based engine fanning each event out to a per-stream [`Bank`].
///
/// # Examples
///
/// ```
/// use detdiv_stream::{hash_stream_id, Ewma, SignalContext, StreamDetector, StreamEngine};
/// use detdiv_sequence::Symbol;
///
/// let mut engine = StreamEngine::new(|| {
///     vec![Box::new(Ewma::new(0.1, 4)) as Box<dyn StreamDetector>]
/// });
/// let stream = hash_stream_id("host-a");
/// let mut out = Vec::new();
/// for i in 0..8 {
///     let ctx = SignalContext::new(i, stream, Symbol::new(0), 5.0);
///     engine.push(&ctx, &mut out);
/// }
/// assert_eq!(out.len(), 4); // events 0..=3 were warmup; 4.. score
/// assert_eq!(engine.stream_count(), 1);
/// ```
pub struct StreamEngine<F>
where
    F: FnMut() -> Vec<Box<dyn StreamDetector>>,
{
    factory: F,
    banks: HashMap<u64, Bank>,
    degraded: u64,
}

impl<F> std::fmt::Debug for StreamEngine<F>
where
    F: FnMut() -> Vec<Box<dyn StreamDetector>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEngine")
            .field("streams", &self.banks.len())
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl<F> StreamEngine<F>
where
    F: FnMut() -> Vec<Box<dyn StreamDetector>>,
{
    /// Creates an engine whose per-stream banks are built by `factory`
    /// on first contact with each stream id.
    pub fn new(factory: F) -> StreamEngine<F> {
        StreamEngine {
            factory,
            banks: HashMap::new(),
            degraded: 0,
        }
    }

    /// Routes one event to its stream's bank ([`Bank::push`]).
    pub fn push(&mut self, ctx: &SignalContext, out: &mut Vec<SlotResult>) {
        let factory = &mut self.factory;
        let bank = self
            .banks
            .entry(ctx.stream_id_hash)
            .or_insert_with(|| Bank::new(ctx.stream_id_hash, factory()));
        self.degraded += bank.push(ctx, out);
    }

    /// Number of distinct streams seen so far.
    pub fn stream_count(&self) -> usize {
        self.banks.len()
    }

    /// Number of slots permanently degraded by a caught panic.
    pub fn degraded_slots(&self) -> u64 {
        self.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::hash_stream_id;
    use crate::online::Ewma;
    use detdiv_sequence::Symbol;

    /// A detector that panics on a chosen event value.
    #[derive(Debug)]
    struct Grenade {
        trigger: f64,
    }

    impl StreamDetector for Grenade {
        fn name(&self) -> &str {
            "grenade"
        }

        fn warmup_len(&self) -> usize {
            0
        }

        fn update(&mut self, ctx: &SignalContext) -> Option<DetectionResult> {
            assert!(ctx.value != self.trigger, "boom");
            Some(DetectionResult::certain(0.0, "calm"))
        }

        fn reset(&mut self) {}
    }

    fn bank() -> Vec<Box<dyn StreamDetector>> {
        vec![
            Box::new(Grenade { trigger: 13.0 }),
            Box::new(Ewma::new(0.1, 2)),
        ]
    }

    #[test]
    fn interleaved_streams_warm_up_independently() {
        let mut engine =
            StreamEngine::new(|| vec![Box::new(Ewma::new(0.1, 3)) as Box<dyn StreamDetector>]);
        let a = hash_stream_id("a");
        let b = hash_stream_id("b");
        let mut out = Vec::new();
        // Interleave: a gets 4 events (1 verdict), b gets 2 (0 verdicts).
        for i in 0..4u64 {
            engine.push(&SignalContext::new(i, a, Symbol::new(0), 1.0), &mut out);
            if i < 2 {
                engine.push(&SignalContext::new(i, b, Symbol::new(0), 1.0), &mut out);
            }
        }
        assert_eq!(engine.stream_count(), 2);
        assert_eq!(out.len(), 1, "only stream a is past warmup");
    }

    #[test]
    fn a_panicking_slot_degrades_alone_and_stays_down() {
        let mut engine = StreamEngine::new(bank);
        let s = hash_stream_id("s");
        let mut out = Vec::new();
        for (i, v) in [1.0, 2.0, 13.0, 4.0, 5.0].iter().enumerate() {
            engine.push(
                &SignalContext::new(i as u64, s, Symbol::new(0), *v),
                &mut out,
            );
        }
        assert_eq!(engine.degraded_slots(), 1);
        // The grenade emitted for events 0..=1, then died; the EWMA
        // (warmup 2) emitted for events 2..=4 regardless.
        let grenade_emissions = out.iter().filter(|r| r.slot == 0).count();
        let ewma_emissions = out.iter().filter(|r| r.slot == 1).count();
        assert_eq!(grenade_emissions, 2);
        assert_eq!(ewma_emissions, 3);
        // The same trigger value again must not re-panic (slot skipped).
        engine.push(&SignalContext::new(5, s, Symbol::new(0), 13.0), &mut out);
        assert_eq!(engine.degraded_slots(), 1);
    }

    #[test]
    fn degradation_is_per_stream() {
        let mut engine = StreamEngine::new(bank);
        let mut out = Vec::new();
        engine.push(
            &SignalContext::new(0, hash_stream_id("dies"), Symbol::new(0), 13.0),
            &mut out,
        );
        engine.push(
            &SignalContext::new(0, hash_stream_id("lives"), Symbol::new(0), 1.0),
            &mut out,
        );
        assert_eq!(engine.degraded_slots(), 1);
        // The healthy stream's grenade slot still emits.
        assert!(out.iter().any(|r| r.slot == 0));
    }

    #[test]
    fn enabled_registry_tracks_events_alarms_and_degradations() {
        let mut engine = StreamEngine::new(bank);
        detdiv_flight::streams::set_enabled(true);
        let s = hash_stream_id("engine-registry");
        detdiv_flight::streams::label(s, "engine-registry");
        let mut out = Vec::new();
        // Grenade emits score 0.0 for events 0..=1, dies at 13.0; the
        // EWMA (warmup 2) emits thereafter.
        for (i, v) in [1.0, 2.0, 13.0, 4.0].iter().enumerate() {
            engine.push(
                &SignalContext::new(i as u64, s, Symbol::new(0), *v),
                &mut out,
            );
        }
        let snap = detdiv_flight::streams::snapshots()
            .into_iter()
            .find(|snap| snap.stream_hash == s)
            .expect("registry entry for the engine's stream");
        assert_eq!(snap.label, "engine-registry");
        assert_eq!(snap.events, 4);
        assert_eq!(snap.emitted, out.len() as u64);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.last_event_index, 3);
        assert!(detdiv_flight::streams::degraded_streams() >= 1);
        detdiv_flight::streams::set_enabled(false);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let s = hash_stream_id("resumable");
        let make = || {
            Bank::new(
                s,
                vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>],
            )
        };
        let values: Vec<f64> = (0..40).map(|i| ((i * 13) % 11) as f64).collect();
        let ctx = |i: usize, v: f64| SignalContext::new(i as u64, s, Symbol::new(0), v);
        // Uninterrupted reference run.
        let mut reference = make();
        let mut expected = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            reference.push(&ctx(i, v), &mut expected);
        }
        // Run half, snapshot, restore into a fresh bank, run the rest.
        let mut first = make();
        let mut out = Vec::new();
        for (i, &v) in values[..20].iter().enumerate() {
            first.push(&ctx(i, v), &mut out);
        }
        let saved = first.snapshot();
        let mut resumed = make();
        assert!(resumed.restore(&saved));
        let mut tail = Vec::new();
        for (i, &v) in values.iter().enumerate().skip(20) {
            resumed.push(&ctx(i, v), &mut tail);
        }
        let expected_tail: Vec<_> = expected[expected.len() - tail.len()..].to_vec();
        assert_eq!(tail.len(), expected_tail.len());
        for (a, b) in expected_tail.iter().zip(&tail) {
            assert_eq!(a.slot, b.slot);
            assert_eq!(a.result.score.to_bits(), b.result.score.to_bits());
        }
        // A shape-mismatched snapshot is refused, not half-applied.
        let mut other = Bank::new(s, bank());
        assert!(!other.restore(&saved));
        assert!(other.snapshot().iter().all(|slot| !slot.degraded));
    }

    #[test]
    fn restore_carries_degraded_flags() {
        let s = hash_stream_id("wounded");
        let mut wounded = Bank::new(s, bank());
        let mut out = Vec::new();
        let trigger = SignalContext::new(0, s, Symbol::new(0), 13.0);
        assert_eq!(wounded.push(&trigger, &mut out), 1);
        let saved = wounded.snapshot();
        assert!(saved[0].degraded && !saved[1].degraded);
        let mut recovered = Bank::new(s, bank());
        assert!(recovered.restore(&saved));
        assert_eq!(recovered.snapshot(), saved, "flag survives recovery");
        // The degraded slot stays down: its trigger value cannot re-panic,
        // and restoring reports no new degradation.
        assert_eq!(recovered.push(&trigger, &mut out), 0);
    }
}
