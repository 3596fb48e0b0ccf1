//! Backpressure & degradation suite.
//!
//! Two service-level promises under stress:
//!
//! * **Backpressure is typed and deterministic** — a full shard queue
//!   rejects every further enqueue with the same
//!   [`RejectReason::QueueFull`], bumps the `serve/rejected` counter,
//!   and accepts again after a drain. No silent drops, no unbounded
//!   buffering.
//! * **Degradation is per-stream** — a panic inside a detector's
//!   `update` (the `stream/update` fault site) permanently degrades
//!   that one slot of that one stream; shard siblings keep serving and
//!   the blast radius is visible in `detdiv_flight::streams`.
//!
//! Fault arming and the flight streams registry are process-global, so
//! the tests that touch them serialize on a file-local mutex.

use std::sync::atomic::Ordering;
use std::sync::Mutex;

use detdiv_guard::GuardConfig;
use detdiv_sequence::Symbol;
use detdiv_serve::{
    IngestService, NullSink, RejectReason, ServeConfig, Tier1Config, VerdictEvent, VerdictSink,
};
use detdiv_stream::{hash_stream_id, DetectionResult, Ewma, SignalContext, StreamDetector};

/// Serializes tests that arm faults or reset the streams registry.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Escalates every stream on its first event: every event reaches the bank.
const ESCALATE_ALL: Tier1Config = Tier1Config {
    alpha: 0.3,
    warmup: 0,
    escalate_score: 0.0,
};

/// A detector that panics on one value — a stand-in for any buggy
/// detector; the panic surfaces on the same `stream/update` path the
/// chaos injector targets.
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

#[derive(Default)]
struct Collect(Mutex<Vec<VerdictEvent>>);

impl VerdictSink for Collect {
    fn on_verdict(&self, event: &VerdictEvent) {
        self.0.lock().unwrap().push(*event);
    }
}

#[test]
fn full_queue_rejects_deterministically_and_counts() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let rejected_before = detdiv_obs::snapshot().counter("serve/rejected");
    let service = IngestService::new(ServeConfig::new(1, 4), || {
        vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>]
    });
    let s = hash_stream_id("pressured");
    for i in 0..4u64 {
        service
            .enqueue(SignalContext::new(i, s, Symbol::new(0), 1.0))
            .expect("under capacity");
    }
    // Every further enqueue gets the identical typed reason — the
    // rejection is a pure function of queue state, not of timing.
    for i in 4..7u64 {
        let err = service
            .enqueue(SignalContext::new(i, s, Symbol::new(0), 1.0))
            .unwrap_err();
        assert_eq!(
            err,
            RejectReason::QueueFull {
                shard: 0,
                capacity: 4
            }
        );
    }
    assert_eq!(
        service.stats().shards[0].rejected.load(Ordering::Relaxed),
        3
    );
    assert_eq!(
        detdiv_obs::snapshot().counter("serve/rejected") - rejected_before,
        3,
        "rejections are observable on the serve/rejected counter"
    );
    // Queue contents were untouched by the rejections; a drain frees
    // capacity and the service accepts again.
    let summary = service.drain(&NullSink);
    assert_eq!(summary.processed, 4);
    assert!(service
        .enqueue(SignalContext::new(4, s, Symbol::new(0), 1.0))
        .is_ok());
}

/// Four producers race one drainer over two shards. `enqueued` and
/// `depth` are written only under the shard lock, by a load and a
/// store: the same update made after the unlock loses increments here.
#[test]
fn shard_counters_balance_under_concurrent_producers_and_a_drainer() {
    use std::sync::atomic::AtomicBool;
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    const SHARDS: usize = 2;
    let gate_only = Tier1Config {
        alpha: 0.3,
        warmup: 2,
        escalate_score: f64::INFINITY,
    };
    let service = IngestService::new(ServeConfig::new(SHARDS, 8192).gated(gate_only), || {
        vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>]
    });
    let streams: Vec<u64> = (0..64)
        .map(|i| hash_stream_id(&format!("racer-{i}")))
        .collect();
    let producing = AtomicBool::new(true);
    // All five threads start together, so the producers overlap.
    let start = std::sync::Barrier::new(5);
    let accepted = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            start.wait();
            while producing.load(Ordering::Relaxed) {
                service.drain(&NullSink);
            }
        });
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let (service, streams, start) = (&service, &streams, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut accepted = [0u64; SHARDS];
                    for i in 0..50_000u64 {
                        let stream = streams[(i as usize + 16 * p) % streams.len()];
                        let ctx = SignalContext::new(i, stream, Symbol::new(0), (i % 5) as f64);
                        if service.enqueue(ctx).is_ok() {
                            accepted[service.shard_of(stream)] += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let mut accepted = [0u64; SHARDS];
        for producer in producers {
            for (total, n) in accepted.iter_mut().zip(producer.join().unwrap()) {
                *total += n;
            }
        }
        producing.store(false, Ordering::Relaxed);
        drainer.join().unwrap();
        accepted
    });
    service.drain(&NullSink);
    for (index, shard) in service.stats().shards.iter().enumerate() {
        let enqueued = shard.enqueued.load(Ordering::Relaxed);
        assert!(accepted[index] > 0, "shard {index} took no event");
        assert_eq!(enqueued, accepted[index], "shard {index}: enqueued");
        assert_eq!(
            shard.processed.load(Ordering::Relaxed),
            enqueued,
            "shard {index}: processed"
        );
        assert_eq!(
            shard.depth.load(Ordering::Relaxed),
            0,
            "shard {index}: depth"
        );
    }
}

#[test]
fn panicking_stream_degrades_alone_while_shard_siblings_serve() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    detdiv_flight::streams::reset();
    detdiv_flight::streams::set_enabled(true);
    let degraded_before = detdiv_obs::snapshot().counter("serve/degraded");

    // One shard, so victim and sibling are shard-mates by construction.
    let service = IngestService::new(ServeConfig::new(1, 256).gated(ESCALATE_ALL), || {
        vec![
            Box::new(Grenade { trigger: 13.0 }) as Box<dyn StreamDetector>,
            Box::new(Ewma::new(0.2, 2)),
        ]
    });
    let victim = hash_stream_id("victim");
    let sibling = hash_stream_id("sibling");
    detdiv_flight::streams::label(victim, "victim");
    detdiv_flight::streams::label(sibling, "sibling");

    let sink = Collect::default();
    for i in 0..10u64 {
        let value = if i == 4 { 13.0 } else { 1.0 }; // grenade fires at seq 4
        service
            .enqueue(SignalContext::new(i, victim, Symbol::new(0), value))
            .unwrap();
        service
            .enqueue(SignalContext::new(i, sibling, Symbol::new(0), 1.0))
            .unwrap();
    }
    let summary = service.drain(&sink);
    assert_eq!(summary.processed, 20, "the panic consumed no events");
    assert_eq!(summary.degraded, 1, "exactly one slot degraded");
    assert_eq!(service.degraded_slots(), 1);
    assert_eq!(
        detdiv_obs::snapshot().counter("serve/degraded") - degraded_before,
        1
    );

    // Blast radius via the flight streams registry: the victim records
    // one degradation, the sibling none.
    let snaps = detdiv_flight::streams::snapshots();
    let victim_snap = snaps.iter().find(|s| s.stream_hash == victim).unwrap();
    let sibling_snap = snaps.iter().find(|s| s.stream_hash == sibling).unwrap();
    assert_eq!(victim_snap.label, "victim");
    assert_eq!(victim_snap.degraded, 1);
    assert_eq!(sibling_snap.degraded, 0);
    assert!(detdiv_flight::streams::degraded_streams() >= 1);

    // The sibling stream served every event (the escalating gate
    // verdict; grenade slot warmup 0 → 10 verdicts; EWMA warmup 2 → 8),
    // and even the victim's healthy EWMA slot kept serving after the
    // grenade died.
    let events = sink.0.lock().unwrap();
    let sibling_verdicts = events.iter().filter(|e| e.stream_hash == sibling).count();
    assert_eq!(sibling_verdicts, 19);
    let victim_ewma_after: Vec<u64> = events
        .iter()
        .filter(|e| e.stream_hash == victim && e.slot == 1 && e.seq > 4)
        .map(|e| e.seq)
        .collect();
    assert_eq!(victim_ewma_after, vec![5, 6, 7, 8, 9]);
    // …while the victim's grenade slot is silent after the panic.
    assert!(!events
        .iter()
        .any(|e| e.stream_hash == victim && e.slot == 0 && e.seq >= 4));

    // Later drains keep the degradation sticky: the same trigger value
    // cannot re-panic a dead slot.
    service
        .enqueue(SignalContext::new(10, victim, Symbol::new(0), 13.0))
        .unwrap();
    service.drain(&NullSink);
    assert_eq!(service.degraded_slots(), 1);

    detdiv_flight::streams::set_enabled(false);
    detdiv_flight::streams::reset();
}

#[test]
fn chaos_armed_service_survives_and_records_blast_radius() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    detdiv_flight::streams::reset();
    detdiv_flight::streams::set_enabled(true);

    let service = IngestService::new(ServeConfig::new(4, 4096).gated(ESCALATE_ALL), || {
        vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>]
    });
    let streams: Vec<u64> = (0..16u64)
        .map(|s| hash_stream_id(&format!("chaos-{s}")))
        .collect();

    let plan = detdiv_resil::FaultPlan::parse("7:5%:panic").expect("valid spec");
    detdiv_resil::arm(plan);
    let mut processed = 0u64;
    for round in 0..6u64 {
        for seq in 0..40u64 {
            for &hash in &streams {
                service
                    .enqueue(SignalContext::new(
                        round * 40 + seq,
                        hash,
                        Symbol::new(0),
                        1.0,
                    ))
                    .expect("capacity covers a round");
            }
        }
        // Deferred shards keep their batch queued; drain until empty
        // (the hit index advances, so deferral cannot repeat forever).
        let mut spins = 0;
        loop {
            processed += service.drain(&NullSink).processed;
            if service.pending() == 0 {
                break;
            }
            spins += 1;
            assert!(spins < 64, "drains must make progress under chaos");
        }
    }
    detdiv_resil::disarm();

    // Every event was either processed or is accounted for by a
    // degraded slot having skipped it — none vanished into a crash.
    assert_eq!(processed, 6 * 40 * 16, "no events lost under chaos");
    // At a 5% panic rate over 3840 update calls, degradations are a
    // statistical certainty; the registry agrees with the engine.
    let degraded = service.degraded_slots();
    assert!(degraded >= 1, "chaos should have degraded something");
    assert_eq!(detdiv_flight::streams::degraded_streams(), degraded);
    // The service kept serving every stream even as slots died: the
    // registry shows all 16 streams received all 240 events.
    let snaps = detdiv_flight::streams::snapshots();
    assert_eq!(snaps.len(), 16);
    for snap in &snaps {
        assert_eq!(snap.events, 240, "no stream was starved by chaos");
    }

    detdiv_flight::streams::set_enabled(false);
    detdiv_flight::streams::reset();
}

/// A detector that panics on every value at or above `limit`.
struct Brittle {
    limit: f64,
}

impl StreamDetector for Brittle {
    fn name(&self) -> &str {
        "brittle"
    }

    fn warmup_len(&self) -> usize {
        0
    }

    fn update(&mut self, ctx: &SignalContext) -> Option<DetectionResult> {
        assert!(ctx.value < self.limit, "over the limit");
        Some(DetectionResult::certain(0.0, "calm"))
    }

    fn reset(&mut self) {}
}

#[test]
fn a_degraded_slot_is_counted_once_across_hibernation_round_trips() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!(
        "detdiv-serve-backpressure-recount-{}",
        std::process::id()
    ));
    // A 1-byte budget spills the stream at the end of every drain, so
    // each later event rehydrates it with its slot already degraded.
    let guard = GuardConfig {
        budget_bytes: Some(1),
        spill_dir: Some(dir.clone()),
        ..GuardConfig::default()
    };
    let service =
        IngestService::with_guard(ServeConfig::new(1, 16).gated(ESCALATE_ALL), guard, || {
            vec![Box::new(Brittle { limit: 1000.0 }) as Box<dyn StreamDetector>]
        })
        .unwrap();
    let s = hash_stream_id("brittle");
    let mut summaries = Vec::new();
    let mut degraded_slots = Vec::new();
    for (seq, value) in [5000.0, 5.0, 5.0, 5.0].into_iter().enumerate() {
        service
            .enqueue(SignalContext::new(seq as u64, s, Symbol::new(0), value))
            .unwrap();
        summaries.push(service.drain(&NullSink).degraded);
        degraded_slots.push(service.degraded_slots());
    }
    let stats = service.guard_stats().unwrap();
    assert_eq!(stats.shards[0].hibernated.load(Ordering::Relaxed), 4);
    assert_eq!(stats.shards[0].rehydrated.load(Ordering::Relaxed), 3);
    assert_eq!(summaries, [1, 0, 0, 0], "one panic, reported by its drain");
    assert_eq!(degraded_slots, [1, 1, 1, 1], "rehydration recounts nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// DESIGN §17: an unwritable segment leaves the stream resident. The
/// shard's segment is `/dev/full`, so every spill write fails with
/// `ENOSPC`; a 1-byte budget asks for a spill of every stream at the
/// end of every drain. No stream may leave the table, and the gate
/// state each keeps must serve the verdicts an unguarded service
/// serves. The gate never escalates here: over budget, the guard's
/// ladder defers escalations, which would differ from the control for
/// a reason other than the segment.
#[cfg(target_os = "linux")]
#[test]
fn an_unwritable_segment_leaves_every_stream_resident() {
    let dir = std::env::temp_dir().join(format!(
        "detdiv-serve-backpressure-unwritable-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::os::unix::fs::symlink("/dev/full", dir.join("shard-0.seg")).unwrap();
    let gate_only = Tier1Config {
        alpha: 0.3,
        warmup: 2,
        escalate_score: f64::INFINITY,
    };
    let config = ServeConfig::new(1, 64).gated(gate_only);
    let factory = || vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>];
    let guard = GuardConfig {
        budget_bytes: Some(1),
        spill_dir: Some(dir.clone()),
        ..GuardConfig::default()
    };
    let guarded = IngestService::with_guard(config, guard, factory).unwrap();
    let control = IngestService::new(config, factory);
    let streams: Vec<u64> = (0..8)
        .map(|i| hash_stream_id(&format!("resident-{i}")))
        .collect();
    let (guarded_sink, control_sink) = (Collect::default(), Collect::default());
    for seq in 0..6u64 {
        for (i, &s) in (0u64..).zip(&streams) {
            let ctx = SignalContext::new(seq, s, Symbol::new(0), ((seq * 7 + i) % 5) as f64);
            guarded.enqueue(ctx).unwrap();
            control.enqueue(ctx).unwrap();
        }
        guarded.drain(&guarded_sink);
        control.drain(&control_sink);
        assert_eq!(
            guarded.stream_count(),
            streams.len(),
            "every stream stays resident"
        );
    }
    let stats = guarded.guard_stats().unwrap();
    assert_eq!(stats.shards[0].hibernated.load(Ordering::Relaxed), 0);
    assert_eq!(stats.shards[0].rehydrated.load(Ordering::Relaxed), 0);
    let verdicts = guarded_sink.0.into_inner().unwrap();
    assert_eq!(
        verdicts.len(),
        8 * 4,
        "past warmup, one gate verdict per event"
    );
    assert_eq!(verdicts, control_sink.0.into_inner().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
