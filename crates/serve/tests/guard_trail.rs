//! The guard's audit trail, pinned byte for byte.
//!
//! One single-shard guarded service is driven through every kind of
//! guard transition in turn:
//!
//! 1. a ladder climb (gated-only → tier1-only → shedding, by queue
//!    fill) and its one-rung-per-two-calm-cycles cooldown back to full;
//! 2. a breaker open → half-open → close, tripped by a tier-2 bank
//!    that panics on one planted value and closed by a clean probe;
//! 3. a hibernation spill of the least-recently-touched streams and the
//!    rehydration of one of them on its next event.
//!
//! Every `"t":"guard"` flight payload (kind, from, to, per-shard seq,
//! drain cycle, stream hash) and the shard's counters are compared
//! with fixed values. The other determinism suites compare runs with
//! each other; this one notices a change that moves every run alike,
//! such as a record stamped with a different cycle.
//!
//! It is its own test binary because it arms the process-global
//! flight recorder.

use std::sync::atomic::Ordering;

use detdiv_guard::GuardConfig;
use detdiv_sequence::Symbol;
use detdiv_serve::{IngestService, ServeConfig, Tier1Config, VerdictEvent, VerdictSink};
use detdiv_stream::{hash_stream_id, DetectionResult, SignalContext, StreamDetector};

/// A tier-2 slot that panics on the planted value and is otherwise
/// silent.
struct Fuse;

impl StreamDetector for Fuse {
    fn name(&self) -> &str {
        "fuse"
    }
    fn warmup_len(&self) -> usize {
        0
    }
    fn update(&mut self, ctx: &SignalContext) -> Option<DetectionResult> {
        assert!(ctx.value < 1000.0, "fuse blown");
        None
    }
    fn reset(&mut self) {}
}

struct Discard;

impl VerdictSink for Discard {
    fn on_verdict(&self, _event: &VerdictEvent) {}
}

fn feed(service: &IngestService, name: &str, first_seq: u64, values: &[f64]) {
    let hash = hash_stream_id(name);
    for (i, v) in values.iter().enumerate() {
        service
            .enqueue(SignalContext::new(
                first_seq + i as u64,
                hash,
                Symbol::new(0),
                *v,
            ))
            .expect("accepted");
    }
}

#[test]
fn guard_records_and_counters_are_pinned() {
    let dir = std::env::temp_dir().join(format!("detdiv-guard-trail-{}", std::process::id()));
    // One shard, so the shard's slice is the whole 700-byte budget.
    // Resident is 64 bytes per stream record plus 128 per tier-2 bank
    // (one 64-byte slot + 64 overhead). The breaker keeps its default:
    // three consecutive failures open it, four cycles half-open it.
    let guard = GuardConfig {
        budget_bytes: Some(700),
        spill_dir: Some(dir.clone()),
        ..GuardConfig::default()
    };
    let tier1 = Tier1Config {
        alpha: 0.3,
        warmup: 2,
        escalate_score: 0.5,
    };
    detdiv_flight::reset();
    detdiv_flight::arm(dir.join("unused.jsonl").to_str().unwrap());
    let service = IngestService::with_guard(ServeConfig::new(1, 20).gated(tier1), guard, || {
        vec![Box::new(Fuse) as Box<dyn StreamDetector>]
    })
    .unwrap();
    let sink = Discard;

    // 1. Ladder. Cycles 1–3 start at 10/20, 16/20 and 18/20 queue
    // fill: gated-only, tier1-only, shedding.
    let ramp: Vec<f64> = (0..18).map(|i| 5.0 + f64::from(i % 4) * 0.5).collect();
    feed(&service, "ladder", 0, &ramp[..10]);
    service.drain(&sink);
    feed(&service, "ladder", 10, &ramp[..16]);
    service.drain(&sink);
    feed(&service, "ladder", 26, &ramp);
    service.drain(&sink);
    // Shedding: the next enqueue is refused.
    assert!(service
        .enqueue(SignalContext::new(
            44,
            hash_stream_id("ladder"),
            Symbol::new(0),
            5.0
        ))
        .is_err());
    // Cycles 4–9: empty, so three rungs down at two calm cycles each.
    for _ in 0..6 {
        service.drain(&sink);
    }

    // 2. Breaker. Cycle 10 warms three gates. In cycle 11 each stream
    // escalates on the planted value and blows its fuse; the third
    // failure opens the breaker. Cycles 12–14 wait; cycle 15
    // half-opens at its start and its probe event closes it.
    for name in ["fuse-a", "fuse-b", "fuse-c"] {
        feed(&service, name, 0, &[5.0, 6.0]);
    }
    service.drain(&sink);
    for name in ["fuse-a", "fuse-b", "fuse-c"] {
        feed(&service, name, 2, &[1000.0]);
    }
    service.drain(&sink);
    for _ in 0..3 {
        service.drain(&sink);
    }
    feed(&service, "fuse-a", 3, &[5.0]);
    service.drain(&sink);

    // 3. Hibernation. Cycle 16: two new streams push the shard past
    // its budget; the least recently touched streams spill. Cycle 17:
    // the first of them comes back and is rehydrated.
    feed(&service, "cold-c", 0, &[5.0, 6.0]);
    feed(&service, "cold-d", 0, &[5.0, 6.0]);
    service.drain(&sink);
    feed(&service, "ladder", 44, &[5.5]);
    service.drain(&sink);

    detdiv_flight::disarm();
    let mut trail: Vec<String> = detdiv_flight::drain()
        .into_iter()
        .filter(|p| p.starts_with("{\"t\":\"guard\""))
        .collect();
    trail.sort_unstable();
    // Sorted payloads are in (shard, seq) order. The half-open record
    // carries the cycle before the one whose start half-opened the
    // breaker (14, not 15); the probe that closes it carries 15.
    let expected = [
        r#"{"t":"guard","shard":"0000","seq":"0000000000000000","cycle":"0000000000000001","kind":"ladder","from":"full","to":"gated-only","stream_hash":"0000000000000000"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000001","cycle":"0000000000000002","kind":"ladder","from":"gated-only","to":"tier1-only","stream_hash":"0000000000000000"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000002","cycle":"0000000000000003","kind":"ladder","from":"tier1-only","to":"shedding","stream_hash":"0000000000000000"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000003","cycle":"0000000000000005","kind":"ladder","from":"shedding","to":"tier1-only","stream_hash":"0000000000000000"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000004","cycle":"0000000000000007","kind":"ladder","from":"tier1-only","to":"gated-only","stream_hash":"0000000000000000"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000005","cycle":"0000000000000009","kind":"ladder","from":"gated-only","to":"full","stream_hash":"0000000000000000"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000006","cycle":"000000000000000b","kind":"breaker","from":"closed","to":"open","stream_hash":"ebedd40bb483d42c"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000007","cycle":"000000000000000e","kind":"breaker","from":"open","to":"half-open","stream_hash":"0000000000000000"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000008","cycle":"000000000000000f","kind":"breaker","from":"half-open","to":"closed","stream_hash":"ebedd60bb483d792"}"#,
        r#"{"t":"guard","shard":"0000","seq":"0000000000000009","cycle":"0000000000000010","kind":"hibernate","from":"","to":"spilled","stream_hash":"d7bae7e66a6099a9"}"#,
        r#"{"t":"guard","shard":"0000","seq":"000000000000000a","cycle":"0000000000000010","kind":"hibernate","from":"","to":"spilled","stream_hash":"ebedd40bb483d42c"}"#,
        r#"{"t":"guard","shard":"0000","seq":"000000000000000b","cycle":"0000000000000011","kind":"rehydrate","from":"","to":"restored","stream_hash":"d7bae7e66a6099a9"}"#,
    ];
    assert_eq!(trail, expected);

    let stats = service.guard_stats().unwrap();
    let s = &stats.shards[0];
    let counters = [
        ("level", s.level.load(Ordering::Relaxed)),
        ("breaker_state", s.breaker_state.load(Ordering::Relaxed)),
        ("resident_bytes", s.resident_bytes.load(Ordering::Relaxed)),
        ("shed", s.shed.load(Ordering::Relaxed)),
        (
            "ladder_transitions",
            s.ladder_transitions.load(Ordering::Relaxed),
        ),
        ("breaker_opens", s.breaker_opens.load(Ordering::Relaxed)),
        ("hibernated", s.hibernated.load(Ordering::Relaxed)),
        ("rehydrated", s.rehydrated.load(Ordering::Relaxed)),
        ("resident_peak", stats.resident_peak.load(Ordering::Relaxed)),
    ];
    assert_eq!(
        counters,
        [
            ("level", 0),
            ("breaker_state", 0),
            ("resident_bytes", 576),
            ("shed", 1),
            ("ladder_transitions", 6),
            ("breaker_opens", 1),
            ("hibernated", 2),
            ("rehydrated", 1),
            ("resident_peak", 640),
        ]
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
