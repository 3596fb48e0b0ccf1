//! Service ↔ engine differential suite.
//!
//! The ingest service adds sharding, queues, and a worker pool on top
//! of [`StreamEngine`] — none of which may change a single verdict
//! bit. The pinned property: for ANY interleaving of K streams pushed
//! through an [`IngestService`] (full tiering, one shard, backpressure
//! never hit), each stream's verdict sequence is byte-identical to
//! feeding that stream alone through a bare engine built from the same
//! factory. Duplicate events and hash-colliding stream ids are part of
//! the input space, and a multi-shard spot check confirms the property
//! is per-stream, not per-shard.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use detdiv_core::SequenceAnomalyDetector;
use detdiv_detectors::Stide;
use detdiv_guard::{DegradationLevel, GuardConfig};
use detdiv_sequence::{symbols, StreamProfile, Symbol};
use detdiv_serve::{
    IngestService, RejectReason, ServeConfig, Tier1Config, VerdictEvent, VerdictSink,
};
use detdiv_stream::{Ewma, ModelAdapter, SignalContext, StreamDetector, StreamEngine};
use proptest::prelude::*;

/// A two-slot bank mixing a trained sliding-window adapter with a
/// genuinely-online detector, so the differential covers both kinds of
/// per-stream state.
fn bank_factory() -> impl Fn() -> Vec<Box<dyn StreamDetector>> + Send + Sync + Clone + 'static {
    let mut stide = Stide::new(3);
    let mut train = Vec::new();
    for _ in 0..30 {
        train.extend(symbols(&[1, 2, 3, 4]));
    }
    stide.train(&StreamProfile::new(&train));
    let model: Arc<dyn detdiv_core::TrainedModel> = Arc::new(stide);
    move || {
        vec![
            Box::new(ModelAdapter::new(Arc::clone(&model))) as Box<dyn StreamDetector>,
            Box::new(Ewma::new(0.2, 3)),
        ]
    }
}

/// The comparable fingerprint of one verdict: everything except the
/// shard index (engine feeds have no shard).
type Fingerprint = (u64, usize, u64, u64, &'static str);

fn fingerprint(event: &VerdictEvent) -> Fingerprint {
    (
        event.seq,
        event.slot,
        event.result.score.to_bits(),
        event.result.confidence.to_bits(),
        event.result.reason,
    )
}

#[derive(Default)]
struct Collect(Mutex<Vec<VerdictEvent>>);

impl VerdictSink for Collect {
    fn on_verdict(&self, event: &VerdictEvent) {
        self.0.lock().unwrap().push(*event);
    }
}

/// One interleaved feed: `(stream_hash, seq, value)` triples in
/// arrival order. Values double as symbol ids (the adapter scores the
/// symbol, the EWMA the value), so one number exercises both slots.
fn run_service(shards: usize, feed: &[(u64, u64, u32)]) -> Vec<(u64, Fingerprint)> {
    let factory = bank_factory();
    let service = IngestService::new(ServeConfig::new(shards, feed.len().max(1)), factory);
    for &(hash, seq, value) in feed {
        service
            .enqueue(SignalContext::new(
                seq,
                hash,
                Symbol::new(value),
                f64::from(value),
            ))
            .expect("capacity covers the whole feed");
    }
    let sink = Collect::default();
    let summary = service.drain(&sink);
    let events = sink.0.lock().unwrap();
    assert_eq!(summary.processed as usize, feed.len());
    assert_eq!(summary.emitted as usize, events.len());
    events
        .iter()
        .map(|e| (e.stream_hash, fingerprint(e)))
        .collect()
}

/// Reference: each stream alone through a bare engine.
fn run_engine_alone(feed: &[(u64, u64, u32)], hash: u64) -> Vec<Fingerprint> {
    let factory = bank_factory();
    let mut engine = StreamEngine::new(factory);
    let mut out = Vec::new();
    for &(h, seq, value) in feed {
        if h != hash {
            continue;
        }
        let mut buf = Vec::new();
        engine.push(
            &SignalContext::new(seq, h, Symbol::new(value), f64::from(value)),
            &mut buf,
        );
        for slot in buf {
            out.push(fingerprint(&VerdictEvent {
                shard: 0,
                stream_hash: h,
                seq,
                tier: detdiv_serve::Tier::Model,
                slot: slot.slot,
                result: slot.result,
            }));
        }
    }
    out
}

fn assert_differential(shards: usize, feed: &[(u64, u64, u32)]) {
    let served = run_service(shards, feed);
    let mut hashes: Vec<u64> = feed.iter().map(|&(h, _, _)| h).collect();
    hashes.sort_unstable();
    hashes.dedup();
    for hash in hashes {
        let got: Vec<Fingerprint> = served
            .iter()
            .filter(|(h, _)| *h == hash)
            .map(|(_, f)| *f)
            .collect();
        let want = run_engine_alone(feed, hash);
        assert_eq!(
            got, want,
            "stream {hash:#x}: service verdicts must be byte-identical to the bare engine"
        );
    }
}

/// Round-robin interleaving of per-stream event sequences.
fn interleave(streams: &[(u64, Vec<u32>)]) -> Vec<(u64, u64, u32)> {
    let mut feed = Vec::new();
    let longest = streams.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (hash, values) in streams {
            if let Some(&v) = values.get(i) {
                feed.push((*hash, i as u64, v));
            }
        }
    }
    feed
}

#[test]
fn round_robin_interleaving_matches_isolated_engines() {
    let streams: Vec<(u64, Vec<u32>)> = (0..4u64)
        .map(|s| {
            let values = (0..40u32).map(|i| (i * 7 + s as u32 * 3) % 5).collect();
            (detdiv_stream::hash_stream_id(&format!("host-{s}")), values)
        })
        .collect();
    assert_differential(1, &interleave(&streams));
}

#[test]
fn bursty_interleaving_with_duplicate_events_matches() {
    let a = detdiv_stream::hash_stream_id("bursty-a");
    let b = detdiv_stream::hash_stream_id("bursty-b");
    let mut feed = Vec::new();
    // Stream a arrives in one burst, b trickles, and two (stream, seq,
    // value) triples are duplicated outright — a duplicate is just
    // another event, routed and scored like any other, identically on
    // both sides of the differential.
    for i in 0..20u64 {
        feed.push((a, i, (i % 4) as u32 + 1));
    }
    feed.push(feed[3]);
    for i in 0..15u64 {
        feed.push((b, i, (i % 3) as u32 + 2));
    }
    feed.push(feed[25]);
    assert_differential(1, &feed);
}

#[test]
fn hash_colliding_stream_ids_stay_distinct_streams() {
    // Raw pre-hashed ids that collide modulo the shard count land on
    // the same shard but must keep fully independent detector state.
    let shards = 4u64;
    let base = 0xdead_beef_u64;
    let collide = base + shards * 41;
    assert_eq!(base % shards, collide % shards);
    let streams = vec![
        (base, (0..30u32).map(|i| i % 4 + 1).collect::<Vec<_>>()),
        (collide, (0..30u32).map(|i| (i * 3) % 5).collect()),
    ];
    assert_differential(shards as usize, &interleave(&streams));
}

#[test]
fn multi_shard_feed_matches_isolated_engines() {
    let streams: Vec<(u64, Vec<u32>)> = (0..9u64)
        .map(|s| {
            let values = (0..25u32).map(|i| (i * (s as u32 + 2)) % 6).collect();
            (detdiv_stream::hash_stream_id(&format!("node-{s}")), values)
        })
        .collect();
    assert_differential(4, &interleave(&streams));
}

/// Serializes tests that reconfigure the global worker-pool width, so
/// two width-sweeping cases never fight over the process-wide setting.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

/// Unique hibernation spill directories across proptest cases.
static SPILL_SEQ: AtomicUsize = AtomicUsize::new(0);

fn spill_dir() -> std::path::PathBuf {
    let n = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "detdiv-serve-diff-guard-{}-{n}",
        std::process::id()
    ))
}

/// A guarded verdict's comparable bits: the plain [`Fingerprint`] plus
/// the tier it was emitted at (the guard demotes tiers, so the tier is
/// part of the determinism contract here).
type GuardedFingerprint = (u64, usize, u64, u64, &'static str, bool);

/// Everything observable about one guarded run that the determinism
/// contract pins: per-offer accept/shed outcomes, the ladder level of
/// every shard after every drain cycle, per-stream verdict sequences,
/// and the per-shard monotonic guard counters.
#[derive(Debug, PartialEq, Eq)]
struct GuardHistory {
    accepts: Vec<u8>,
    levels: Vec<Vec<&'static str>>,
    verdicts: BTreeMap<u64, Vec<GuardedFingerprint>>,
    counters: Vec<(u64, u64, u64, u64)>,
}

/// Runs `feed` through a guarded gated service, draining every
/// `chunk` offers, then drains to quiescence. Returns the run's
/// complete guard history.
fn run_guarded(
    shards: usize,
    queue_cap: usize,
    budget: u64,
    chunk: usize,
    feed: &[(u64, u64, u32)],
) -> GuardHistory {
    let dir = spill_dir();
    let config = ServeConfig::new(shards, queue_cap).gated(Tier1Config {
        alpha: 0.3,
        warmup: 2,
        escalate_score: 0.7,
    });
    let guard = GuardConfig {
        budget_bytes: Some(budget),
        spill_dir: Some(dir.clone()),
        ..GuardConfig::default()
    };
    let service =
        IngestService::with_guard(config, guard, bank_factory()).expect("spill dir is writable");
    let sink = Collect::default();
    let mut history = GuardHistory {
        accepts: Vec::with_capacity(feed.len()),
        levels: Vec::new(),
        verdicts: BTreeMap::new(),
        counters: Vec::new(),
    };
    let record_drain = |history: &mut GuardHistory| {
        service.drain(&sink);
        history
            .levels
            .push(service.guard_levels().iter().map(|l| l.name()).collect());
    };
    for (i, &(hash, seq, value)) in feed.iter().enumerate() {
        history.accepts.push(
            match service.enqueue(SignalContext::new(
                seq,
                hash,
                Symbol::new(value),
                f64::from(value),
            )) {
                Ok(()) => 0,
                Err(RejectReason::Shedding { .. }) => 1,
                Err(_) => 2,
            },
        );
        if (i + 1) % chunk == 0 {
            record_drain(&mut history);
        }
    }
    // Quiescence: drain until nothing is queued and every ladder has
    // cooled back to Full — recovery is part of the pinned history.
    let mut cycles = 0;
    while service.pending() > 0
        || service
            .guard_levels()
            .iter()
            .any(|l| *l != DegradationLevel::Full)
    {
        record_drain(&mut history);
        cycles += 1;
        assert!(cycles < 1000, "ladder failed to recover to Full");
    }
    for e in sink.0.lock().unwrap().iter() {
        history.verdicts.entry(e.stream_hash).or_default().push((
            e.seq,
            e.slot,
            e.result.score.to_bits(),
            e.result.confidence.to_bits(),
            e.result.reason,
            e.tier == detdiv_serve::Tier::Model,
        ));
    }
    let stats = service.guard_stats().expect("guarded service");
    for s in &stats.shards {
        history.counters.push((
            s.shed.load(Ordering::Relaxed),
            s.ladder_transitions.load(Ordering::Relaxed),
            s.hibernated.load(Ordering::Relaxed),
            s.rehydrated.load(Ordering::Relaxed),
        ));
    }
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism property: one event sequence, pushed
    /// through overload (tiny queues force QueueFull drops, Shedding
    /// rungs, and guard shedding; a tiny byte budget forces hibernation
    /// and rehydration) — the complete guard history (per-offer
    /// outcomes, per-cycle ladder levels, per-stream verdict bits, and
    /// per-shard counters) must be identical at worker widths 1, 2, 4,
    /// and 8.
    #[test]
    fn guard_histories_are_identical_at_every_worker_width(
        k in 2usize..=4,
        shard_pick in 0usize..2,
        values in prop::collection::vec(0u32..5, 80..160),
        picks in prop::collection::vec(0usize..4, 80..160),
    ) {
        let shards = [1usize, 3][shard_pick];
        let ids: Vec<u64> = (0..k as u64).map(|s| 7 + s * shards as u64).collect();
        let mut cursors = vec![0u64; k];
        let mut feed = Vec::new();
        for (i, &pick) in picks.iter().enumerate() {
            let stream = pick % k;
            feed.push((ids[stream], cursors[stream], values[i % values.len()]));
            cursors[stream] += 1;
        }
        let _width = POOL_WIDTH.lock().unwrap();
        let reference = {
            detdiv_par::global().set_threads(Some(1));
            run_guarded(shards, 6, 150, 20, &feed)
        };
        for width in [2usize, 4, 8] {
            detdiv_par::global().set_threads(Some(width));
            let got = run_guarded(shards, 6, 150, 20, &feed);
            prop_assert_eq!(
                &got, &reference,
                "guard history diverged at worker width {}", width
            );
        }
        detdiv_par::global().set_threads(None);
        // The scenario really exercised the guard: something was shed
        // and something hibernated, or the case is vacuous.
        prop_assert!(reference.accepts.iter().any(|&a| a != 0), "no overload");
        prop_assert!(reference.counters.iter().any(|c| c.2 > 0), "no hibernation");
    }

    /// Hibernate → rehydrate bit-identity: with a 1-byte budget every
    /// stream spills after every cycle and rehydrates on its next
    /// event, yet per-stream verdicts must match an unguarded control
    /// service bit for bit — including across escalation (tier-2 bank
    /// state survives the round trip).
    #[test]
    fn hibernation_round_trips_are_bit_identical_to_an_unguarded_run(
        k in 2usize..=4,
        values in prop::collection::vec(0u32..5, 60..120),
        picks in prop::collection::vec(0usize..4, 60..120),
    ) {
        let ids: Vec<u64> = (0..k as u64).map(|s| 11 + s * 13).collect();
        let mut cursors = vec![0u64; k];
        let mut feed = Vec::new();
        for (i, &pick) in picks.iter().enumerate() {
            let stream = pick % k;
            feed.push((ids[stream], cursors[stream], values[i % values.len()]));
            cursors[stream] += 1;
        }
        // Queue fill stays nominal (chunk 8 against capacity 64), so
        // the ladder never leaves Full: hibernation is the ONLY guard
        // mechanism in play.
        let guarded = run_guarded(1, 64, 1, 8, &feed);
        prop_assert!(
            guarded.levels.iter().all(|cycle| cycle.iter().all(|l| *l == "full")),
            "nominal load must not move the ladder"
        );
        prop_assert!(guarded.counters[0].2 > 0, "budget 1 must force spills");
        prop_assert!(guarded.counters[0].3 > 0, "returning streams must rehydrate");

        let control = IngestService::new(
            ServeConfig::new(1, 64).gated(Tier1Config {
                alpha: 0.3,
                warmup: 2,
                escalate_score: 0.7,
            }),
            bank_factory(),
        );
        let sink = Collect::default();
        for (i, &(hash, seq, value)) in feed.iter().enumerate() {
            control
                .enqueue(SignalContext::new(seq, hash, Symbol::new(value), f64::from(value)))
                .expect("capacity covers the feed");
            if (i + 1) % 8 == 0 {
                control.drain(&sink);
            }
        }
        control.drain(&sink);
        let mut expected: BTreeMap<u64, Vec<GuardedFingerprint>> = BTreeMap::new();
        for e in sink.0.lock().unwrap().iter() {
            expected.entry(e.stream_hash).or_default().push((
                e.seq,
                e.slot,
                e.result.score.to_bits(),
                e.result.confidence.to_bits(),
                e.result.reason,
                e.tier == detdiv_serve::Tier::Model,
            ));
        }
        prop_assert_eq!(
            &guarded.verdicts, &expected,
            "hibernate→rehydrate must not perturb a single verdict bit"
        );
    }

    /// Random interleavings: per-stream event sequences of random
    /// lengths/values, shuffled into one feed by a random pick order
    /// (including duplicated picks = duplicate keys back-to-back),
    /// over 1 or 3 shards with deliberately colliding raw ids.
    #[test]
    fn random_interleavings_match_isolated_engines(
        k in 2usize..=4,
        shard_pick in 0usize..2,
        values in prop::collection::vec(0u32..5, 60..120),
        picks in prop::collection::vec(0usize..4, 60..120),
    ) {
        let shards = [1usize, 3][shard_pick];
        // Stream ids collide modulo `shards` on purpose: every stream
        // maps to shard (7 % shards).
        let ids: Vec<u64> = (0..k as u64).map(|s| 7 + s * shards as u64).collect();
        let mut cursors = vec![0u64; k];
        let mut feed = Vec::new();
        for (i, &pick) in picks.iter().enumerate() {
            let stream = pick % k;
            let value = values[i % values.len()];
            feed.push((ids[stream], cursors[stream], value));
            cursors[stream] += 1;
            if value == 0 {
                // Duplicate key: replay the exact same event.
                feed.push((ids[stream], cursors[stream] - 1, value));
            }
        }
        assert_differential(shards, &feed);
    }
}
