//! Service ↔ reference-model differential suite.
//!
//! The ingest service adds sharding, queues, a worker pool and a
//! per-shard record table on top of the gate and the bank — none of
//! which may change a single verdict bit. The pinned property: for ANY
//! interleaving of K streams pushed through an [`IngestService`]
//! (backpressure never hit), each stream's verdict sequence is
//! byte-identical to a sequential reference model that feeds every
//! event, in order, through that stream's tier-1 gate and, from the
//! escalating event on, a bare [`StreamEngine`] built from the same
//! factory. Every case runs under a gate that escalates each stream on
//! its first event and one under which some streams never escalate.
//! Duplicate events and hash-colliding stream ids are part of the
//! input space, and multi-shard cases confirm the property is
//! per-stream, not per-shard.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use detdiv_core::SequenceAnomalyDetector;
use detdiv_detectors::Stide;
use detdiv_guard::{DegradationLevel, GuardConfig};
use detdiv_sequence::{symbols, StreamProfile, Symbol};
use detdiv_serve::{
    IngestService, RejectReason, ServeConfig, Tier, Tier1Config, VerdictEvent, VerdictSink,
};
use detdiv_stream::{
    DetectionResult, Ewma, EwmaState, ModelAdapter, SignalContext, StreamDetector, StreamEngine,
};
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

/// The two gates every model case runs under: the first escalates each
/// stream on its first event (warmup 0, threshold 0), the second only
/// streams that jump well past their running band — some never do.
const GATES: [Tier1Config; 2] = [
    Tier1Config {
        alpha: 0.3,
        warmup: 0,
        escalate_score: 0.0,
    },
    Tier1Config {
        alpha: 0.3,
        warmup: 2,
        escalate_score: 0.7,
    },
];

/// The comparable bits of one verdict: seq, slot, score, confidence,
/// reason, and whether tier 2 emitted it (everything but the shard).
type Fingerprint = (u64, usize, u64, u64, &'static str, bool);

/// Per-stream verdict sequences, keyed by stream hash.
type Verdicts = BTreeMap<u64, Vec<Fingerprint>>;

fn fingerprint(seq: u64, slot: usize, result: &DetectionResult, model: bool) -> Fingerprint {
    let (score, confidence) = (result.score.to_bits(), result.confidence.to_bits());
    (seq, slot, score, confidence, result.reason, model)
}

/// One event of a feed. Values double as symbol ids (the adapter
/// scores the symbol, the EWMA the value), so one number exercises
/// both slots.
fn event(hash: u64, seq: u64, value: u32) -> SignalContext {
    SignalContext::new(seq, hash, Symbol::new(value), f64::from(value))
}

#[derive(Default)]
struct Collect(Mutex<Vec<VerdictEvent>>);

impl VerdictSink for Collect {
    fn on_verdict(&self, event: &VerdictEvent) {
        self.0.lock().unwrap().push(*event);
    }
}

impl Collect {
    fn by_stream(&self) -> Verdicts {
        let mut map = Verdicts::new();
        for e in self.0.lock().unwrap().iter() {
            let model = e.tier == Tier::Model;
            let fp = fingerprint(e.seq, e.slot, &e.result, model);
            map.entry(e.stream_hash).or_default().push(fp);
        }
        map
    }
}

/// One interleaved feed of `(stream_hash, seq, value)` triples in
/// arrival order, enqueued whole and drained once.
fn run_service(shards: usize, tier1: Tier1Config, feed: &[(u64, u64, u32)]) -> Verdicts {
    let config = ServeConfig::new(shards, feed.len().max(1)).gated(tier1);
    let service = IngestService::new(config, bank_factory());
    for &(hash, seq, value) in feed {
        let accepted = service.enqueue(event(hash, seq, value));
        accepted.expect("capacity covers the whole feed");
    }
    let sink = Collect::default();
    let summary = service.drain(&sink);
    assert_eq!(summary.processed as usize, feed.len());
    assert_eq!(summary.emitted as usize, sink.0.lock().unwrap().len());
    sink.by_stream()
}

/// The sequential reference model: one entry per stream holding its
/// gate statistics, its escalation flag and a bare engine. Events go
/// through in feed order; the escalating event is also tier 2's first.
fn run_model(tier1: Tier1Config, feed: &[(u64, u64, u32)]) -> Verdicts {
    let factory = bank_factory();
    let mut streams = BTreeMap::new();
    let mut out = Verdicts::new();
    for &(hash, seq, value) in feed {
        let ctx = event(hash, seq, value);
        let (gate, escalated, engine) = streams.entry(hash).or_insert_with(|| {
            (
                EwmaState::default(),
                false,
                StreamEngine::new(factory.clone()),
            )
        });
        if !*escalated {
            let Some(result) = gate.update(tier1.alpha, tier1.warmup, &ctx) else {
                continue;
            };
            let fp = fingerprint(seq, 0, &result, false);
            out.entry(hash).or_default().push(fp);
            *escalated = result.score >= tier1.escalate_score;
            if !*escalated {
                continue;
            }
        }
        let mut slots = Vec::new();
        engine.push(&ctx, &mut slots);
        for slot in slots {
            let fp = fingerprint(seq, slot.slot, &slot.result, true);
            out.entry(hash).or_default().push(fp);
        }
    }
    out
}

/// Checks `feed` through a `shards`-shard service against the model,
/// under each of the [`GATES`].
fn assert_matches_model(shards: usize, feed: &[(u64, u64, u32)]) {
    for tier1 in GATES {
        assert_eq!(
            run_service(shards, tier1, feed),
            run_model(tier1, feed),
            "per-stream service verdicts must be byte-identical to the model ({tier1:?})"
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
fn round_robin_interleaving_matches_the_model() {
    let streams: Vec<(u64, Vec<u32>)> = (0..4u64)
        .map(|s| {
            let values = (0..40u32).map(|i| (i * 7 + s as u32 * 3) % 5).collect();
            (detdiv_stream::hash_stream_id(&format!("host-{s}")), values)
        })
        .collect();
    assert_matches_model(1, &interleave(&streams));
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
    assert_matches_model(1, &feed);
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
    assert_matches_model(shards as usize, &interleave(&streams));
}

#[test]
fn multi_shard_feed_matches_the_model() {
    let streams: Vec<(u64, Vec<u32>)> = (0..9u64)
        .map(|s| {
            let values = (0..25u32).map(|i| (i * (s as u32 + 2)) % 6).collect();
            (detdiv_stream::hash_stream_id(&format!("node-{s}")), values)
        })
        .collect();
    assert_matches_model(4, &interleave(&streams));
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

/// Everything observable about one guarded run that the determinism
/// contract pins: per-offer accept/shed outcomes, the ladder level of
/// every shard after every drain cycle, per-stream verdict sequences,
/// and the per-shard monotonic guard counters.
#[derive(Debug, PartialEq, Eq)]
struct GuardHistory {
    accepts: Vec<u8>,
    levels: Vec<Vec<&'static str>>,
    verdicts: Verdicts,
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
    let config = ServeConfig::new(shards, queue_cap).gated(GATES[1]);
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
        verdicts: Verdicts::new(),
        counters: Vec::new(),
    };
    let record_drain = |history: &mut GuardHistory| {
        service.drain(&sink);
        history
            .levels
            .push(service.guard_levels().iter().map(|l| l.name()).collect());
    };
    for (i, &(hash, seq, value)) in feed.iter().enumerate() {
        history
            .accepts
            .push(match service.enqueue(event(hash, seq, value)) {
                Ok(()) => 0,
                Err(RejectReason::Shedding { .. }) => 1,
                Err(_) => 2,
            });
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
    history.verdicts = sink.by_stream();
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

        let control = IngestService::new(ServeConfig::new(1, 64).gated(GATES[1]), bank_factory());
        let sink = Collect::default();
        for (i, &(hash, seq, value)) in feed.iter().enumerate() {
            control
                .enqueue(event(hash, seq, value))
                .expect("capacity covers the feed");
            if (i + 1) % 8 == 0 {
                control.drain(&sink);
            }
        }
        control.drain(&sink);
        prop_assert_eq!(
            &guarded.verdicts, &sink.by_stream(),
            "hibernate→rehydrate must not perturb a single verdict bit"
        );
    }

    /// Random interleavings: per-stream event sequences of random
    /// lengths/values, shuffled into one feed by a random pick order
    /// (including duplicated picks = duplicate keys back-to-back),
    /// over 1 and 3 shards with deliberately colliding raw ids, under
    /// both gates.
    #[test]
    fn random_interleavings_match_the_model(
        k in 2usize..=4,
        values in prop::collection::vec(0u32..5, 60..120),
        picks in prop::collection::vec(0usize..4, 60..120),
    ) {
        for shards in [1usize, 3] {
            // Stream ids collide modulo `shards` on purpose: every
            // stream maps to shard (7 % shards).
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
            assert_matches_model(shards, &feed);
        }
    }
}
