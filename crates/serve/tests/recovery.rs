//! Snapshot → crash → recover battery.
//!
//! The crash model is SIGKILL-style: the process vanishes after its
//! last completed drain + snapshot, and a fresh process recovers from
//! the snapshot file alone. The pinned properties:
//!
//! 1. per-stream verdicts after recovery are bit-identical to the
//!    uninterrupted run (including mid-warmup, never-escalated, and
//!    escalated streams);
//! 2. a torn snapshot tail (partial final line, as a crash mid-write
//!    would leave) discards the snapshot with a reason — never a
//!    panic, never half-applied state;
//! 3. shape drift (different bank or shard count, or an old
//!    `tiering=full` header) degrades to cold starts or a clean
//!    discard, explicitly counted.
//!
//! Cross-stream drain order is scheduling-dependent at worker widths
//! above one, so every comparison here is per stream — which is the
//! determinism contract's actual unit.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use detdiv_core::SequenceAnomalyDetector;
use detdiv_detectors::Stide;
use detdiv_sequence::{symbols, StreamProfile, Symbol};
use detdiv_serve::{
    IngestService, RecoverOutcome, ServeConfig, Tier1Config, VerdictEvent, VerdictSink,
};
use detdiv_stream::{Ewma, ModelAdapter, SignalContext, StreamDetector};

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "detdiv-serve-recovery-{name}-{}",
        std::process::id()
    ));
    p
}

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

/// A service shape with the given gate. Warmup 0 and threshold 0.0
/// escalate every stream on its first event, so each carries a bank.
fn config(shards: usize, warmup: usize, escalate_score: f64) -> ServeConfig {
    ServeConfig::new(shards, 2048).gated(Tier1Config {
        alpha: 0.3,
        warmup,
        escalate_score,
    })
}

/// The comparable fields of a verdict.
type Fingerprint = (u64, usize, u64, bool);

#[derive(Default)]
struct Collect(Mutex<Vec<VerdictEvent>>);

impl VerdictSink for Collect {
    fn on_verdict(&self, event: &VerdictEvent) {
        self.0.lock().unwrap().push(*event);
    }
}

impl Collect {
    /// Per-stream verdict sequences (in-stream order is deterministic;
    /// cross-stream order is not compared).
    fn by_stream(&self) -> BTreeMap<u64, Vec<Fingerprint>> {
        let mut map: BTreeMap<u64, Vec<Fingerprint>> = BTreeMap::new();
        for e in self.0.lock().unwrap().iter() {
            map.entry(e.stream_hash).or_default().push((
                e.seq,
                e.slot,
                e.result.score.to_bits(),
                e.tier == detdiv_serve::Tier::Model,
            ));
        }
        map
    }

    fn total(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

/// `(stream, seq, value)` triples, round-robin across streams. Values
/// double as symbol ids and signal values.
type Feed = Vec<(u64, u64, u32)>;

/// A mixed population: varying streams, a constant stream, and a
/// constant stream that spikes at `spike_seq` (under a gated config
/// the spike escalates it deterministically: constant history means
/// zero variance, so any deviation is an infinite z-score).
fn mixed_feed(events: u64, spike_seq: u64) -> Feed {
    let mut out = Vec::new();
    for seq in 0..events {
        for s in 0..6u64 {
            let value = match s {
                3 => 3,                                // constant: never escalates
                5 if seq == spike_seq => 90,           // the escalation trigger
                5 => 2,                                // otherwise constant
                _ => ((seq * (s + 2) + s) % 5) as u32, // varying
            };
            out.push((
                detdiv_stream::hash_stream_id(&format!("rec-{s}")),
                seq,
                value,
            ));
        }
    }
    out
}

fn push_all(service: &IngestService, feed: &[(u64, u64, u32)], sink: &Collect) {
    for &(hash, seq, value) in feed {
        service
            .enqueue(SignalContext::new(
                seq,
                hash,
                Symbol::new(value),
                f64::from(value),
            ))
            .expect("capacity covers the feed");
    }
    service.drain(sink);
}

/// The core battery: run uninterrupted;
/// run the first half + snapshot + "crash" + recover + run the rest;
/// compare per-stream verdict sequences bit-for-bit.
fn assert_recovery_resumes(config: ServeConfig, name: &str, all: &Feed) {
    let half = all.len() / 2;

    let uninterrupted = IngestService::new(config, bank_factory());
    let reference = Collect::default();
    push_all(&uninterrupted, all, &reference);
    let expected = reference.by_stream();

    let path = temp_path(name);
    let first = IngestService::new(config, bank_factory());
    let before_crash = Collect::default();
    push_all(&first, &all[..half], &before_crash);
    let stats = first.snapshot(&path).expect("snapshot writes");
    assert_eq!(stats.streams, first.stream_count() as u64);
    drop(first); // SIGKILL-style: nothing after the snapshot survives

    let recovered = IngestService::new(config, bank_factory());
    match recovered.recover(&path) {
        RecoverOutcome::Recovered { streams, skipped } => {
            assert_eq!(streams, stats.streams);
            assert_eq!(skipped, 0);
        }
        RecoverOutcome::Discarded { reason } => panic!("snapshot discarded: {reason}"),
    }
    let after_crash = Collect::default();
    push_all(&recovered, &all[half..], &after_crash);
    assert!(after_crash.total() > 0, "the post-recovery half must emit");

    let head = before_crash.by_stream();
    let tail = after_crash.by_stream();
    for (stream, want) in &expected {
        let mut got = head.get(stream).cloned().unwrap_or_default();
        got.extend(tail.get(stream).cloned().unwrap_or_default());
        assert_eq!(
            &got, want,
            "stream {stream:#x}: crash+recover must neither re-emit, swallow, nor \
             perturb a single verdict bit"
        );
    }
    assert_eq!(
        head.len().max(tail.len()),
        expected.len(),
        "no streams invented or lost"
    );
}

#[test]
fn gated_tiering_recovery_is_bit_identical() {
    let config = config(4, 4, 0.5);
    // The spike lands before the crash point, so the snapshot carries
    // an escalated stream with live tier-2 state alongside gated-only
    // and mid-warmup streams.
    assert_recovery_resumes(config, "gated", &mixed_feed(30, 10));

    // Sanity: that feed really does escalate exactly one stream.
    let probe = IngestService::new(config, bank_factory());
    let sink = Collect::default();
    push_all(&probe, &mixed_feed(30, 10), &sink);
    assert_eq!(
        probe
            .stats()
            .shards
            .iter()
            .map(|s| s.escalated.load(std::sync::atomic::Ordering::Relaxed))
            .sum::<u64>(),
        1
    );
}

#[test]
fn gated_escalation_after_recovery_still_matches() {
    let config = config(2, 4, 0.5);
    // The spike lands *after* the crash point: escalation must fire on
    // the recovered gate state (constant pre-crash history ⇒ zero
    // variance survives the snapshot).
    assert_recovery_resumes(config, "gated-late", &mixed_feed(30, 22));
}

/// Snapshot taken while queues still hold undrained events: the
/// residue must ride the snapshot and replay after recovery — not
/// vanish (the pre-v2 bug) and not double-process.
#[test]
fn gated_tiering_snapshot_with_loaded_queues_replays_the_residue() {
    let config = config(4, 4, 0.5);
    let all = mixed_feed(30, 10);
    let half = all.len() / 2;
    let quarter = half + all.len() / 4;

    let uninterrupted = IngestService::new(config, bank_factory());
    let reference = Collect::default();
    push_all(&uninterrupted, &all, &reference);
    let expected = reference.by_stream();

    // First process: drain the first half, then enqueue a quarter more
    // WITHOUT draining and snapshot with the queues loaded.
    let path = temp_path("queued-gated");
    let first = IngestService::new(config, bank_factory());
    let before_crash = Collect::default();
    push_all(&first, &all[..half], &before_crash);
    for &(hash, seq, value) in &all[half..quarter] {
        first
            .enqueue(SignalContext::new(
                seq,
                hash,
                Symbol::new(value),
                f64::from(value),
            ))
            .expect("capacity covers the feed");
    }
    let stats = first.snapshot(&path).expect("snapshot writes");
    assert_eq!(
        stats.queued,
        (quarter - half) as u64,
        "the snapshot must carry every queued event"
    );
    drop(first); // the queued quarter now exists only in the snapshot

    let recovered = IngestService::new(config, bank_factory());
    match recovered.recover(&path) {
        RecoverOutcome::Recovered { streams, skipped } => {
            assert_eq!(streams, stats.streams);
            assert_eq!(skipped, 0);
        }
        RecoverOutcome::Discarded { reason } => panic!("snapshot discarded: {reason}"),
    }
    assert_eq!(
        recovered.pending() as u64,
        stats.queued,
        "recovery re-enqueues the residue"
    );
    // Drain the replayed residue, then feed the untouched tail.
    let after_crash = Collect::default();
    recovered.drain(&after_crash);
    push_all(&recovered, &all[quarter..], &after_crash);

    let head = before_crash.by_stream();
    let tail = after_crash.by_stream();
    for (stream, want) in &expected {
        let mut got = head.get(stream).cloned().unwrap_or_default();
        got.extend(tail.get(stream).cloned().unwrap_or_default());
        assert_eq!(
            &got, want,
            "stream {stream:#x}: queued residue must replay exactly once, \
             bit-identically"
        );
    }
}

/// Recovery counts the residue it re-enqueues as enqueued, so every
/// shard of a recovered service keeps `enqueued == processed + depth`,
/// before its first drain and after it.
#[test]
fn recovered_residue_is_counted_as_enqueued() {
    let config = config(4, 4, 0.5);
    let all = mixed_feed(30, 10);
    let half = all.len() / 2;
    let path = temp_path("counted-residue");
    let first = IngestService::new(config, bank_factory());
    push_all(&first, &all[..half], &Collect::default());
    for &(hash, seq, value) in &all[half..] {
        first
            .enqueue(SignalContext::new(
                seq,
                hash,
                Symbol::new(value),
                f64::from(value),
            ))
            .expect("capacity covers the feed");
    }
    let stats = first.snapshot(&path).expect("snapshot writes");
    assert_eq!(stats.queued, (all.len() - half) as u64);

    let recovered = IngestService::new(config, bank_factory());
    assert!(matches!(
        recovered.recover(&path),
        RecoverOutcome::Recovered { skipped: 0, .. }
    ));
    let balanced = |when: &str| {
        let load = |counter: &std::sync::atomic::AtomicU64| {
            counter.load(std::sync::atomic::Ordering::Relaxed)
        };
        for (index, shard) in recovered.stats().shards.iter().enumerate() {
            assert_eq!(
                load(&shard.enqueued),
                load(&shard.processed) + load(&shard.depth),
                "shard {index} {when}: enqueued == processed + depth"
            );
        }
    };
    balanced("before its first drain");
    let enqueued: u64 = recovered
        .stats()
        .shards
        .iter()
        .map(|s| s.enqueued.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    assert_eq!(enqueued, stats.queued, "every residue event is counted");
    assert_eq!(recovered.drain(&Collect::default()).processed, stats.queued);
    balanced("after its first drain");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_snapshot_is_discarded_not_fatal() {
    use std::io::Write;
    let path = temp_path("torn");
    let service = IngestService::new(config(2, 0, 0.0), bank_factory());
    let sink = Collect::default();
    push_all(&service, &mixed_feed(12, 4), &sink);
    service.snapshot(&path).expect("snapshot writes");

    // A crash mid-write leaves a partial final line: truncate the file
    // mid-footer.
    let content = std::fs::read_to_string(&path).unwrap();
    let cut = content.len() - 9;
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(&content.as_bytes()[..cut]).unwrap();
    drop(f);

    let fresh = IngestService::new(config(2, 0, 0.0), bank_factory());
    match fresh.recover(&path) {
        RecoverOutcome::Discarded { reason } => {
            assert!(
                reason.contains("footer") || reason.contains("count"),
                "torn tail should read as a missing/incomplete footer, got: {reason}"
            );
        }
        RecoverOutcome::Recovered { .. } => panic!("a torn snapshot must not be applied"),
    }
    // The discard left the service untouched and serviceable.
    assert_eq!(fresh.stream_count(), 0);
    let sink = Collect::default();
    push_all(&fresh, &mixed_feed(8, 2), &sink);
    assert!(sink.total() > 0);
}

#[test]
fn corrupt_interior_line_is_discarded_not_fatal() {
    let path = temp_path("corrupt");
    let service = IngestService::new(config(2, 0, 0.0), bank_factory());
    push_all(&service, &mixed_feed(12, 4), &Collect::default());
    service.snapshot(&path).expect("snapshot writes");

    // Flip one payload byte inside the second line: the journal
    // checksum catches it and the whole snapshot is refused.
    let mut bytes = std::fs::read(&path).unwrap();
    let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 20;
    bytes[second_line] = bytes[second_line].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();

    let fresh = IngestService::new(config(2, 0, 0.0), bank_factory());
    assert!(
        matches!(fresh.recover(&path), RecoverOutcome::Discarded { .. }),
        "interior corruption must discard the snapshot"
    );
    assert_eq!(fresh.stream_count(), 0);
}

#[test]
fn missing_file_and_shape_drift_are_discarded() {
    let fresh = IngestService::new(config(2, 0, 0.0), bank_factory());
    let missing = fresh.recover(temp_path("never-written"));
    assert!(matches!(missing, RecoverOutcome::Discarded { reason } if reason.contains("missing")));

    // Snapshot with 2 shards, recover into 3: header mismatch.
    let path = temp_path("drift");
    let service = IngestService::new(config(2, 0, 0.0), bank_factory());
    push_all(&service, &mixed_feed(10, 4), &Collect::default());
    service.snapshot(&path).expect("snapshot writes");
    let other = IngestService::new(config(3, 0, 0.0), bank_factory());
    assert!(
        matches!(other.recover(&path), RecoverOutcome::Discarded { reason } if reason.contains("header")),
        "shard-count drift must discard"
    );

    // A well-formed snapshot whose header names the retired `full`
    // tiering mode is refused on its header, and the service stays cold.
    let path = temp_path("tiering-drift");
    let content: String = [
        "serve-snapshot v2 shards=2 tiering=full",
        "stream 00000000deadbeef esc=1 t1=- slots=2 h:- h:-",
        "end streams=1 queued=0",
    ]
    .iter()
    .map(|line| detdiv_resil::checksum_line(line) + "\n")
    .collect();
    std::fs::write(&path, content).unwrap();
    assert!(
        matches!(fresh.recover(&path), RecoverOutcome::Discarded { reason } if reason.contains("header"))
    );
    assert_eq!(fresh.stream_count(), 0);
}

#[test]
fn a_checksummed_line_with_non_hex_state_is_discarded_not_fatal() {
    // `aéb` is four bytes, an even length, but not hex: a checksum-valid
    // line carrying it must discard the snapshot, not panic the parser.
    let path = temp_path("non-hex");
    let content: String = [
        "serve-snapshot v2 shards=2 tiering=gate",
        "stream 00000000deadbeef esc=0 t1=aéb slots=0",
        "end streams=1 queued=0",
    ]
    .iter()
    .map(|line| detdiv_resil::checksum_line(line) + "\n")
    .collect();
    std::fs::write(&path, content).unwrap();
    let fresh = IngestService::new(config(2, 0, 0.0), bank_factory());
    assert!(
        matches!(fresh.recover(&path), RecoverOutcome::Discarded { reason } if reason.contains("malformed stream line"))
    );
    assert_eq!(fresh.stream_count(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bank_shape_drift_degrades_to_cold_start_streams() {
    let path = temp_path("bank-drift");
    let service = IngestService::new(config(2, 0, 0.0), bank_factory());
    push_all(&service, &mixed_feed(10, 4), &Collect::default());
    service.snapshot(&path).expect("snapshot writes");

    // Same shape, but a one-slot bank: every stream's two-slot snapshot
    // is refused and restarts cold — counted, not fatal.
    let other = IngestService::new(config(2, 0, 0.0), || {
        vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>]
    });
    match other.recover(&path) {
        RecoverOutcome::Recovered { streams, skipped } => {
            assert_eq!(streams, 6);
            assert_eq!(skipped, 6, "every stream's bank shape drifted");
        }
        RecoverOutcome::Discarded { reason } => panic!("should recover with skips: {reason}"),
    }
    // Cold-started streams warm up from scratch and serve fine.
    let sink = Collect::default();
    push_all(&other, &mixed_feed(8, 2), &sink);
    assert!(sink.total() > 0);
}
