//! Golden serve artifacts: byte-level pins of what a gated, guarded
//! service writes to disk and emits.
//!
//! The determinism suites compare runs with each other (worker widths,
//! guarded vs unguarded). A layout change that alters bytes the same
//! way in every run passes all of them. These fixtures were written by
//! one fixed scenario and are compared byte for byte:
//!
//! * `snapshot.snap` — the `snapshot()` file, with escalated streams,
//!   hibernated streams (read back from their segment records) and
//!   queued residue;
//! * `segments.txt` — every hibernation segment file, in shard order:
//!   the spilled stream lines and the order the LRU pass wrote them;
//! * `digest.txt` — an FNV-1a digest over every verdict, folded per
//!   shard (per-shard order is fixed at every worker width).
//!
//! To re-bless after an intentional format change:
//! `DETDIV_BLESS=1 cargo test -p detdiv-serve --test golden`, then
//! review the fixture diff.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use detdiv_core::SequenceAnomalyDetector;
use detdiv_detectors::Stide;
use detdiv_guard::GuardConfig;
use detdiv_resil::Fnv1a;
use detdiv_sequence::{symbols, StreamProfile, Symbol};
use detdiv_serve::{IngestService, ServeConfig, Tier1Config, VerdictEvent, VerdictSink};
use detdiv_stream::{hash_stream_id, Ewma, ModelAdapter, SignalContext, StreamDetector};

const SHARDS: usize = 2;
const STREAMS: usize = 16;

fn bank_factory() -> impl Fn() -> Vec<Box<dyn StreamDetector>> + Send + Sync + 'static {
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

/// Per-shard verdict digests, folded in shard order.
struct DigestSink(Vec<Mutex<Fnv1a>>);

impl VerdictSink for DigestSink {
    fn on_verdict(&self, event: &VerdictEvent) {
        let mut digest = self.0[event.shard].lock().unwrap();
        for word in [
            event.stream_hash,
            event.seq,
            u64::from(event.tier == detdiv_serve::Tier::Model),
            event.slot as u64,
            event.result.score.to_bits(),
            event.result.confidence.to_bits(),
        ] {
            digest.write(&word.to_le_bytes());
        }
        digest.write(event.result.reason.as_bytes());
    }
}

/// Event `i` of stream `s`: a symbol cycling through the trained
/// alphabet and a value with a planted spike on every fourth stream.
fn event(s: usize, i: u64) -> SignalContext {
    let hash = hash_stream_id(&format!("golden-{s}"));
    let symbol = (i as u32 + s as u32) % 5;
    let value = if s.is_multiple_of(4) && i == 4 {
        90.0
    } else {
        5.0 + ((i as usize * 7 + s * 3) % 5) as f64
    };
    SignalContext::new(i, hash, Symbol::new(symbol), value)
}

struct Artifacts {
    snapshot: Vec<u8>,
    segments: Vec<u8>,
    digest: String,
}

/// Runs the fixed scenario in `dir`: streams 0–7, then 8–15, then 0–3
/// again (so idle streams hibernate and come back), draining every 16
/// offers, then leaves a few events queued and snapshots.
fn run_scenario(dir: &Path) -> Artifacts {
    let config = ServeConfig::new(SHARDS, 64).gated(Tier1Config {
        alpha: 0.3,
        warmup: 2,
        escalate_score: 0.7,
    });
    let guard = GuardConfig {
        budget_bytes: Some(2 * 6 * 64),
        spill_dir: Some(dir.join("spill")),
        ..GuardConfig::default()
    };
    let service = IngestService::with_guard(config, guard, bank_factory()).unwrap();
    let sink = DigestSink((0..SHARDS).map(|_| Mutex::new(Fnv1a::new())).collect());
    let mut cursors = [0u64; STREAMS];
    let mut offered = 0u64;
    for phase in [0..8, 8..16, 0..4] {
        for _round in 0..6 {
            for s in phase.clone() {
                service.enqueue(event(s, cursors[s])).unwrap();
                cursors[s] += 1;
                offered += 1;
                if offered.is_multiple_of(16) {
                    service.drain(&sink);
                }
            }
        }
    }
    service.drain(&sink);
    for s in [1, 9] {
        service.enqueue(event(s, cursors[s])).unwrap();
    }
    let snap = dir.join("state.snap");
    service.snapshot(&snap).unwrap();
    let mut segments = Vec::new();
    for index in 0..SHARDS {
        let path = dir.join("spill").join(format!("shard-{index}.seg"));
        segments.extend_from_slice(format!("== shard-{index}.seg\n").as_bytes());
        segments.extend_from_slice(&std::fs::read(path).unwrap());
    }
    let mut folded = Fnv1a::new();
    for d in &sink.0 {
        folded.write(&d.lock().unwrap().finish().to_le_bytes());
    }
    Artifacts {
        snapshot: std::fs::read(&snap).unwrap(),
        segments,
        digest: format!("{:016x}\n", folded.finish()),
    }
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("DETDIV_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    assert!(
        committed == actual,
        "{name} drifted from its golden fixture ({} bytes committed, {} produced); \
         run with DETDIV_BLESS=1 only after an intentional format change",
        committed.len(),
        actual.len()
    );
}

/// The fault plan is process-wide: the stalled run must not overlap
/// the plain one.
static FAULTS: Mutex<()> = Mutex::new(());

/// Runs the scenario in a fresh directory named by `tag`.
fn run_in_temp(tag: &str) -> Artifacts {
    let dir =
        std::env::temp_dir().join(format!("detdiv-serve-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let artifacts = run_scenario(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    artifacts
}

#[test]
fn gated_guarded_service_artifacts_match_their_golden_fixtures() {
    let _faults = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let artifacts = run_in_temp("plain");
    let snapshot = String::from_utf8_lossy(&artifacts.snapshot);
    // The scenario must cover what the fixtures claim to pin.
    let segments = String::from_utf8_lossy(&artifacts.segments);
    assert!(snapshot.contains(" esc=1 "), "no escalated stream");
    assert!(snapshot.contains(" queued "), "no queued residue");
    assert!(
        segments.contains(" esc=1 "),
        "no escalated stream hibernated"
    );
    check("snapshot.snap", &artifacts.snapshot);
    check("segments.txt", &artifacts.segments);
    check("digest.txt", artifacts.digest.as_bytes());
}

/// Every guard decision reads counters, never a clock: drains slowed
/// by injected stalls (at the `serve/drain` and `stream/update` sites)
/// must leave every artifact identical to the unthrottled fixtures.
#[test]
fn stalled_drains_leave_every_artifact_unchanged() {
    let _faults = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    detdiv_resil::reset_all();
    detdiv_resil::arm(detdiv_resil::FaultPlan::parse("7:5%:stall:2").unwrap());
    let artifacts = run_in_temp("stalled");
    detdiv_resil::disarm();
    assert!(
        detdiv_resil::stats().injected_stalls > 0,
        "the plan never stalled a drain"
    );
    check("digest.txt", artifacts.digest.as_bytes());
    check("snapshot.snap", &artifacts.snapshot);
    check("segments.txt", &artifacts.segments);
}
