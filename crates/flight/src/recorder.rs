//! The audit-log recorder: per-thread rings, a bounded central sink,
//! and deterministic checksummed export.
//!
//! Records are buffered in the per-thread rings of
//! [`detdiv_obs::ring`], the same rings the Chrome trace uses:
//! recording is a relaxed atomic load (the armed gate), a thread-local
//! borrow, and a push — no locks on the hot path. Full rings
//! batch-flush into a central sink; the sink is capped and overflow is
//! **counted**, never blocking and never growing without bound.
//!
//! Unlike the trace recorder, records carry no timestamps and the
//! export sorts payloads lexicographically before writing, so two runs
//! of the same configuration produce byte-identical dumps regardless
//! of flush interleaving.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use detdiv_obs::ring::{Collector, ThreadRing};

use crate::blackbox;

/// Per-thread ring capacity, in records, before a batch flush to the
/// central sink.
pub const RING_CAPACITY: usize = 4096;

/// Central sink capacity, in records; records beyond this are dropped
/// (and counted) instead of growing memory without bound.
pub const SINK_CAPACITY: usize = 1_000_000;

/// Whether the recorder is armed. Checked first by every record path.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The central sink every thread's ring flushes into.
static COLLECTOR: Collector<String> = Collector::new(RING_CAPACITY, SINK_CAPACITY);

/// Records accepted since arm (or the last [`reset`]).
static RECORDED: AtomicU64 = AtomicU64::new(0);

fn armed_path() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

thread_local! {
    static RING: RefCell<ThreadRing<String>> = const { RefCell::new(ThreadRing::new(&COLLECTOR)) };
}

/// Whether the recorder is armed: one relaxed atomic load, the only
/// cost the decision paths pay when flight recording is off.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the recorder with its eventual export destination, chains the
/// crash-dump panic hook (once per process), and installs the
/// `detdiv-resil` failure observer so every supervised unit that
/// exhausts its retries leaves a `failure` record. Subsequent
/// [`record`] calls are accepted until [`disarm`].
pub fn arm(path: &str) {
    *armed_path().lock().unwrap_or_else(PoisonError::into_inner) = Some(path.to_owned());
    blackbox::install_panic_hook();
    detdiv_resil::set_failure_observer(Box::new(|site, attempts, error| {
        record(
            crate::record::FailureRecord {
                site,
                attempts,
                error,
            }
            .render(),
        );
    }));
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the recorder. Already-buffered records stay in the sink
/// until drained by [`export`] or [`reset`]; the armed path is kept so
/// a post-run export still knows its destination.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// The export path the recorder was armed with, if any.
pub fn path() -> Option<String> {
    armed_path()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// The flight output path configured in the environment
/// (`DETDIV_FLIGHT=<path>`), if any. Reading the variable does **not**
/// arm the recorder; binaries combine this with their `--flight` flag
/// and call [`arm`] themselves.
pub fn env_path() -> Option<String> {
    match std::env::var("DETDIV_FLIGHT") {
        Ok(path) if !path.trim().is_empty() => Some(path),
        _ => None,
    }
}

/// Records one rendered wide-event payload. No-op unless [`armed`].
/// The payload also lands in the crash [`blackbox`] ring, so the last
/// decisions before a failure are always recoverable.
pub fn record(payload: String) {
    if !armed() {
        return;
    }
    RECORDED.fetch_add(1, Ordering::Relaxed);
    blackbox::note(&payload);
    RING.with(|ring| ring.borrow_mut().push(payload));
}

/// Records dropped so far because the central sink was full.
pub fn dropped() -> u64 {
    COLLECTOR.dropped()
}

/// Records accepted so far (including any later dropped at a flush).
pub fn recorded() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

/// Flushes the calling thread's ring into the central sink.
///
/// **Scoped threads must call this before returning**: see
/// [`detdiv_obs::ring`] for why the exit flush can come too late.
pub fn flush_thread() {
    RING.with(|ring| ring.borrow_mut().flush());
}

/// Drains every buffered record out of the central sink (flushing the
/// calling thread first), leaving the sink empty. Order is flush
/// order, *not* deterministic — [`export`] sorts.
pub fn drain() -> Vec<String> {
    flush_thread();
    COLLECTOR.drain()
}

/// Clears the sink, the calling thread's ring, the counters, the
/// armed path, and the blackbox (test hook; also useful between
/// repeated armed runs in one process).
pub fn reset() {
    RING.with(|ring| ring.borrow_mut().clear());
    COLLECTOR.clear();
    RECORDED.store(0, Ordering::Relaxed);
    *armed_path().lock().unwrap_or_else(PoisonError::into_inner) = None;
    blackbox::reset();
}

/// Renders drained payloads as the on-disk dump: payloads sorted
/// lexicographically, a `footer` record appended, and every line
/// checksummed in the `detdiv-resil` journal wire format.
pub(crate) fn render_dump(payloads: &mut [String]) -> String {
    payloads.sort_unstable();
    let footer = format!(
        "{{\"t\":\"footer\",\"records\":{},\"dropped\":{}}}",
        payloads.len(),
        dropped()
    );
    let mut out = String::with_capacity(payloads.iter().map(|p| p.len() + 18).sum::<usize>() + 64);
    for payload in payloads.iter().chain(std::iter::once(&footer)) {
        out.push_str(&detdiv_resil::checksum_line(payload));
        out.push('\n');
    }
    out
}

/// Drains the sink and writes the sorted, checksummed audit log to
/// `path` (crash-safely, via [`detdiv_resil::AtomicFile`]), returning
/// the number of exported records (excluding the footer line).
/// Destructive: the sink is left empty.
///
/// # Errors
///
/// Propagates the underlying file write error; `path` is untouched on
/// failure.
pub fn export(path: &str) -> io::Result<usize> {
    let mut payloads = drain();
    let text = render_dump(&mut payloads);
    // The recorder is an observer: its write must neither fail under
    // an armed chaos plan nor claim hits at the shared I/O fault site
    // (which would shift injection decisions for the run's real
    // artifacts and break the flight-on/flight-off identity the CI
    // gate `cmp`s).
    let _no_faults = detdiv_resil::suppress();
    detdiv_resil::AtomicFile::write(path, text)?;
    Ok(payloads.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StreamRecord;

    fn sample(i: u64) -> String {
        StreamRecord {
            stream_label: "unit",
            stream_hash: 1,
            slot: 0,
            detector: "ewma",
            event_index: i,
            score: 0.1,
            confidence: 1.0,
            reason: "normal",
            warmup: false,
        }
        .render()
    }

    #[test]
    fn disarmed_records_nothing() {
        let _guard = crate::test_lock();
        reset();
        disarm();
        record(sample(0));
        assert!(drain().is_empty());
        assert_eq!(recorded(), 0);
    }

    #[test]
    fn armed_records_and_the_path_is_kept_after_disarm() {
        let _guard = crate::test_lock();
        reset();
        arm("unit.flight");
        record(sample(1));
        record(sample(2));
        disarm();
        assert_eq!(path().as_deref(), Some("unit.flight"));
        let records = drain();
        assert_eq!(records.len(), 2);
        assert_eq!(recorded(), 2);
        reset();
    }

    #[test]
    fn dump_rendering_is_sorted_and_checksummed() {
        let _guard = crate::test_lock();
        reset();
        let mut payloads = vec![sample(9), sample(1), sample(5)];
        let dump = render_dump(&mut payloads);
        // Sorted: event_index 1 before 5 before 9.
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4, "3 records + footer");
        assert!(lines[0].contains("\"event_index\":1"));
        assert!(lines[1].contains("\"event_index\":5"));
        assert!(lines[2].contains("\"event_index\":9"));
        assert!(lines[3].contains("\"t\":\"footer\""));
        // Every line round-trips through the journal checksum parser.
        for line in &lines {
            let (sum, payload) = line.split_at(16);
            let expect = detdiv_resil::checksum_line(payload.strip_prefix(' ').unwrap());
            assert!(expect.starts_with(sum), "checksum mismatch on {line}");
        }
    }

    #[test]
    fn sink_overflow_is_counted_not_grown() {
        let _guard = crate::test_lock();
        reset();
        arm("overflow.flight");
        // Fill the sink directly to one ring below capacity, then push
        // two rings' worth through the thread ring.
        {
            let mut sink = COLLECTOR.sink();
            sink.clear();
            sink.resize(SINK_CAPACITY - RING_CAPACITY / 2, String::new());
        }
        for i in 0..RING_CAPACITY as u64 {
            record(sample(i));
        }
        flush_thread();
        disarm();
        assert!(dropped() >= RING_CAPACITY as u64 / 2, "{}", dropped());
        let sunk = COLLECTOR.sink().len();
        assert_eq!(sunk, SINK_CAPACITY);
        reset();
    }

    #[test]
    fn export_writes_a_journal_loadable_file() {
        let _guard = crate::test_lock();
        reset();
        let dir = std::env::temp_dir().join(format!("detdiv-flight-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("unit.flight");
        arm(out.to_str().unwrap());
        record(sample(3));
        record(sample(1));
        disarm();
        let n = export(out.to_str().unwrap()).unwrap();
        assert_eq!(n, 2);
        let loaded = detdiv_resil::Journal::load(&out).unwrap();
        assert_eq!(loaded.len(), 3, "2 records + footer");
        assert!(loaded[0].contains("\"event_index\":1"));
        assert!(loaded[2].contains("\"t\":\"footer\""));
        std::fs::remove_dir_all(&dir).ok();
        reset();
    }
}
