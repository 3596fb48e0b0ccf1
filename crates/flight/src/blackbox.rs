//! The crash flight recorder: a bounded global ring of the most recent
//! wide events, dumped atomically when something goes wrong.
//!
//! Every record accepted by the armed recorder is also noted here, in
//! a [`BLACKBOX_CAPACITY`]-bounded ring that keeps the **newest**
//! events (oldest are evicted first, like an aircraft flight
//! recorder). Three things trigger a dump to `<armed path>.crash`:
//!
//! * a **panic** anywhere in the process, via a chained panic hook
//!   ([`install_panic_hook`]) — the hook runs even for panics later
//!   caught by `catch_unwind`, so an injected chaos panic or a
//!   degrading stream slot leaves an artifact before supervision
//!   swallows it;
//! * a **stream degradation**, reported by the engine through
//!   [`dump_on_degradation`];
//! * an explicit [`dump`] call (on-demand post-mortems).
//!
//! The dump is checksummed line-by-line in the journal wire format
//! (a `crash` header carrying counter totals *and deltas since the
//! previous dump*, then the ring oldest-first) and written via
//! [`detdiv_resil::AtomicFile`], so a partial artifact can never be
//! observed. `detdiv-scope`'s `GET /flightz` serves the live ring
//! through [`tail`].

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};

/// Bounded size of the crash ring: enough context to reconstruct the
/// moments before a failure without unbounded memory.
pub const BLACKBOX_CAPACITY: usize = 256;

fn ring() -> &'static Mutex<VecDeque<String>> {
    static RING: OnceLock<Mutex<VecDeque<String>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(BLACKBOX_CAPACITY)))
}

/// Counter values at the previous dump, for the header's delta fields:
/// `(recorded, degraded_cells)`.
fn last_dump() -> &'static Mutex<(u64, u64)> {
    static LAST: OnceLock<Mutex<(u64, u64)>> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new((0, 0)))
}

/// Appends one payload to the crash ring, evicting the oldest entry
/// when full. Called by the recorder for every accepted record.
pub(crate) fn note(payload: &str) {
    let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    if ring.len() >= BLACKBOX_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(payload.to_owned());
}

/// The newest `limit` ring entries, oldest first. `detdiv-scope`'s
/// `/flightz` endpoint serves this.
pub fn tail(limit: usize) -> Vec<String> {
    let ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    let skip = ring.len().saturating_sub(limit);
    ring.iter().skip(skip).cloned().collect()
}

/// Number of events currently held in the crash ring.
pub fn len() -> usize {
    ring().lock().unwrap_or_else(PoisonError::into_inner).len()
}

/// Clears the crash ring and the delta baseline (test hook).
pub fn reset() {
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    *last_dump().lock().unwrap_or_else(PoisonError::into_inner) = (0, 0);
}

/// The crash-dump destination derived from the armed flight path
/// (`<path>.crash`), if the recorder has one.
pub fn crash_path() -> Option<String> {
    crate::recorder::path().map(|p| format!("{p}.crash"))
}

/// Renders the crash dump: a `crash` header line with counter totals
/// and deltas since the previous dump, then the ring oldest-first,
/// every line checksummed in the journal wire format.
pub fn render(reason: &str) -> String {
    let recorded = crate::recorder::recorded();
    let degraded_cells = detdiv_resil::stats().degraded_cells;
    let (delta_recorded, delta_degraded) = {
        let mut last = last_dump().lock().unwrap_or_else(PoisonError::into_inner);
        let deltas = (
            recorded.saturating_sub(last.0),
            degraded_cells.saturating_sub(last.1),
        );
        *last = (recorded, degraded_cells);
        deltas
    };
    let ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    let mut header = String::with_capacity(192);
    header.push_str("{\"t\":\"crash\",\"reason\":\"");
    detdiv_obs::push_json_escaped(&mut header, reason);
    use std::fmt::Write as _;
    let _ = write!(
        header,
        "\",\"events\":{},\"recorded\":{recorded},\"dropped\":{},\
         \"degraded_cells\":{degraded_cells},\"degraded_streams\":{},\
         \"delta_recorded\":{delta_recorded},\"delta_degraded_cells\":{delta_degraded}}}",
        ring.len(),
        crate::recorder::dropped(),
        crate::streams::degraded_streams(),
    );
    let mut out =
        String::with_capacity(header.len() + ring.iter().map(|p| p.len() + 18).sum::<usize>() + 32);
    out.push_str(&detdiv_resil::checksum_line(&header));
    out.push('\n');
    for payload in ring.iter() {
        out.push_str(&detdiv_resil::checksum_line(payload));
        out.push('\n');
    }
    out
}

/// Dumps the crash ring to `path` atomically. Non-destructive: the
/// ring keeps recording after the dump.
///
/// # Errors
///
/// Propagates the underlying file write error.
pub fn dump(path: &str, reason: &str) -> io::Result<usize> {
    let text = render(reason);
    // The dump is a last-resort diagnostic and often runs inside the
    // panic hook: fault injection must be inert here, or an injected
    // panic at the writer's I/O site would be a double panic (abort)
    // under exactly the chaos runs the dump exists to explain.
    let _no_faults = detdiv_resil::suppress();
    detdiv_resil::AtomicFile::write(path, text)?;
    Ok(len())
}

/// Best-effort dump to the derived crash path; errors (and a missing
/// armed path) are swallowed — this runs inside panic hooks and hot
/// engine paths where failing to dump must not cascade.
fn dump_best_effort(reason: &str) {
    static IN_DUMP: AtomicBool = AtomicBool::new(false);
    if IN_DUMP.swap(true, Ordering::SeqCst) {
        // Re-entrant panic while dumping: bail rather than recurse.
        return;
    }
    if let Some(path) = crash_path() {
        let _ = dump(&path, reason);
    }
    IN_DUMP.store(false, Ordering::SeqCst);
}

/// Reports a stream-slot degradation: dumps the crash ring (when the
/// recorder is armed with a path) so every `stream/degraded` increment
/// leaves a post-mortem artifact.
pub fn dump_on_degradation() {
    dump_best_effort("stream-degraded");
}

/// Chains a panic hook (once per process) that dumps the crash ring
/// before delegating to the previously installed hook. Installed by
/// [`crate::arm`]; panics caught later by `catch_unwind` still pass
/// through the hook, so supervised chaos panics leave artifacts too.
pub fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_best_effort("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_keeps_the_newest_events_in_order() {
        let _guard = crate::test_lock();
        reset();
        for i in 0..(BLACKBOX_CAPACITY + 10) {
            note(&format!("{{\"t\":\"test\",\"i\":{i}}}"));
        }
        assert_eq!(len(), BLACKBOX_CAPACITY);
        let all = tail(usize::MAX);
        // Oldest surviving entry is the 10th pushed; order preserved.
        assert_eq!(all.first().unwrap(), "{\"t\":\"test\",\"i\":10}");
        assert_eq!(
            all.last().unwrap(),
            &format!("{{\"t\":\"test\",\"i\":{}}}", BLACKBOX_CAPACITY + 9)
        );
        assert!(all
            .windows(2)
            .all(|w| w[0] < w[1] || w[0].len() < w[1].len()));
        reset();
    }

    #[test]
    fn tail_limits_from_the_newest_end() {
        let _guard = crate::test_lock();
        reset();
        for i in 0..5 {
            note(&format!("e{i}"));
        }
        assert_eq!(tail(2), vec!["e3".to_owned(), "e4".to_owned()]);
        reset();
    }

    #[test]
    fn render_is_checksummed_and_ordered() {
        let _guard = crate::test_lock();
        reset();
        note("{\"t\":\"test\",\"i\":0}");
        note("{\"t\":\"test\",\"i\":1}");
        let text = render("unit");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 events");
        assert!(lines[0].contains("\"t\":\"crash\""), "{}", lines[0]);
        assert!(lines[0].contains("\"reason\":\"unit\""));
        assert!(lines[1].contains("\"i\":0"));
        assert!(lines[2].contains("\"i\":1"));
        reset();
    }

    #[test]
    fn dump_writes_a_journal_loadable_artifact() {
        let _guard = crate::test_lock();
        reset();
        let dir =
            std::env::temp_dir().join(format!("detdiv-flight-blackbox-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.flight.crash");
        note("{\"t\":\"test\",\"i\":7}");
        dump(path.to_str().unwrap(), "unit-dump").unwrap();
        let loaded = detdiv_resil::Journal::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded[0].contains("\"reason\":\"unit-dump\""));
        std::fs::remove_dir_all(&dir).ok();
        reset();
    }

    #[test]
    fn header_reports_deltas_since_previous_dump() {
        let _guard = crate::test_lock();
        reset();
        // First render establishes the baseline; the second must show a
        // zero delta when no records were accepted in between.
        let _ = render("first");
        let second = render("second");
        assert!(second.contains("\"delta_recorded\":0"), "{second}");
        reset();
    }
}
