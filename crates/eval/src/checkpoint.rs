//! Journaled checkpoint/resume for coverage-map rows.
//!
//! When armed (by `regenerate --resume`, or any caller of [`arm`]),
//! every completed coverage row is appended to a [`detdiv_resil::Journal`]
//! as one checksummed line. A process killed mid-sweep leaves a journal
//! whose intact prefix survives; the next run arms the same path, loads
//! the finished rows, and `lookup` serves them instead of recomputing
//! — only the missing cells are paid for again. Because every row is
//! deterministic (the detector-conformance contract), the resumed run's
//! artifacts are byte-identical to an uninterrupted run's.
//!
//! Rows are keyed by `(corpus tag, detector identity, window)`:
//!
//! * the **corpus tag** is the FNV fingerprint + length of the training
//!   stream, so a journal recorded against one corpus can never satisfy
//!   a sweep over another (a changed seed or grid recomputes honestly);
//! * the **detector identity** is the full `Debug` rendering of
//!   [`DetectorKind`], hyperparameters included — the same identity the
//!   model cache keys on.
//!
//! Cell statuses serialize as single letters (`D`/`W`/`B`/`U`/`F`) with
//! their anomaly sizes, never through floating point, so a loaded row
//! reproduces the recorded row exactly.
//!
//! Disarmed (the default), every hook is a no-op behind one relaxed
//! atomic load.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use detdiv_core::CellStatus;
use detdiv_resil::Journal;
use detdiv_synth::Corpus;

use crate::kinds::DetectorKind;

/// One recorded row: the `(anomaly size, status)` cells of a single
/// (detector, window) grid row, ascending by anomaly size.
type Row = Vec<(usize, CellStatus)>;

/// Fast disarmed-path gate (mirrors `detdiv-resil`'s convention: one
/// relaxed load when the subsystem is off).
static ARMED: AtomicBool = AtomicBool::new(false);

struct State {
    journal: Journal,
    /// Rows loaded from the journal at arm time plus rows recorded
    /// since, keyed by `tag|kind|window`.
    rows: HashMap<String, Row>,
}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("journal", &self.journal.path())
            .field("rows", &self.rows.len())
            .finish()
    }
}

fn state() -> &'static Mutex<Option<State>> {
    static STATE: OnceLock<Mutex<Option<State>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
    state().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether checkpointing is armed for this process.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms row checkpointing against the journal at `path`, loading every
/// intact previously-recorded row (a torn tail line from a killed run
/// is discarded by the journal layer). Returns how many rows were
/// resumed.
///
/// # Errors
///
/// Propagates journal open/load failures, including detected interior
/// corruption — a corrupt checkpoint must fail loudly, not silently
/// recompute half a sweep.
pub fn arm(path: impl AsRef<Path>) -> io::Result<usize> {
    let path = path.as_ref();
    let lines = Journal::load(path)?;
    let mut rows = HashMap::with_capacity(lines.len());
    for line in &lines {
        if let Some((key, row)) = parse_record(line) {
            rows.insert(key, row);
        }
        // Unparseable-but-checksummed lines belong to a future format;
        // ignoring them keeps old binaries from destroying new state.
    }
    let journal = Journal::open(path)?;
    let resumed = rows.len();
    *lock() = Some(State { journal, rows });
    ARMED.store(true, Ordering::Relaxed);
    Ok(resumed)
}

/// Disarms checkpointing, leaving the journal file on disk for a later
/// resume.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *lock() = None;
}

/// Disarms checkpointing and deletes the journal: the run completed, so
/// nothing remains to resume from.
///
/// # Errors
///
/// Propagates journal removal failures (absence is fine).
pub fn finish() -> io::Result<()> {
    let path = {
        let mut guard = lock();
        let path = guard.as_ref().map(|s| s.journal.path().to_path_buf());
        *guard = None;
        path
    };
    ARMED.store(false, Ordering::Relaxed);
    match path {
        Some(path) => Journal::remove(path),
        None => Ok(()),
    }
}

/// The corpus identity rows are keyed under, or `None` when disarmed.
/// `fingerprint` is the training stream's
/// [`detdiv_cache::fingerprint_stream`], which the sweep computes once
/// for its model-cache keys as well. Computed once per map, not once
/// per row.
pub(crate) fn corpus_tag(corpus: &Corpus, fingerprint: u64) -> Option<String> {
    if !armed() {
        return None;
    }
    Some(format!("{fingerprint:016x}x{}", corpus.training().len()))
}

fn row_key(tag: &str, kind: &DetectorKind, window: usize) -> String {
    format!("{tag}|{kind:?}|{window}")
}

/// A previously-recorded row for `(tag, kind, window)`, if the journal
/// holds one.
pub(crate) fn lookup(tag: &str, kind: &DetectorKind, window: usize) -> Option<Row> {
    if !armed() {
        return None;
    }
    lock()
        .as_ref()?
        .rows
        .get(&row_key(tag, kind, window))
        .cloned()
}

/// Records a completed row: appended (checksummed + fsynced) to the
/// journal and added to the in-memory index. Append failures degrade to
/// a warning — checkpointing is an aid, never a reason to fail a
/// healthy sweep.
pub(crate) fn record(tag: &str, kind: &DetectorKind, window: usize, row: &[(usize, CellStatus)]) {
    if !armed() {
        return;
    }
    let key = row_key(tag, kind, window);
    let line = format!("row|{key}|{}", encode_cells(row));
    let mut guard = lock();
    let Some(state) = guard.as_mut() else {
        return;
    };
    if let Err(e) = state.journal.append(&line) {
        drop(guard);
        detdiv_obs::warn!("checkpoint append failed", error = format!("{e}"));
        return;
    }
    state.rows.insert(key, row.to_vec());
}

pub(crate) fn status_letter(status: CellStatus) -> char {
    match status {
        CellStatus::Detect => 'D',
        CellStatus::Weak => 'W',
        CellStatus::Blind => 'B',
        CellStatus::Undefined => 'U',
        CellStatus::Failed => 'F',
    }
}

fn letter_status(letter: &str) -> Option<CellStatus> {
    Some(match letter {
        "D" => CellStatus::Detect,
        "W" => CellStatus::Weak,
        "B" => CellStatus::Blind,
        "U" => CellStatus::Undefined,
        "F" => CellStatus::Failed,
        _ => return None,
    })
}

fn encode_cells(row: &[(usize, CellStatus)]) -> String {
    row.iter()
        .map(|&(a, s)| format!("{a}:{}", status_letter(s)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses one journal payload back into `(row key, cells)`; `None` for
/// records of other (future) kinds.
fn parse_record(line: &str) -> Option<(String, Row)> {
    let rest = line.strip_prefix("row|")?;
    // The key itself contains '|' separators (tag|kind|window); the
    // cells are everything after the *last* '|'.
    let (key, cells) = rest.rsplit_once('|')?;
    let mut row = Vec::new();
    for cell in cells.split(',') {
        let (a, s) = cell.split_once(':')?;
        // ASCII digits only, as `encode_cells` writes them: `parse`
        // alone would also take a sign.
        if a.is_empty() || !a.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        row.push((a.parse().ok()?, letter_status(s)?));
    }
    Some((key.to_owned(), row))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("detdiv-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("rows.journal")
    }

    // Checkpoint state is process-global; exercise arm/record/lookup/
    // finish in ONE test so parallel test threads cannot interleave
    // arm/disarm cycles.
    #[test]
    fn checkpoint_roundtrip_resume_and_finish() {
        let path = temp_journal("roundtrip");
        let kind = DetectorKind::Stide;
        let row: Row = vec![
            (1, CellStatus::Undefined),
            (2, CellStatus::Detect),
            (3, CellStatus::Weak),
            (4, CellStatus::Blind),
        ];

        assert!(!armed());
        assert_eq!(lookup("tag", &kind, 6), None, "disarmed lookup is None");
        record("tag", &kind, 6, &row); // disarmed: no-op
        assert_eq!(arm(&path).unwrap(), 0, "fresh journal resumes nothing");
        assert!(armed());

        record("tag", &kind, 6, &row);
        assert_eq!(lookup("tag", &kind, 6).as_deref(), Some(row.as_slice()));
        assert_eq!(lookup("othertag", &kind, 6), None);
        assert_eq!(lookup("tag", &DetectorKind::Markov, 6), None);
        assert_eq!(lookup("tag", &kind, 7), None);

        // A second arm (the resume path) reloads the recorded row.
        disarm();
        assert!(!armed());
        assert_eq!(arm(&path).unwrap(), 1, "one row resumed");
        assert_eq!(lookup("tag", &kind, 6).as_deref(), Some(row.as_slice()));

        // Hyperparameters are part of the identity.
        let loose = DetectorKind::MarkovRare {
            rare_threshold: 0.02,
        };
        let tight = DetectorKind::MarkovRare {
            rare_threshold: 0.2,
        };
        record("tag", &loose, 3, &row);
        assert!(lookup("tag", &loose, 3).is_some());
        assert_eq!(lookup("tag", &tight, 3), None);

        finish().unwrap();
        assert!(!armed());
        assert!(!path.exists(), "finish removes the journal");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn record_encoding_roundtrips_every_status() {
        let row: Row = vec![
            (1, CellStatus::Undefined),
            (2, CellStatus::Detect),
            (3, CellStatus::Weak),
            (4, CellStatus::Blind),
            (5, CellStatus::Failed),
        ];
        let line = format!("row|tag|Stide|6|{}", encode_cells(&row));
        let (key, parsed) = parse_record(&line).unwrap();
        assert_eq!(key, "tag|Stide|6");
        assert_eq!(parsed, row);
        // Non-row and malformed records parse to None, not a panic.
        assert!(parse_record("header|v1").is_none());
        assert!(parse_record("row|tag|Stide|6|2:X").is_none());
        assert!(parse_record("row|tag|Stide|6|nocolon").is_none());
        assert!(parse_record("row|tag|Stide|6|+3:D").is_none());
        assert!(parse_record("row|tag|Stide|6|2:D,+3:D").is_none());
        assert!(parse_record("row|tag|Stide|6|:D").is_none());
    }
}
