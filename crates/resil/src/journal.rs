//! Append-only, per-line checksummed checkpoint journal.
//!
//! The journal is the substrate for `regenerate --resume`: each
//! completed unit of work (a coverage-map row, in the evaluation layer)
//! is appended as one line and fsynced, so a process killed at any
//! instant loses at most the line being written. On load, every line's
//! checksum is verified; a torn tail line (the signature of a mid-append
//! `SIGKILL`) is detected and silently discarded, while corruption
//! *before* the tail is reported as an error — that indicates tampering
//! or disk fault, not a crash.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::fault::io_point;
use crate::fnv::fnv1a;

/// Fault-injection site claimed once per journal append.
const APPEND_SITE: &str = "io/journal_append";

/// Renders `payload` as one checksummed journal line **without** the
/// trailing newline: `<fnv1a-hex-16> <payload>`. This is the exact
/// wire format [`Journal`] appends and [`Journal::load`] verifies, so
/// other subsystems (the flight recorder's audit dumps) can emit
/// journal-compatible files without owning a `Journal`.
pub fn checksum_line(payload: &str) -> String {
    let mut line = String::with_capacity(CHECKSUM_PREFIX + payload.len());
    push_checksum_line(&mut line, |out| out.push_str(payload));
    line
}

/// Bytes a checksummed line carries before its payload: sixteen hex
/// digits and a space.
const CHECKSUM_PREFIX: usize = 17;

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `value` as sixteen lowercase hex digits, most significant first —
/// the bytes `format!("{value:016x}")` renders.
fn hex16(value: u64) -> [u8; 16] {
    std::array::from_fn(|i| HEX_DIGITS[(value >> (60 - 4 * i)) as usize & 0xf])
}

/// Appends `bytes` to `out` as lowercase hex, two digits per byte.
///
/// # Examples
///
/// ```
/// let mut out = String::from("t1=");
/// detdiv_resil::push_hex(&mut out, &[0x00, 0xff, 0x1a]);
/// assert_eq!(out, "t1=00ff1a");
/// ```
pub fn push_hex(out: &mut String, bytes: &[u8]) {
    out.reserve(2 * bytes.len());
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
}

/// Appends one checksummed line (no newline) to `out`, its payload
/// written in place by `render`: the bytes [`checksum_line`] returns
/// for that payload, without a separate payload string.
///
/// # Examples
///
/// ```
/// use detdiv_resil::{checksum_line, push_checksum_line};
///
/// let mut out = String::new();
/// push_checksum_line(&mut out, |line| line.push_str("payload-x"));
/// assert_eq!(out, checksum_line("payload-x"));
/// ```
pub fn push_checksum_line(out: &mut String, render: impl FnOnce(&mut String)) {
    let start = out.len();
    out.push_str("0000000000000000 ");
    render(out);
    let payload = &out.as_bytes()[start + CHECKSUM_PREFIX..];
    debug_assert!(!payload.contains(&b'\n'), "payloads are single lines");
    let digits = hex16(fnv1a(payload));
    let digits = std::str::from_utf8(&digits).expect("hex digits are ASCII");
    out.replace_range(start..start + 16, digits);
}

/// The payload of one checksummed line (`<fnv1a-hex-16> <payload>`,
/// no newline) when its framing and lowercase checksum are intact —
/// the lines [`checksum_line`] renders and no others.
///
/// # Examples
///
/// ```
/// use detdiv_resil::{checksum_line, verified_payload};
///
/// let line = checksum_line("payload-x");
/// assert_eq!(verified_payload(line.as_bytes()), Some(&b"payload-x"[..]));
/// assert_eq!(verified_payload(b"0000000000000000 payload-x"), None);
/// ```
pub fn verified_payload(line: &[u8]) -> Option<&[u8]> {
    let (sum, payload) = line.split_at_checked(CHECKSUM_PREFIX)?;
    (sum[16] == b' ' && sum[..16] == hex16(fnv1a(payload))).then_some(payload)
}

/// An append-only log of checkpoint records that survives `SIGKILL`
/// mid-append.
///
/// Wire format: one record per line, `<fnv1a-hex-16> <payload>\n`.
/// Payloads must not contain `\n` (CR or other control bytes are the
/// caller's business; the checksum covers the payload verbatim).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// Propagates the open/create failure.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { path, file })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one checksummed record and fsyncs, so the record is
    /// durable before the caller proceeds to the next unit of work.
    ///
    /// # Errors
    ///
    /// Rejects payloads containing `\n` (they would corrupt framing);
    /// propagates write/fsync failures.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        if payload.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal payload must not contain newlines",
            ));
        }
        io_point(APPEND_SITE)?;
        let mut line = checksum_line(payload);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Loads every intact record from `path`, in append order.
    ///
    /// A missing file yields an empty list (a resume with no checkpoint
    /// simply recomputes everything). A torn *tail* line — short,
    /// unframed, or checksum-mismatched — is discarded: that is the
    /// expected residue of a kill mid-append. A corrupt line *before*
    /// the tail is an error, because appends are fsynced in order and
    /// an interior tear cannot happen by crashing.
    ///
    /// # Errors
    ///
    /// Propagates read failures (other than `NotFound`) and reports
    /// interior corruption with the offending line number.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Vec<String>> {
        let path = path.as_ref();
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        // Manual split keeps track of whether the final line was
        // newline-terminated: an unterminated tail is torn by
        // definition.
        let lines: Vec<&str> = text.split('\n').collect();
        let terminated = text.ends_with('\n');
        // `split` yields a trailing "" when the text ends with '\n'.
        let effective: &[&str] = if terminated {
            &lines[..lines.len().saturating_sub(1)]
        } else {
            &lines
        };
        for (i, line) in effective.iter().enumerate() {
            let is_tail = i + 1 == effective.len();
            let parsed = parse_line(line);
            match parsed {
                Some(payload) if !is_tail || terminated => records.push(payload.to_owned()),
                Some(payload) => {
                    // Intact checksum but no trailing newline: the
                    // payload is complete (checksum proves it), keep it.
                    records.push(payload.to_owned());
                }
                None if is_tail => {
                    // Torn tail: expected crash residue, discard.
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal {} corrupt at line {} (not the tail): {:?}",
                            path.display(),
                            i + 1,
                            truncate_for_error(line)
                        ),
                    ));
                }
            }
        }
        Ok(records)
    }

    /// Removes the journal file at `path`, tolerating its absence.
    ///
    /// # Errors
    ///
    /// Propagates removal failures other than `NotFound`.
    pub fn remove(path: impl AsRef<Path>) -> io::Result<()> {
        match fs::remove_file(path.as_ref()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Verifies one journal line; returns the payload when the framing and
/// checksum are intact.
fn parse_line(line: &str) -> Option<&str> {
    verified_payload(line.as_bytes()).map(|_| &line[CHECKSUM_PREFIX..])
}

/// Clips a corrupt line for an error message.
fn truncate_for_error(line: &str) -> String {
    const MAX: usize = 48;
    if line.len() <= MAX {
        line.to_owned()
    } else {
        let mut end = MAX;
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &line[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("detdiv-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_load_roundtrips_in_order() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("ckpt.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("row|stide|6|DWBU").unwrap();
            j.append("row|stide|7|DDDD").unwrap();
            j.append("row|bloom|6|UUUU").unwrap();
        }
        assert_eq!(
            Journal::load(&path).unwrap(),
            vec!["row|stide|6|DWBU", "row|stide|7|DDDD", "row|bloom|6|UUUU"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_line_matches_the_append_wire_format() {
        let dir = temp_dir("checksum-line");
        let path = dir.join("ckpt.journal");
        Journal::open(&path).unwrap().append("payload-x").unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{}\n", checksum_line("payload-x")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_loads_empty() {
        let dir = temp_dir("missing");
        assert!(Journal::load(dir.join("absent.journal"))
            .unwrap()
            .is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = temp_dir("reopen");
        let path = dir.join("ckpt.journal");
        Journal::open(&path).unwrap().append("first").unwrap();
        Journal::open(&path).unwrap().append("second").unwrap();
        assert_eq!(Journal::load(&path).unwrap(), vec!["first", "second"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_line_is_discarded() {
        let dir = temp_dir("torn");
        let path = dir.join("ckpt.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("intact-one").unwrap();
            j.append("intact-two").unwrap();
        }
        // Simulate a kill mid-append: a partial final line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"0123456789abcdef half-writ").unwrap();
        drop(f);
        // The checksum cannot match the truncated payload.
        assert_eq!(
            Journal::load(&path).unwrap(),
            vec!["intact-one", "intact-two"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unterminated_but_intact_tail_is_kept() {
        let dir = temp_dir("no-newline");
        let path = dir.join("ckpt.journal");
        let payload = "complete";
        let line = format!("{:016x} {payload}", fnv1a(payload.as_bytes()));
        fs::write(&path, line).unwrap();
        assert_eq!(Journal::load(&path).unwrap(), vec!["complete"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_silent_drop() {
        let dir = temp_dir("interior");
        let path = dir.join("ckpt.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("good-one").unwrap();
            j.append("good-two").unwrap();
        }
        let mut text = fs::read_to_string(&path).unwrap();
        // Flip a byte in the FIRST line's payload.
        text = text.replacen("good-one", "g0od-one", 1);
        fs::write(&path, text).unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newline_in_payload_is_rejected() {
        let dir = temp_dir("newline");
        let mut j = Journal::open(dir.join("ckpt.journal")).unwrap();
        let err = j.append("two\nlines").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_only_file_with_multiple_lines_errors() {
        let dir = temp_dir("garbage");
        let path = dir.join("ckpt.journal");
        fs::write(&path, "not a journal\nat all\n").unwrap();
        assert!(Journal::load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_tolerates_absence() {
        let dir = temp_dir("remove");
        let path = dir.join("ckpt.journal");
        Journal::remove(&path).unwrap();
        Journal::open(&path).unwrap().append("x").unwrap();
        Journal::remove(&path).unwrap();
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
