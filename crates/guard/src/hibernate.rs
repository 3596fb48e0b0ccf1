//! Cold-stream hibernation: an append-only checksummed segment file
//! plus an in-memory offset index.
//!
//! Each spilled stream is one line in the [`detdiv_resil`] journal wire
//! format (`<fnv1a-hex-16> <payload>`). The payload is opaque to this
//! crate — the serve layer spills its own serialized stream lines — so
//! the store is a generic keyed spill area. Re-spilling a key appends a
//! fresh record and re-points the index; superseded records become
//! garbage that the (session-scoped) segment never compacts, which is
//! fine for a file whose lifetime is one service run.
//!
//! A recall that fails its checksum returns `Err`: the caller treats
//! the stream as a cold start (the same degrade-don't-panic contract as
//! snapshot recovery).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use detdiv_resil::checksum_line;

/// An open hibernation segment.
#[derive(Debug)]
pub struct HibernationStore {
    file: File,
    /// Stream hash → (byte offset of the line, line length sans `\n`).
    index: HashMap<u64, (u64, u32)>,
    end: u64,
}

impl HibernationStore {
    /// Creates (truncating any previous segment) the store at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<HibernationStore> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(HibernationStore {
            file,
            index: HashMap::new(),
            end: 0,
        })
    }

    /// Hibernated stream hashes, sorted (deterministic iteration for
    /// snapshot inclusion).
    pub fn hashes(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.index.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Spills `payload` for `hash`, superseding any previous record.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the index is only re-pointed after a
    /// successful write, so a failed spill leaves any previous record
    /// recallable.
    pub fn spill(&mut self, hash: u64, payload: &str) -> std::io::Result<()> {
        debug_assert!(!payload.contains('\n'), "payloads are single lines");
        let line = checksum_line(payload);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.index.insert(hash, (self.end, line.len() as u32));
        self.end += line.len() as u64 + 1;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, len: u32) -> std::io::Result<String> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        self.file.read_exact(&mut buf)?;
        let line = String::from_utf8(buf).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 segment record")
        })?;
        let Some((_, payload)) = line.split_once(' ') else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed segment record",
            ));
        };
        if checksum_line(payload) != line {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "segment record failed its checksum",
            ));
        }
        Ok(payload.to_owned())
    }

    /// Reads the payload for `hash` without waking it (snapshot
    /// inclusion); `None` when not hibernated.
    ///
    /// # Errors
    ///
    /// I/O failure or checksum mismatch.
    pub fn peek(&mut self, hash: u64) -> std::io::Result<Option<String>> {
        match self.index.get(&hash).copied() {
            None => Ok(None),
            Some((offset, len)) => self.read_at(offset, len).map(Some),
        }
    }

    /// Wakes `hash`: returns its payload and removes it from the
    /// index. A checksum failure also removes the entry (the record is
    /// unusable; the stream restarts cold) before returning the error.
    ///
    /// # Errors
    ///
    /// I/O failure or checksum mismatch.
    pub fn recall(&mut self, hash: u64) -> std::io::Result<Option<String>> {
        let Some((offset, len)) = self.index.get(&hash).copied() else {
            return Ok(None);
        };
        self.index.remove(&hash);
        self.read_at(offset, len).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_segment(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("detdiv-guard-{name}-{}.seg", std::process::id()));
        p
    }

    #[test]
    fn spill_recall_round_trips_and_clears_the_index() {
        let path = temp_segment("roundtrip");
        let mut store = HibernationStore::create(&path).unwrap();
        store.spill(7, "stream 0007 esc=0 t1=ab slots=0").unwrap();
        store.spill(9, "stream 0009 esc=1 t1=- slots=0").unwrap();
        assert_eq!(store.hashes(), vec![7, 9]);
        assert_eq!(
            store.recall(7).unwrap().as_deref(),
            Some("stream 0007 esc=0 t1=ab slots=0")
        );
        assert_eq!(store.hashes(), vec![9]);
        assert_eq!(store.recall(7).unwrap(), None, "recall is consuming");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn respill_supersedes_and_peek_is_non_consuming() {
        let path = temp_segment("respill");
        let mut store = HibernationStore::create(&path).unwrap();
        store.spill(1, "old payload").unwrap();
        store.spill(1, "new payload").unwrap();
        assert_eq!(store.hashes(), vec![1]);
        assert_eq!(store.peek(1).unwrap().as_deref(), Some("new payload"));
        assert_eq!(store.peek(1).unwrap().as_deref(), Some("new payload"));
        assert_eq!(store.recall(1).unwrap().as_deref(), Some("new payload"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_record_errors_and_drops_the_entry() {
        let path = temp_segment("corrupt");
        let mut store = HibernationStore::create(&path).unwrap();
        store.spill(5, "precious state").unwrap();
        // Flip a payload byte behind the store's back.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.recall(5).is_err(), "checksum must catch the flip");
        assert!(store.hashes().is_empty(), "the unusable entry is dropped");
        let _ = std::fs::remove_file(&path);
    }
}
