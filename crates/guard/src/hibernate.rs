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
//! I/O is positional (Unix `pread`/`pwrite`), so the file has no cursor
//! to move. A caller renders a cycle's records straight into a
//! [`SpillChunk`] of at most [`CHUNK_BYTES`] and appends each chunk
//! with one write; a rehydration is one read of one record. A failed
//! chunk indexes none of its records and does not advance the end of
//! the segment: every record it carried stays wherever it was before
//! (the serve layer keeps those streams resident), and the next chunk
//! overwrites whatever the failed write left behind.
//!
//! A recall that fails its checksum returns `Err`: the caller treats
//! the stream as a cold start (the same degrade-don't-panic contract as
//! snapshot recovery).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use detdiv_resil::{push_checksum_line, verified_payload, BuildStreamHasher};

/// The most bytes one [`HibernationStore::append`] writes, unless a
/// single record is larger on its own. Big enough that a cycle's
/// victims take a handful of writes, small enough that the buffer
/// stays a small part of a shard's resident budget.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// Bytes a record carries besides its payload: the checksum, its
/// space and the newline.
const FRAMING: usize = 18;

/// Records rendered for one [`HibernationStore::append`]: checksummed
/// lines back to back, with the key of each, in push order.
#[derive(Debug, Default)]
pub struct SpillChunk {
    bytes: String,
    /// Stream hash and line length (sans `\n`) of each record.
    records: Vec<(u64, u32)>,
}

impl SpillChunk {
    /// Renders `hash`'s record into the chunk, its payload (one line)
    /// written in place by `render`. Returns `false` and leaves the
    /// chunk as it was when the record would carry a non-empty chunk
    /// past [`CHUNK_BYTES`]: append the chunk, clear it, and push the
    /// record again. An empty chunk takes any record.
    pub fn push(&mut self, hash: u64, render: impl FnOnce(&mut String)) -> bool {
        let start = self.bytes.len();
        push_checksum_line(&mut self.bytes, render);
        let len = self.bytes.len() - start;
        self.bytes.push('\n');
        if start > 0 && self.bytes.len() > CHUNK_BYTES {
            self.bytes.truncate(start);
            return false;
        }
        self.records.push((hash, len as u32));
        true
    }

    /// The hashes of the chunk's records, in push order.
    pub fn hashes(&self) -> impl Iterator<Item = u64> + '_ {
        self.records.iter().map(|&(hash, _)| hash)
    }

    /// Whether the chunk holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Empties the chunk, keeping its buffer for the next one.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.records.clear();
    }
}

/// An open hibernation segment.
#[derive(Debug)]
pub struct HibernationStore {
    file: File,
    /// Stream hash → (byte offset of the line, line length sans `\n`).
    index: HashMap<u64, (u64, u32), BuildStreamHasher>,
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
            index: HashMap::default(),
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

    /// Appends `chunk`'s records at the end of the segment with one
    /// positional write, each superseding any previous record for its
    /// hash.
    ///
    /// # Errors
    ///
    /// Propagates the write failure. The index is only re-pointed after
    /// the whole chunk is written, so a failed append leaves every
    /// previous record recallable and indexes none of the chunk's.
    pub fn append(&mut self, chunk: &SpillChunk) -> std::io::Result<()> {
        self.file.write_all_at(chunk.bytes.as_bytes(), self.end)?;
        for &(hash, len) in &chunk.records {
            self.index.insert(hash, (self.end, len));
            self.end += u64::from(len) + 1;
        }
        Ok(())
    }

    /// Spills `payload` for `hash`, superseding any previous record: an
    /// [`append`](HibernationStore::append) of a one-record chunk.
    ///
    /// # Errors
    ///
    /// As [`append`](HibernationStore::append).
    pub fn spill(&mut self, hash: u64, payload: &str) -> std::io::Result<()> {
        let mut chunk = SpillChunk {
            bytes: String::with_capacity(FRAMING + payload.len()),
            records: Vec::with_capacity(1),
        };
        chunk.push(hash, |line| line.push_str(payload));
        self.append(&chunk)
    }

    /// Reads one record with one positional read into one buffer,
    /// verifies it there and strips the checksum in place.
    fn read_at(&self, offset: u64, len: u32) -> std::io::Result<String> {
        let invalid = |what| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut buf = vec![0u8; len as usize];
        self.file.read_exact_at(&mut buf, offset)?;
        let payload = verified_payload(&buf)
            .ok_or_else(|| invalid("segment record failed its checksum"))?
            .len();
        buf.drain(..buf.len() - payload);
        String::from_utf8(buf).map_err(|_| invalid("non-utf8 segment record"))
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
    fn a_batched_append_recalls_every_payload_exactly() {
        let path = temp_segment("batched");
        let mut store = HibernationStore::create(&path).unwrap();
        let payloads: Vec<String> = (0..200u64)
            .map(|i| {
                format!(
                    "stream {i:016x} esc={} t1={}",
                    i % 2,
                    "ab".repeat(i as usize)
                )
            })
            .collect();
        let mut chunk = SpillChunk::default();
        let mut appends = 0;
        for (hash, payload) in (0u64..).zip(&payloads) {
            if !chunk.push(hash, |line| line.push_str(payload)) {
                store.append(&chunk).unwrap();
                appends += 1;
                chunk.clear();
                assert!(chunk.push(hash, |line| line.push_str(payload)));
            }
            assert!(chunk.bytes.len() <= CHUNK_BYTES);
        }
        store.append(&chunk).unwrap();
        assert!(
            appends >= 1,
            "200 records of up to 400 bytes take several chunks"
        );
        // The segment is exactly the records one spill at a time writes.
        let expect: String = payloads
            .iter()
            .map(|p| detdiv_resil::checksum_line(p) + "\n")
            .collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        for (hash, payload) in payloads.iter().enumerate().rev() {
            let hash = hash as u64;
            assert_eq!(
                store.recall(hash).unwrap().as_deref(),
                Some(payload.as_str())
            );
        }
        assert!(store.hashes().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_append_moves_no_index_entry() {
        let path = temp_segment("failed");
        let mut store = HibernationStore::create(&path).unwrap();
        store.spill(1, "kept payload").unwrap();
        let end = store.end;
        // A read-only handle on the same segment: reads work, every
        // write fails.
        store.file = File::open(&path).unwrap();
        let mut chunk = SpillChunk::default();
        assert!(chunk.push(1, |line| line.push_str("superseding payload")));
        assert!(chunk.push(2, |line| line.push_str("new payload")));
        assert!(store.append(&chunk).is_err());
        assert!(store.spill(3, "one more").is_err());
        assert_eq!(
            store.hashes(),
            vec![1],
            "no record of the failed chunk is indexed"
        );
        assert_eq!(store.end, end, "the segment's end did not move");
        assert_eq!(store.recall(1).unwrap().as_deref(), Some("kept payload"));
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
