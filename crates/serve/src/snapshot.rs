//! Crash-safe shard-state snapshots.
//!
//! A snapshot is a checksummed-line file in the [`detdiv_resil`]
//! journal wire format (`<fnv1a-hex-16> <payload>`), written atomically
//! via [`AtomicFile`] so a crash mid-write can never clobber the
//! previous good snapshot:
//!
//! ```text
//! serve-snapshot v2 shards=4 tiering=gate
//! stream 00f3ab… esc=1 t1=<hex|-> slots=2 h:<hex|-> d:-
//! …
//! queued <seq> <hash> <symbol> <value-bits>     (all fixed-width hex)
//! …
//! end streams=117 queued=3
//! ```
//!
//! Per stream: the escalation flag, the tier-1 gate's serialized state,
//! and each tier-2 slot's degraded flag + detector state
//! ([`detdiv_stream::Bank::snapshot`]). Hibernated streams (spilled by the
//! guard's cold-stream hibernation) are included from their segment
//! records, so a snapshot taken under memory pressure still captures
//! every stream. Recovery is strictly best-effort and never fatal: a
//! missing file, torn tail (no footer), checksum mismatch, count
//! mismatch, or version or shard-count drift all yield
//! [`RecoverOutcome::Discarded`] with a reason — the service simply
//! starts cold. A stream whose bank shape no longer matches restarts
//! from warmup (counted in `skipped`), never resumes wrong state.
//!
//! Events that were queued but not yet drained at snapshot time are
//! captured as `queued` residue lines (shard order, FIFO within a
//! shard) and re-enqueued by recovery, so snapshotting no longer
//! requires the caller to drain first for a clean cut.

use std::path::Path;
use std::sync::atomic::Ordering;

use detdiv_resil::{checksum_line, AtomicFile, Journal};
use detdiv_sequence::Symbol;
use detdiv_stream::{Bank, EwmaState, SignalContext, SlotState};

use crate::service::{BankFactory, IngestService, StreamRecord};

/// What a snapshot wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Streams captured (resident + hibernated).
    pub streams: u64,
    /// Queued-but-undrained events captured as residue lines.
    pub queued: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// What recovery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverOutcome {
    /// The snapshot was applied.
    Recovered {
        /// Streams rebuilt.
        streams: u64,
        /// Streams whose tier-2 bank shape no longer matched the
        /// factory and therefore restart from warmup.
        skipped: u64,
    },
    /// The snapshot was unusable and ignored; the service starts cold.
    Discarded {
        /// Why (missing file, torn tail, checksum/count mismatch,
        /// version or shard-count drift).
        reason: String,
    },
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

fn opt_hex(state: &Option<Vec<u8>>) -> String {
    match state {
        Some(bytes) => to_hex(bytes),
        None => "-".to_owned(),
    }
}

fn parse_opt_hex(token: &str) -> Option<Option<Vec<u8>>> {
    if token == "-" {
        Some(None)
    } else {
        from_hex(token).map(Some)
    }
}

/// The first line of every snapshot a service of `shards` shards
/// writes and accepts. `tiering=gate` is kept from the days of a second
/// tiering mode, so snapshot bytes stay stable.
fn header(shards: usize) -> String {
    format!("serve-snapshot v2 shards={shards} tiering=gate")
}

pub(crate) struct ParsedStream {
    pub(crate) hash: u64,
    pub(crate) escalated: bool,
    pub(crate) tier1_state: Option<Vec<u8>>,
    pub(crate) slots: Vec<SlotState>,
}

/// Renders one stream's serialized state as a `stream …` line — the
/// format shared by snapshot files and the guard's hibernation
/// segments.
pub(crate) fn render_stream_line(hash: u64, record: &StreamRecord) -> String {
    let slots = record.bank.as_ref().map(|bank| bank.snapshot());
    let slots = slots.as_deref().unwrap_or_default();
    let mut line = format!(
        "stream {hash:016x} esc={} t1={} slots={}",
        u8::from(record.bank.is_some()),
        to_hex(&record.gate.to_bytes()),
        slots.len()
    );
    for slot in slots {
        line.push(' ');
        line.push(if slot.degraded { 'd' } else { 'h' });
        line.push(':');
        line.push_str(&opt_hex(&slot.state));
    }
    line
}

impl ParsedStream {
    /// The record this line describes, built in one step: rejected gate
    /// bytes leave the gate reset (cold start), and an escalated stream
    /// gets a bank from `factory` restored from its slot states. The
    /// flag is `false` when the bank shape no longer matched: that bank
    /// restarts from warmup instead of resuming wrong state.
    pub(crate) fn record(&self, factory: &BankFactory) -> (StreamRecord, bool) {
        let mut restored = true;
        let bank = self.escalated.then(|| {
            let mut bank = Bank::new(self.hash, factory());
            restored = self.slots.is_empty() || bank.restore(&self.slots);
            Box::new(bank)
        });
        let gate = self.tier1_state.as_deref().and_then(EwmaState::from_bytes);
        let record = StreamRecord {
            gate: gate.unwrap_or_default(),
            last_touch: 0,
            bank,
        };
        (record, restored)
    }
}

pub(crate) fn parse_stream_line(line: &str) -> Option<ParsedStream> {
    let mut tokens = line.split_whitespace();
    if tokens.next()? != "stream" {
        return None;
    }
    let hash = u64::from_str_radix(tokens.next()?, 16).ok()?;
    let escalated = match tokens.next()?.strip_prefix("esc=")? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let tier1_state = parse_opt_hex(tokens.next()?.strip_prefix("t1=")?)?;
    let slot_count: usize = tokens.next()?.strip_prefix("slots=")?.parse().ok()?;
    let mut slots = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        let token = tokens.next()?;
        let (flag, hex) = token.split_once(':')?;
        let degraded = match flag {
            "d" => true,
            "h" => false,
            _ => return None,
        };
        slots.push(SlotState {
            degraded,
            state: parse_opt_hex(hex)?,
        });
    }
    if tokens.next().is_some() {
        return None; // trailing garbage: version drift, discard
    }
    Some(ParsedStream {
        hash,
        escalated,
        tier1_state,
        slots,
    })
}

/// Parses the `end streams=N queued=M` footer.
fn parse_footer(line: &str) -> Option<(usize, usize)> {
    let rest = line.strip_prefix("end streams=")?;
    let (streams, queued) = rest.split_once(" queued=")?;
    Some((streams.parse().ok()?, queued.parse().ok()?))
}

/// Parses a `queued <seq> <hash> <symbol> <value-bits>` residue line
/// back into the event it captured.
fn parse_queued_line(line: &str) -> Option<SignalContext> {
    let mut tokens = line.split_whitespace();
    if tokens.next()? != "queued" {
        return None;
    }
    let seq = u64::from_str_radix(tokens.next()?, 16).ok()?;
    let hash = u64::from_str_radix(tokens.next()?, 16).ok()?;
    let symbol = u32::from_str_radix(tokens.next()?, 16).ok()?;
    let bits = u64::from_str_radix(tokens.next()?, 16).ok()?;
    if tokens.next().is_some() {
        return None; // trailing garbage: version drift, discard
    }
    Some(SignalContext::new(
        seq,
        hash,
        Symbol::new(symbol),
        f64::from_bits(bits),
    ))
}

impl IngestService {
    /// Writes a snapshot of every shard's detector state — plus any
    /// queued-but-undrained events as residue lines — to `path`,
    /// atomically (write-temp + rename: a crash mid-snapshot leaves
    /// any previous snapshot intact).
    ///
    /// Shards are locked one at a time in index order; producers may
    /// keep enqueueing concurrently, in which case an event enqueued
    /// during the walk may or may not make the cut (it is never
    /// half-captured). Hibernated streams are read from their segment
    /// records, so they survive the snapshot like resident ones.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the atomic write.
    pub fn snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<SnapshotStats> {
        let config = *self.config();
        let mut body = String::new();
        let mut residue = String::new();
        let mut streams = 0u64;
        let mut queued = 0u64;
        for index in 0..config.shards {
            let mut shard = self.shard(index);
            let shard = &mut *shard;
            // Resident streams and hibernated streams are disjoint (a
            // spill removes the resident entry); merge them sorted by
            // hash so the file layout is deterministic.
            let mut lines: Vec<(u64, String)> = shard
                .records
                .iter()
                .map(|(&hash, record)| (hash, render_stream_line(hash, record)))
                .collect();
            if let Some(store) = shard.guard.as_mut().and_then(|g| g.store.as_mut()) {
                for hash in store.hashes() {
                    // The spilled payload already is a stream line; a
                    // corrupt record is skipped (that stream restarts
                    // cold after recovery), never fatal.
                    if let Ok(Some(line)) = store.peek(hash) {
                        lines.push((hash, line));
                    }
                }
            }
            lines.sort_unstable_by_key(|(hash, _)| *hash);
            for (_, line) in &lines {
                body.push_str(&checksum_line(line));
                body.push('\n');
                streams += 1;
            }
            for ctx in &shard.queue {
                let line = format!(
                    "queued {:016x} {:016x} {:08x} {:016x}",
                    ctx.seq,
                    ctx.stream_id_hash,
                    ctx.symbol.id(),
                    ctx.value.to_bits()
                );
                residue.push_str(&checksum_line(&line));
                residue.push('\n');
                queued += 1;
            }
        }
        let mut content = String::with_capacity(body.len() + residue.len() + 128);
        content.push_str(&checksum_line(&header(config.shards)));
        content.push('\n');
        content.push_str(&body);
        content.push_str(&residue);
        content.push_str(&checksum_line(&format!(
            "end streams={streams} queued={queued}"
        )));
        content.push('\n');
        let bytes = content.len() as u64;
        AtomicFile::write(path.as_ref(), content)?;
        self.stats().snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(SnapshotStats {
            streams,
            queued,
            bytes,
        })
    }

    /// Rebuilds detector state from a snapshot written by
    /// [`snapshot`](IngestService::snapshot).
    ///
    /// Never fatal: any defect in the file — missing, torn tail,
    /// checksum failure, count mismatch, version/shape drift — returns
    /// [`RecoverOutcome::Discarded`] and leaves the service exactly as
    /// it was. Nothing is applied until the whole file has parsed.
    pub fn recover(&self, path: impl AsRef<Path>) -> RecoverOutcome {
        let config = *self.config();
        let discard = |reason: String| RecoverOutcome::Discarded { reason };
        if !path.as_ref().exists() {
            return discard("snapshot file missing".into());
        }
        let lines = match Journal::load(&path) {
            Ok(lines) => lines,
            Err(e) => return discard(format!("unreadable snapshot: {e}")),
        };
        let Some(found) = lines.first() else {
            return discard("empty snapshot".into());
        };
        let expected = header(config.shards);
        if *found != expected {
            return discard(format!(
                "header mismatch (found {found:?}, want {expected:?})"
            ));
        }
        let Some(footer) = lines.last().filter(|_| lines.len() >= 2) else {
            return discard("missing footer".into());
        };
        let Some((stream_count, queued_count)) = parse_footer(footer) else {
            return discard("missing footer (torn tail discarded)".into());
        };
        let body = &lines[1..lines.len() - 1];
        if body.len() != stream_count + queued_count {
            return discard(format!(
                "line count mismatch (footer says {} streams + {} queued, found {})",
                stream_count,
                queued_count,
                body.len()
            ));
        }
        // Parse everything before applying anything: a malformed line
        // discards the snapshot, never half-applies it.
        let mut parsed = Vec::with_capacity(stream_count);
        let mut residue = Vec::with_capacity(queued_count);
        for line in body {
            if line.starts_with("stream ") {
                match parse_stream_line(line) {
                    Some(p) => parsed.push(p),
                    None => return discard(format!("malformed stream line: {line:?}")),
                }
            } else {
                match parse_queued_line(line) {
                    Some(ctx) => residue.push(ctx),
                    None => return discard(format!("malformed queued line: {line:?}")),
                }
            }
        }
        if parsed.len() != stream_count || residue.len() != queued_count {
            return discard(format!(
                "kind count mismatch (footer says {} streams + {} queued, found {} + {})",
                stream_count,
                queued_count,
                parsed.len(),
                residue.len()
            ));
        }
        let mut streams = 0u64;
        let mut skipped = 0u64;
        for p in parsed {
            let index = self.shard_of(p.hash);
            let (record, restored) = p.record(&self.factory);
            if !restored {
                // Bank shape drifted since the snapshot: the stream
                // restarts from warmup instead of resuming wrong state.
                skipped += 1;
            }
            let mut shard = self.shard(index);
            shard.banks += u64::from(record.bank.is_some());
            if let Some(replaced) = shard.records.insert(p.hash, record) {
                shard.banks -= u64::from(replaced.bank.is_some());
            }
            streams += 1;
        }
        // Re-enqueue the queued residue in file order (shard order, FIFO
        // within a shard — exactly the order a post-snapshot drain would
        // have processed it).
        for ctx in residue {
            let index = self.shard_of(ctx.stream_id_hash);
            let mut shard = self.shard(index);
            shard.queue.push_back(ctx);
            let depth = shard.queue.len() as u64;
            drop(shard);
            self.stats().shards[index]
                .depth
                .store(depth, Ordering::Relaxed);
        }
        for index in 0..config.shards {
            let resident = self.shard(index).records.len() as u64;
            self.stats().shards[index]
                .streams
                .store(resident, Ordering::Relaxed);
        }
        self.stats()
            .recovered_streams
            .fetch_add(streams, Ordering::Relaxed);
        RecoverOutcome::Recovered { streams, skipped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips_and_rejects_odd_lengths() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(from_hex("00ff1a"), Some(vec![0x00, 0xff, 0x1a]));
        assert_eq!(from_hex(""), Some(Vec::new()));
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
    }

    #[test]
    fn stream_lines_roundtrip() {
        let line = "stream 00000000deadbeef esc=1 t1=0a0b slots=2 h:ff d:-";
        let p = parse_stream_line(line).expect("parses");
        assert_eq!(p.hash, 0xdead_beef);
        assert!(p.escalated);
        assert_eq!(p.tier1_state, Some(vec![0x0a, 0x0b]));
        assert_eq!(
            p.slots,
            vec![
                SlotState {
                    degraded: false,
                    state: Some(vec![0xff])
                },
                SlotState {
                    degraded: true,
                    state: None
                }
            ]
        );
        // Wrong slot counts and trailing garbage are version drift.
        assert!(parse_stream_line("stream 1 esc=1 t1=- slots=1").is_none());
        assert!(parse_stream_line("stream 1 esc=1 t1=- slots=0 h:-").is_none());
        assert!(parse_stream_line("stream 1 esc=2 t1=- slots=0").is_none());
    }
}
