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

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;

use detdiv_resil::{checksum_line, push_hex, AtomicFile, Journal};
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

/// The value of one hex digit, either case; `None` for any other byte
/// (a sign, or a byte of a multi-byte character).
fn nibble(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        b'A'..=b'F' => Some(digit - b'A' + 10),
        _ => None,
    }
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.chunks_exact(2)
        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

/// The number a fixed-width hex field spells: exactly `width` hex
/// digits, as the writer renders it, so a sign or a short or long field
/// is refused.
fn fixed_hex(token: &str, width: usize) -> Option<u64> {
    if token.len() != width {
        return None;
    }
    token
        .bytes()
        .try_fold(0u64, |n, digit| Some(n << 4 | u64::from(nibble(digit)?)))
}

/// The count a decimal field spells: ASCII digits only, so a sign is
/// refused.
fn decimal(token: &str) -> Option<usize> {
    if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    token.parse().ok()
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
    let mut line = String::new();
    push_stream_line(&mut line, hash, record);
    line
}

/// Appends [`render_stream_line`]'s line to `out`.
pub(crate) fn push_stream_line(out: &mut String, hash: u64, record: &StreamRecord) {
    let slots = record.bank.as_ref().map(|bank| bank.snapshot());
    let slots = slots.as_deref();
    push_stream_fields(
        out,
        hash,
        slots.is_some(),
        &record.gate.to_bytes(),
        slots.unwrap_or_default(),
    );
}

/// Appends the line of a stream with these fields to `out`, after
/// reserving room for all of it.
fn push_stream_fields(
    out: &mut String,
    hash: u64,
    escalated: bool,
    gate: &[u8],
    slots: &[SlotState],
) {
    // "stream " + 16 + " esc=x t1=" + " slots=" + up to 20 digits.
    let slot_bytes: usize = slots
        .iter()
        .map(|slot| 3 + slot.state.as_ref().map_or(1, |state| 2 * state.len()))
        .sum();
    out.reserve(70 + 2 * gate.len() + slot_bytes);
    out.push_str("stream ");
    push_hex(out, &hash.to_be_bytes());
    out.push_str(if escalated {
        " esc=1 t1="
    } else {
        " esc=0 t1="
    });
    push_hex(out, gate);
    let _ = write!(out, " slots={}", slots.len());
    for slot in slots {
        out.push_str(if slot.degraded { " d:" } else { " h:" });
        match &slot.state {
            Some(bytes) => push_hex(out, bytes),
            None => out.push('-'),
        }
    }
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
    let hash = fixed_hex(tokens.next()?, 16)?;
    let escalated = match tokens.next()?.strip_prefix("esc=")? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let tier1_state = parse_opt_hex(tokens.next()?.strip_prefix("t1=")?)?;
    let slot_count = decimal(tokens.next()?.strip_prefix("slots=")?)?;
    // The count comes from disk: reserve no more slots than the line
    // has room for (each token is at least three bytes and a space).
    let mut slots = Vec::with_capacity(slot_count.min(line.len() / 4));
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
    Some((decimal(streams)?, decimal(queued)?))
}

/// Renders one queued event as a `queued <seq> <hash> <symbol>
/// <value-bits>` residue line.
fn render_queued_line(ctx: &SignalContext) -> String {
    format!(
        "queued {:016x} {:016x} {:08x} {:016x}",
        ctx.seq,
        ctx.stream_id_hash,
        ctx.symbol.id(),
        ctx.value.to_bits()
    )
}

/// Parses a [`render_queued_line`] residue line back into the event it
/// captured.
fn parse_queued_line(line: &str) -> Option<SignalContext> {
    let mut tokens = line.split_whitespace();
    if tokens.next()? != "queued" {
        return None;
    }
    let seq = fixed_hex(tokens.next()?, 16)?;
    let hash = fixed_hex(tokens.next()?, 16)?;
    let symbol = u32::try_from(fixed_hex(tokens.next()?, 8)?).ok()?;
    let bits = fixed_hex(tokens.next()?, 16)?;
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
                residue.push_str(&checksum_line(&render_queued_line(ctx)));
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
    use proptest::prelude::*;

    #[test]
    fn hex_decodes_either_case_and_rejects_everything_else() {
        assert_eq!(from_hex("00ff1a"), Some(vec![0x00, 0xff, 0x1a]));
        assert_eq!(from_hex("00FF1A"), Some(vec![0x00, 0xff, 0x1a]));
        assert_eq!(from_hex(""), Some(Vec::new()));
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
        // A sign is not a digit, and a byte of a multi-byte character
        // is not one either (4 bytes, so the length check passes).
        assert!(from_hex("+f").is_none());
        assert!(from_hex("aéb").is_none());
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
        let mut rendered = String::new();
        push_stream_fields(&mut rendered, p.hash, p.escalated, &[0x0a, 0x0b], &p.slots);
        assert_eq!(rendered, line);
        // Wrong slot counts and trailing garbage are version drift.
        assert!(parse_stream_line("stream 00000000deadbeef esc=1 t1=- slots=1").is_none());
        assert!(parse_stream_line("stream 00000000deadbeef esc=1 t1=- slots=0 h:-").is_none());
        assert!(parse_stream_line("stream 00000000deadbeef esc=2 t1=- slots=0").is_none());
    }

    #[test]
    fn non_hex_state_tokens_are_refused_not_fatal() {
        let parses = |line: &str| parse_stream_line(line).is_some();
        assert!(parses("stream 00000000deadbeef esc=1 t1=- slots=1 h:ab"));
        assert!(!parses("stream 00000000deadbeef esc=0 t1=aéb slots=0"));
        assert!(!parses("stream 00000000deadbeef esc=0 t1=+f0a slots=0"));
        assert!(!parses("stream 00000000deadbeef esc=1 t1=- slots=1 h:aéb"));
        // Numbers are spelled as the writer spells them: no sign, and
        // the hash at its full 16 digits.
        assert!(!parses("stream +dead esc=0 t1=- slots=0"));
        assert!(!parses("stream +0000000deadbeef esc=0 t1=- slots=0"));
        assert!(!parses("stream dead esc=0 t1=- slots=0"));
        assert!(!parses("stream 00000000deadbeef esc=1 t1=- slots=+1 h:ab"));
        assert!(!parses("stream 00000000deadbeef esc=1 t1=- slots= "));
    }

    #[test]
    fn signed_footer_and_queued_fields_are_refused() {
        assert_eq!(parse_footer("end streams=117 queued=3"), Some((117, 3)));
        assert!(parse_footer("end streams=+1 queued=0").is_none());
        assert!(parse_footer("end streams=1 queued=+0").is_none());
        assert!(parse_footer("end streams= queued=0").is_none());
        let line = "queued 0000000000000001 00000000deadbeef 00000003 3ff0000000000000";
        let ctx = parse_queued_line(line).expect("parses");
        assert_eq!(render_queued_line(&ctx), line);
        for signed in [
            "queued +000000000000001 00000000deadbeef 00000003 3ff0000000000000",
            "queued 0000000000000001 +0000000deadbeef 00000003 3ff0000000000000",
            "queued 0000000000000001 00000000deadbeef +0000003 3ff0000000000000",
            "queued 0000000000000001 00000000deadbeef 00000003 +ff0000000000000",
            "queued +1 00000000deadbeef 00000003 3ff0000000000000",
        ] {
            assert!(parse_queued_line(signed).is_none(), "{signed}");
        }
    }

    #[test]
    fn a_slot_count_no_line_can_hold_is_refused_not_allocated_for() {
        let line = "stream 00000000deadbeef esc=1 t1=- slots=18446744073709551615 h:-";
        assert!(parse_stream_line(line).is_none());
    }

    /// The pieces stream lines are made of, plus characters a corrupt
    /// or hand-edited line might hold.
    const FRAGMENTS: &[&str] = &[
        "stream ",
        "00000000deadbeef",
        "1",
        " ",
        "esc=0",
        "esc=1",
        "t1=",
        "slots=",
        "2",
        "h:",
        "d:",
        ":",
        "-",
        "0a",
        "f",
        "+f",
        "é",
        "aéb",
        "\u{1f600}",
        "Z",
        "\t",
        "99999999999999",
    ];

    fn fragment_line() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..FRAGMENTS.len(), 0..24)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    fn any_char() -> impl Strategy<Value = char> {
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
    }

    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..=255, 0..max)
    }

    fn slot_states() -> impl Strategy<Value = Vec<SlotState>> {
        prop::collection::vec((0u8..2, 0u8..3, bytes(24)), 0..6).prop_map(|slots| {
            slots
                .into_iter()
                .map(|(degraded, kind, state)| SlotState {
                    degraded: degraded == 1,
                    state: (kind > 0).then_some(state),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parsing_never_panics(
            fragments in fragment_line(),
            chars in prop::collection::vec(any_char(), 0..48),
            at in 0usize..256,
        ) {
            let chars: String = chars.into_iter().collect();
            let _ = parse_stream_line(&fragments);
            let _ = parse_stream_line(&chars);
            // Splice the random characters into the fragment line at a
            // character boundary.
            let mut at = at.min(fragments.len());
            while !fragments.is_char_boundary(at) {
                at -= 1;
            }
            let spliced = format!("{}{chars}{}", &fragments[..at], &fragments[at..]);
            let _ = parse_stream_line(&spliced);
        }

        #[test]
        fn rendered_lines_parse_back(
            hash in 0u64..=u64::MAX,
            escalated in 0u8..2,
            gate in bytes(40),
            slots in slot_states(),
        ) {
            let escalated = escalated == 1;
            let mut line = String::new();
            push_stream_fields(&mut line, hash, escalated, &gate, &slots);
            let p = parse_stream_line(&line).expect("a rendered line parses");
            prop_assert_eq!(p.hash, hash);
            prop_assert_eq!(p.escalated, escalated);
            prop_assert_eq!(p.tier1_state, Some(gate));
            prop_assert_eq!(p.slots, slots);
            // A sign in front of either number makes the line corrupt.
            let signed_hash = line.replacen("stream ", "stream +", 1);
            prop_assert!(parse_stream_line(&signed_hash).is_none());
            let signed_count = line.replacen(" slots=", " slots=+", 1);
            prop_assert!(parse_stream_line(&signed_count).is_none());
        }

        #[test]
        fn queued_lines_parse_back(
            seq in 0u64..=u64::MAX,
            hash in 0u64..=u64::MAX,
            symbol in 0u32..=u32::MAX,
            bits in 0u64..=u64::MAX,
            field in 1usize..5,
        ) {
            let ctx = SignalContext::new(seq, hash, Symbol::new(symbol), f64::from_bits(bits));
            let line = render_queued_line(&ctx);
            let parsed = parse_queued_line(&line).expect("a rendered line parses");
            prop_assert_eq!(render_queued_line(&parsed), line.clone());
            let mut tokens: Vec<String> = line.split(' ').map(str::to_owned).collect();
            tokens[field].insert(0, '+');
            prop_assert!(parse_queued_line(&tokens.join(" ")).is_none());
        }
    }
}
