//! Wide-event record payloads and their deterministic JSON rendering.
//!
//! Each record renders to exactly one JSON object on one line, with
//! keys in a fixed order and no whitespace, so identical decisions
//! produce byte-identical payloads — the property the export's
//! lexicographic sort turns into whole-dump byte-determinism. The
//! discriminating `"t"` key comes first so consumers can dispatch on a
//! prefix without parsing the full object.

use std::fmt::Write as _;

use detdiv_obs::push_json_escaped;

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    push_json_escaped(out, value);
    out.push('"');
}

/// Renders a finite float with Rust's shortest round-trip formatting
/// (deterministic for identical bits); non-finite values render as
/// `null` so the payload stays valid JSON.
fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value:?}");
    } else {
        out.push_str("null");
    }
}

/// Run identity emitted once per report generation: ties every cell
/// record that follows to the corpus it was scored against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderRecord {
    /// FNV-1a fingerprint of the training stream
    /// (`detdiv-cache`'s `fingerprint_stream`).
    pub corpus: u64,
    /// Training stream length (the fingerprint's second identity
    /// check, mirroring `CacheKey`).
    pub training_len: usize,
}

impl HeaderRecord {
    /// Renders the one-line JSON payload.
    pub fn render(&self) -> String {
        format!(
            "{{\"t\":\"header\",\"corpus\":\"{:016x}\",\"training_len\":{}}}",
            self.corpus, self.training_len
        )
    }
}

/// One batch detection decision: a single (detector, DW, AS) cell of a
/// coverage grid, with the evidence behind its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord<'a> {
    /// Fingerprint of the training stream the detector was trained on.
    pub corpus: u64,
    /// Training stream length.
    pub training_len: usize,
    /// Detector family name (e.g. `stide`).
    pub detector: &'a str,
    /// Detector window DW.
    pub window: usize,
    /// Anomaly size AS.
    pub anomaly_size: usize,
    /// Cell verdict glyph: `D`, `W`, `B` or `U` (failed rows emit
    /// [`FailureRecord`]s instead).
    pub verdict: char,
    /// The maximal response registered within the incident span.
    pub score: f64,
    /// The detector's maximal-response floor (the alarm threshold).
    pub threshold: f64,
    /// Window-start position of the maximal response in the test
    /// stream.
    pub event_index: usize,
    /// Inclusive first window-start of the incident span.
    pub span_first: usize,
    /// Inclusive last window-start of the incident span.
    pub span_last: usize,
    /// How the trained model was obtained: `off`, `hit`, `wait` or
    /// `miss`.
    pub cache: &'static str,
    /// Supervised retries the model acquisition needed (0 in healthy
    /// runs).
    pub retries: u32,
}

impl CellRecord<'_> {
    /// Renders the one-line JSON payload.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(192);
        let _ = write!(
            out,
            "{{\"t\":\"cell\",\"corpus\":\"{:016x}\",\"training_len\":{},",
            self.corpus, self.training_len
        );
        push_str_field(&mut out, "detector", self.detector);
        let _ = write!(
            out,
            ",\"window\":{},\"anomaly_size\":{},\"verdict\":\"{}\",\"score\":",
            self.window, self.anomaly_size, self.verdict
        );
        push_f64(&mut out, self.score);
        out.push_str(",\"threshold\":");
        push_f64(&mut out, self.threshold);
        let _ = write!(
            out,
            ",\"event_index\":{},\"span_first\":{},\"span_last\":{},\"cache\":\"{}\",\"retries\":{}}}",
            self.event_index, self.span_first, self.span_last, self.cache, self.retries
        );
        out
    }
}

/// One streaming detection decision (or warmup absorption) from
/// `Bank::push`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecord<'a> {
    /// Human label of the stream, or `""` when unlabeled.
    pub stream_label: &'a str,
    /// The pre-hashed stream id the engine routes by.
    pub stream_hash: u64,
    /// Index of the detector within the stream's bank.
    pub slot: usize,
    /// Detector name.
    pub detector: &'a str,
    /// The event's sequence number within its feed.
    pub event_index: u64,
    /// Anomaly score in `[0, 1]` (0 for warmup records).
    pub score: f64,
    /// Verdict confidence in `[0, 1]` (0 for warmup records).
    pub confidence: f64,
    /// Static reason label (`maximal-response`, `normal`, `warmup`, …).
    pub reason: &'a str,
    /// Whether the detector absorbed the event during warmup instead
    /// of scoring it.
    pub warmup: bool,
}

impl StreamRecord<'_> {
    /// Renders the one-line JSON payload.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"t\":\"stream\",");
        push_str_field(&mut out, "stream", self.stream_label);
        let _ = write!(
            out,
            ",\"stream_hash\":\"{:016x}\",\"slot\":{},",
            self.stream_hash, self.slot
        );
        push_str_field(&mut out, "detector", self.detector);
        let _ = write!(out, ",\"event_index\":{},\"score\":", self.event_index);
        push_f64(&mut out, self.score);
        out.push_str(",\"confidence\":");
        push_f64(&mut out, self.confidence);
        out.push(',');
        push_str_field(&mut out, "reason", self.reason);
        let _ = write!(out, ",\"warmup\":{}}}", self.warmup);
        out
    }
}

/// A supervised unit of work that exhausted its retry budget — the
/// provenance of a `Failed` stripe in a coverage map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord<'a> {
    /// The supervision site (e.g. `row/stide/6`).
    pub site: &'a str,
    /// Attempts made before degrading.
    pub attempts: u32,
    /// The final attempt's error rendering.
    pub error: &'a str,
}

impl FailureRecord<'_> {
    /// Renders the one-line JSON payload.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"t\":\"failure\",");
        push_str_field(&mut out, "site", self.site);
        let _ = write!(out, ",\"attempts\":{},", self.attempts);
        push_str_field(&mut out, "error", self.error);
        out.push('}');
        out
    }
}

/// A streaming slot permanently degraded by a caught panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedRecord<'a> {
    /// Human label of the stream, or `""` when unlabeled.
    pub stream_label: &'a str,
    /// The pre-hashed stream id.
    pub stream_hash: u64,
    /// Index of the degraded detector within the stream's bank.
    pub slot: usize,
    /// Detector name.
    pub detector: &'a str,
    /// The event that triggered the degradation.
    pub event_index: u64,
}

impl DegradedRecord<'_> {
    /// Renders the one-line JSON payload.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"t\":\"degraded\",");
        push_str_field(&mut out, "stream", self.stream_label);
        let _ = write!(
            out,
            ",\"stream_hash\":\"{:016x}\",\"slot\":{},",
            self.stream_hash, self.slot
        );
        push_str_field(&mut out, "detector", self.detector);
        let _ = write!(out, ",\"event_index\":{}}}", self.event_index);
        out
    }
}

/// One guard-subsystem transition: a ladder movement, breaker state
/// change, or hibernation/rehydration.
///
/// Every numeric field renders as fixed-width hex so the export's
/// lexicographic sort groups a shard's records in chronological order
/// (`seq` is a per-shard monotonic counter), which is what lets
/// `flightcheck --guard` replay each shard's ladder and breaker chains
/// straight off the sorted dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardRecord<'a> {
    /// Shard id.
    pub shard: usize,
    /// Per-shard monotonic record counter (0-based).
    pub seq: u64,
    /// Drain cycle at which the transition took effect.
    pub cycle: u64,
    /// Transition kind: `ladder`, `breaker`, `hibernate` or
    /// `rehydrate`.
    pub kind: &'a str,
    /// State before (`ladder`/`breaker` kinds; `""` otherwise).
    pub from: &'a str,
    /// State after (or the cause label for hibernate/rehydrate).
    pub to: &'a str,
    /// The stream involved (hibernate/rehydrate kinds; 0 otherwise).
    pub stream_hash: u64,
}

impl GuardRecord<'_> {
    /// Renders the one-line JSON payload.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"t\":\"guard\",\"shard\":\"{:04x}\",\"seq\":\"{:016x}\",\"cycle\":\"{:016x}\",",
            self.shard, self.seq, self.cycle
        );
        push_str_field(&mut out, "kind", self.kind);
        out.push(',');
        push_str_field(&mut out, "from", self.from);
        out.push(',');
        push_str_field(&mut out, "to", self.to);
        let _ = write!(out, ",\"stream_hash\":\"{:016x}\"}}", self.stream_hash);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_renders_fixed_width_fingerprint() {
        let r = HeaderRecord {
            corpus: 0xabc,
            training_len: 60_000,
        };
        assert_eq!(
            r.render(),
            "{\"t\":\"header\",\"corpus\":\"0000000000000abc\",\"training_len\":60000}"
        );
    }

    #[test]
    fn cell_renders_every_field_in_order() {
        let r = CellRecord {
            corpus: 1,
            training_len: 10,
            detector: "stide",
            window: 6,
            anomaly_size: 4,
            verdict: 'D',
            score: 1.0,
            threshold: 1.0,
            event_index: 123,
            span_first: 120,
            span_last: 126,
            cache: "hit",
            retries: 0,
        };
        let line = r.render();
        assert!(line.starts_with("{\"t\":\"cell\","), "{line}");
        assert!(line.contains("\"verdict\":\"D\""), "{line}");
        assert!(line.contains("\"score\":1.0,\"threshold\":1.0"), "{line}");
        assert!(line.contains("\"cache\":\"hit\",\"retries\":0"), "{line}");
    }

    #[test]
    fn identical_decisions_render_identical_bytes() {
        let mk = || {
            StreamRecord {
                stream_label: "host-a",
                stream_hash: 7,
                slot: 1,
                detector: "ewma",
                event_index: 42,
                score: 0.5,
                confidence: 0.9,
                reason: "elevated-response",
                warmup: false,
            }
            .render()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn hostile_strings_are_escaped() {
        let r = FailureRecord {
            site: "row/\"evil\"\n",
            attempts: 4,
            error: "tab\there",
        };
        let line = r.render();
        assert!(line.contains("row/\\\"evil\\\"\\n"), "{line}");
        assert!(line.contains("tab\\there"), "{line}");
    }

    #[test]
    fn guard_renders_fixed_width_hex_in_sortable_order() {
        let r = GuardRecord {
            shard: 3,
            seq: 1,
            cycle: 9,
            kind: "ladder",
            from: "full",
            to: "shedding",
            stream_hash: 0,
        };
        assert_eq!(
            r.render(),
            "{\"t\":\"guard\",\"shard\":\"0003\",\"seq\":\"0000000000000001\",\"cycle\":\"0000000000000009\",\"kind\":\"ladder\",\"from\":\"full\",\"to\":\"shedding\",\"stream_hash\":\"0000000000000000\"}"
        );
        // Lexicographic order of rendered lines == (shard, seq) order,
        // the property the export sort relies on.
        let later = GuardRecord {
            seq: 2,
            ..r.clone()
        };
        let other_shard = GuardRecord {
            shard: 4,
            seq: 0,
            ..r.clone()
        };
        assert!(r.render() < later.render());
        assert!(later.render() < other_shard.render());
    }

    #[test]
    fn non_finite_scores_render_null() {
        let r = StreamRecord {
            stream_label: "",
            stream_hash: 0,
            slot: 0,
            detector: "x",
            event_index: 0,
            score: f64::NAN,
            confidence: f64::INFINITY,
            reason: "warmup",
            warmup: true,
        };
        let line = r.render();
        assert!(line.contains("\"score\":null"), "{line}");
        assert!(line.contains("\"confidence\":null"), "{line}");
    }
}
