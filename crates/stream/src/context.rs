//! The per-event input and output types of the push-based streaming API.
//!
//! A [`SignalContext`] is deliberately `Copy` and carries a *pre-hashed*
//! stream identity: the producer hashes its stream name once (with
//! [`hash_stream_id`]) when the stream is opened, and the per-event hot
//! path — [`crate::StreamDetector::update`] and
//! [`crate::StreamEngine::push`] — never touches a string or allocates.

use detdiv_sequence::Symbol;

/// Hashes a stream identifier to the `u64` carried by every
/// [`SignalContext`] of that stream (FNV-1a, stable across platforms
/// and runs).
///
/// Call this once per stream at open time, not per event.
///
/// # Examples
///
/// ```
/// use detdiv_stream::hash_stream_id;
///
/// let a = hash_stream_id("host-a/auditd");
/// assert_eq!(a, hash_stream_id("host-a/auditd"));
/// assert_ne!(a, hash_stream_id("host-b/auditd"));
/// ```
pub fn hash_stream_id(id: &str) -> u64 {
    detdiv_resil::fnv1a(id.as_bytes())
}

/// One event pushed into a stream detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalContext {
    /// Zero-based position of this event within its stream. Producers
    /// must supply consecutive values per stream; detectors use it only
    /// for warmup accounting and decay, never for reordering.
    pub seq: u64,
    /// Pre-hashed stream identity (see [`hash_stream_id`]); the routing
    /// key of [`crate::StreamEngine`].
    pub stream_id_hash: u64,
    /// The categorical event symbol scored by the model adapters.
    pub symbol: Symbol,
    /// Numeric magnitude for the value-based online detector (EWMA).
    /// The model adapters ignore it.
    pub value: f64,
}

impl SignalContext {
    /// An event with an explicit numeric magnitude.
    pub fn new(seq: u64, stream_id_hash: u64, symbol: Symbol, value: f64) -> SignalContext {
        SignalContext {
            seq,
            stream_id_hash,
            symbol,
            value,
        }
    }

    /// A purely categorical event: the magnitude defaults to the symbol
    /// id, which gives the value-based detectors a deterministic signal
    /// to track without the producer inventing one.
    pub fn from_symbol(seq: u64, stream_id_hash: u64, symbol: Symbol) -> SignalContext {
        SignalContext::new(seq, stream_id_hash, symbol, f64::from(symbol.id()))
    }
}

/// The verdict a [`crate::StreamDetector`] emits for one event once past
/// warmup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionResult {
    /// Anomaly score in `[0, 1]`; 1 is maximally anomalous. For model
    /// adapters this is bit-identical to the batch
    /// [`detdiv_core::TrainedModel::scores`] value at the same window
    /// position.
    pub score: f64,
    /// Confidence in `[0, 1]`. Adapters over trained models report 1;
    /// the online detectors ramp up from 0 as their running statistics
    /// accumulate evidence.
    pub confidence: f64,
    /// Static reason label (`&'static str` keeps the hot path
    /// allocation-free).
    pub reason: &'static str,
}

impl DetectionResult {
    /// A full-confidence result.
    pub fn certain(score: f64, reason: &'static str) -> DetectionResult {
        DetectionResult {
            score,
            confidence: 1.0,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    #[test]
    fn fnv_reference_values() {
        // FNV-1a test vectors (draft-eastlake-fnv).
        assert_eq!(hash_stream_id(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_stream_id("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_stream_id("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn from_symbol_uses_the_id_as_value() {
        let s = symbols(&[7])[0];
        let ctx = SignalContext::from_symbol(3, 9, s);
        assert_eq!(ctx.seq, 3);
        assert_eq!(ctx.stream_id_hash, 9);
        assert_eq!(ctx.value, 7.0);
    }

    #[test]
    fn certain_result_has_unit_confidence() {
        let r = DetectionResult::certain(0.25, "test");
        assert_eq!(r.confidence, 1.0);
        assert_eq!(r.score, 0.25);
        assert_eq!(r.reason, "test");
    }
}
