//! Streaming adapters over batch-trained models.
//!
//! Every detector family states its similarity metric once, as
//! [`TrainedModel::score_one`] on one window, and batch
//! [`TrainedModel::scores`] is derived from it (`score_one` mapped over
//! the window positions, memoised per distinct window for the costly
//! families). [`ModelAdapter`] keeps the last `DW` symbols in a fixed
//! ring-less buffer and scores each full window with that same
//! `score_one`, so streamed and batch evaluation are the same numbers
//! by construction, not approximately the same.
//!
//! The adapter itself allocates nothing per event: the window buffer
//! is rotated with `copy_within`, and the reason label — the
//! [`Classification`] of the score against the model's floor — is a
//! `&'static str`. The closed-form families (Stide, t-stide, Markov,
//! Lane & Brodley) score a window without allocating.

use std::sync::Arc;

use detdiv_core::{Classification, TrainedModel};
use detdiv_sequence::Symbol;

use crate::context::{DetectionResult, SignalContext};
use crate::detector::StreamDetector;

/// Reason label for scores at or above the model's maximal-response
/// floor.
pub const REASON_MAXIMAL: &str = "maximal-response";
/// Reason label for positive scores below the floor.
pub const REASON_ELEVATED: &str = "elevated-response";
/// Reason label for zero scores.
pub const REASON_NORMAL: &str = "normal";

/// A [`StreamDetector`] wrapping an immutable batch-trained model.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
/// use detdiv_detectors::Stide;
/// use detdiv_sequence::{symbols, StreamProfile};
/// use detdiv_stream::{ModelAdapter, SignalContext, StreamDetector};
///
/// let mut stide = Stide::new(2);
/// stide.train(&StreamProfile::new(&symbols(&[1, 2, 3, 1, 2, 3])));
/// let mut adapter = ModelAdapter::new(Arc::new(stide));
///
/// let mut out = Vec::new();
/// for (i, &s) in symbols(&[3, 1, 2, 1]).iter().enumerate() {
///     out.push(adapter.update(&SignalContext::from_symbol(i as u64, 0, s)));
/// }
/// assert!(out[0].is_none()); // warmup: no full window yet
/// let scores: Vec<f64> = out[1..].iter().map(|r| r.unwrap().score).collect();
/// assert_eq!(scores, vec![0.0, 0.0, 1.0]); // == batch scores()
/// ```
pub struct ModelAdapter {
    model: Arc<dyn TrainedModel>,
    floor: f64,
    window: usize,
    buf: Vec<Symbol>,
    filled: usize,
}

impl std::fmt::Debug for ModelAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelAdapter")
            .field("model", &self.model.name())
            .field("window", &self.window)
            .field("filled", &self.filled)
            .finish()
    }
}

impl ModelAdapter {
    /// Wraps `model`; the adapter's window and warmup follow the
    /// model's detector window.
    ///
    /// # Panics
    ///
    /// Panics if the model reports a zero window.
    pub fn new(model: Arc<dyn TrainedModel>) -> ModelAdapter {
        let window = model.window();
        assert!(window > 0, "model window must be positive");
        let floor = model.maximal_response_floor();
        ModelAdapter {
            model,
            floor,
            window,
            buf: Vec::with_capacity(window),
            filled: 0,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<dyn TrainedModel> {
        &self.model
    }
}

impl StreamDetector for ModelAdapter {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn warmup_len(&self) -> usize {
        self.model.window() - 1
    }

    fn update(&mut self, ctx: &SignalContext) -> Option<DetectionResult> {
        let window = self.window;
        if self.filled < window {
            self.buf.push(ctx.symbol);
            self.filled += 1;
        } else {
            // Rotate left by one in place; no allocation.
            self.buf.copy_within(1.., 0);
            self.buf[window - 1] = ctx.symbol;
        }
        if self.filled < window {
            return None;
        }
        let score = self.model.score_one(&self.buf);
        let reason = match Classification::of(score, self.floor) {
            Classification::Capable => REASON_MAXIMAL,
            Classification::Weak => REASON_ELEVATED,
            Classification::Blind => REASON_NORMAL,
        };
        Some(DetectionResult::certain(score, reason))
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.filled = 0;
    }

    fn state_bytes(&self) -> Option<Vec<u8>> {
        // The per-stream state is exactly the window buffer: symbol
        // ids, little-endian u32 each (`filled` is its length; it never
        // exceeds the window). The trained model is shared and
        // reconstructed by the factory, never serialized.
        let mut out = Vec::with_capacity(4 * self.buf.len());
        for symbol in &self.buf {
            out.extend_from_slice(&symbol.id().to_le_bytes());
        }
        Some(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        if !bytes.len().is_multiple_of(4) || bytes.len() / 4 > self.window {
            self.reset();
            return false;
        }
        self.buf.clear();
        for chunk in bytes.chunks_exact(4) {
            let id = u32::from_le_bytes(chunk.try_into().unwrap());
            self.buf.push(Symbol::new(id));
        }
        self.filled = self.buf.len();
        true
    }

    fn state_bytes_cap(&self) -> usize {
        4 * self.window
    }
}

/// Streams `test` through a fresh [`ModelAdapter`] over `model` and
/// collects the emitted scores.
///
/// For every per-window model (all but Stide's locality frame count)
/// the result is bit-identical to `model.scores(test)` — same length
/// (`test.len() − DW + 1`, or empty when the stream is shorter than
/// one window), same values — which is what lets the evaluation
/// pipeline swap scoring modes without perturbing a single artifact
/// byte.
pub fn stream_scores(model: &Arc<dyn TrainedModel>, test: &[Symbol]) -> Vec<f64> {
    let mut adapter = ModelAdapter::new(Arc::clone(model));
    let expected = test.len().saturating_sub(model.window() - 1);
    let mut out = Vec::with_capacity(expected);
    for (i, &s) in test.iter().enumerate() {
        if let Some(r) = adapter.update(&SignalContext::from_symbol(i as u64, 0, s)) {
            out.push(r.score);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_core::SequenceAnomalyDetector;
    use detdiv_detectors::{MarkovDetector, Stide};
    use detdiv_sequence::{symbols, StreamProfile};

    fn trained_stide(window: usize) -> Arc<dyn TrainedModel> {
        let mut s = Stide::new(window);
        let mut train = Vec::new();
        for _ in 0..20 {
            train.extend(symbols(&[1, 2, 3, 4]));
        }
        s.train(&StreamProfile::new(&train));
        Arc::new(s)
    }

    #[test]
    fn warmup_emits_none_then_every_event_scores() {
        let model = trained_stide(4);
        let mut adapter = ModelAdapter::new(Arc::clone(&model));
        assert_eq!(adapter.warmup_len(), 3);
        let test = symbols(&[1, 2, 3, 4, 1, 2]);
        let mut emitted = 0;
        for (i, &s) in test.iter().enumerate() {
            let r = adapter.update(&SignalContext::from_symbol(i as u64, 0, s));
            if i < adapter.warmup_len() {
                assert!(r.is_none(), "event {i} should be warmup");
            } else {
                assert!(r.is_some(), "event {i} should score");
                emitted += 1;
            }
        }
        assert_eq!(emitted, test.len() - 3);
    }

    #[test]
    fn streamed_equals_batch_bitwise() {
        let model = trained_stide(3);
        let test = symbols(&[1, 2, 3, 4, 2, 4, 1, 2, 3]);
        let batch = model.scores(&test);
        let streamed = stream_scores(&model, &test);
        assert_eq!(batch.len(), streamed.len());
        for (b, s) in batch.iter().zip(&streamed) {
            assert_eq!(b.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn short_stream_emits_nothing() {
        let model = trained_stide(5);
        assert!(stream_scores(&model, &symbols(&[1, 2])).is_empty());
        assert!(stream_scores(&model, &[]).is_empty());
    }

    #[test]
    fn reason_labels_track_the_floor() {
        let model = trained_stide(2);
        let mut adapter = ModelAdapter::new(model);
        let test = symbols(&[1, 2, 2]); // (1,2) known, (2,2) foreign
        let mut results = Vec::new();
        for (i, &s) in test.iter().enumerate() {
            if let Some(r) = adapter.update(&SignalContext::from_symbol(i as u64, 0, s)) {
                results.push(r);
            }
        }
        assert_eq!(results[0].reason, REASON_NORMAL);
        assert_eq!(results[1].reason, REASON_MAXIMAL);
        assert!(results.iter().all(|r| r.confidence == 1.0));
    }

    #[test]
    fn reset_restores_warmup() {
        let model = trained_stide(3);
        let mut adapter = ModelAdapter::new(model);
        for (i, &s) in symbols(&[1, 2, 3, 4]).iter().enumerate() {
            adapter.update(&SignalContext::from_symbol(i as u64, 0, s));
        }
        adapter.reset();
        let r = adapter.update(&SignalContext::from_symbol(0, 0, symbols(&[1])[0]));
        assert!(r.is_none(), "post-reset first event must be warmup again");
    }

    #[test]
    fn adapter_state_roundtrips_mid_stream() {
        let model = trained_stide(3);
        let test = symbols(&[1, 2, 3, 4, 2, 4, 1, 2, 3, 3, 1]);
        let full = stream_scores(&model, &test);
        // Feed half, snapshot the window buffer, restore, feed the rest.
        let mut first = ModelAdapter::new(Arc::clone(&model));
        for (i, &s) in test[..5].iter().enumerate() {
            first.update(&SignalContext::from_symbol(i as u64, 0, s));
        }
        let state = first.state_bytes().expect("adapter is snapshotable");
        let mut resumed = ModelAdapter::new(Arc::clone(&model));
        assert!(resumed.restore_state(&state));
        let mut tail = Vec::new();
        for (i, &s) in test[5..].iter().enumerate() {
            if let Some(r) = resumed.update(&SignalContext::from_symbol(5 + i as u64, 0, s)) {
                tail.push(r.score);
            }
        }
        // Events 5.. of the uninterrupted run produced full[3..] (the
        // first window completes at event 2); the resumed run must
        // reproduce them bit-for-bit.
        assert_eq!(tail.len(), full.len() - 3);
        for (a, b) in full[3..].iter().zip(&tail) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Oversized or misaligned state degrades to a cold start.
        let mut fresh = ModelAdapter::new(model);
        assert!(!fresh.restore_state(&[0u8; 5]));
        assert!(!fresh.restore_state(&[0u8; 4 * 9]));
    }

    #[test]
    fn elevated_reason_for_sub_floor_positive_scores() {
        // Markov: a rare-but-seen transition scores strictly between 0
        // and the floor... use probability complements: P(2|1) = 5/7.
        let mut det = MarkovDetector::new(2);
        det.train(&StreamProfile::new(&symbols(&[
            1, 2, 1, 2, 1, 3, 1, 2, 1, 2, 1, 3, 1, 2,
        ])));
        let model: Arc<dyn TrainedModel> = Arc::new(det);
        let mut adapter = ModelAdapter::new(model);
        adapter.update(&SignalContext::from_symbol(0, 0, symbols(&[1])[0]));
        let r = adapter
            .update(&SignalContext::from_symbol(1, 0, symbols(&[2])[0]))
            .unwrap();
        assert!(r.score > 0.0 && r.score < 1.0);
        assert_eq!(r.reason, REASON_ELEVATED);
    }
}
