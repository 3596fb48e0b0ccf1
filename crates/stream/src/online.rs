//! A genuinely-online zero-dependency detector.
//!
//! The model adapters of [`crate::adapter`] replay a batch-trained model
//! over a sliding window; [`Ewma`] never sees a training set at all. It
//! keeps an exponentially weighted moving average and variance that
//! adapt as the stream evolves, and responds with a squashed z-score —
//! the serve path's always-on tier-1 gate.
//!
//! All state is plain `f64` arithmetic updated in a fixed order, so
//! replaying a stream reproduces every verdict bit-identically. Scores
//! and confidences stay in `[0, 1]`; confidence ramps linearly while the
//! running statistics accumulate their first `2 × warmup` observations.

use crate::context::{DetectionResult, SignalContext};
use crate::detector::StreamDetector;

/// Default warmup (events consumed before the first verdict).
pub const DEFAULT_WARMUP: usize = 16;

fn ramp_confidence(observed: u64, warmup: usize) -> f64 {
    let full_at = (2 * warmup.max(1)) as f64;
    (observed as f64 / full_at).min(1.0)
}

/// Squashes a non-negative deviation into `[0, 1)`: `d² / (1 + d²)`.
///
/// Monotone, smooth, and exactly 0 at zero deviation; a 3σ excursion
/// maps to 0.9.
fn squash(d: f64) -> f64 {
    let d2 = d * d;
    d2 / (1.0 + d2)
}

/// The per-stream running statistics of an EWMA tracker, without its
/// configuration: 24 bytes of `mean`, `var` and `observed`.
///
/// [`Ewma`] pairs one of these with its `alpha` and `warmup`. A service
/// that gates many streams under one configuration keeps a bare
/// `EwmaState` per stream and passes the shared parameters to
/// [`update`](EwmaState::update), so the math has one implementation
/// and the per-stream record does not repeat the configuration.
///
/// # Examples
///
/// ```
/// use detdiv_stream::{Ewma, EwmaState, SignalContext, StreamDetector};
/// use detdiv_sequence::Symbol;
///
/// let mut bare = EwmaState::default();
/// let mut det = Ewma::new(0.2, 2);
/// for (i, v) in [5.0, 6.0, 5.5, 40.0].into_iter().enumerate() {
///     let ctx = SignalContext::new(i as u64, 0, Symbol::new(0), v);
///     assert_eq!(bare.update(0.2, 2, &ctx), det.update(&ctx));
/// }
/// assert_eq!(det.state_bytes(), Some(bare.to_bytes().to_vec()));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct EwmaState {
    mean: f64,
    var: f64,
    observed: u64,
}

impl EwmaState {
    /// Folds one event into the statistics and scores it; `None` while
    /// the first `warmup` events are consumed. `alpha` must be within
    /// `(0, 1]` ([`Ewma::new`] checks it).
    #[inline]
    pub fn update(
        &mut self,
        alpha: f64,
        warmup: usize,
        ctx: &SignalContext,
    ) -> Option<DetectionResult> {
        let x = ctx.value;
        // Score against the PRE-update statistics — folding the event in
        // first would let a spike partially absorb its own surprise —
        // then update with West's incremental EWM mean/variance.
        let z = if self.observed == 0 {
            self.mean = x;
            self.var = 0.0;
            0.0
        } else {
            let sigma = self.var.sqrt();
            let dev = (x - self.mean).abs();
            let z = if sigma > 0.0 {
                dev / sigma
            } else if dev == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            let delta = x - self.mean;
            self.mean += alpha * delta;
            self.var = (1.0 - alpha) * (self.var + alpha * delta * delta);
            z
        };
        self.observed += 1;
        if (self.observed as usize) <= warmup {
            return None;
        }
        let score = if z.is_finite() { squash(z / 3.0) } else { 1.0 };
        Some(DetectionResult {
            score,
            confidence: ramp_confidence(self.observed, warmup),
            reason: "ewma-deviation",
        })
    }

    /// The serialized statistics: `mean` and `var` as `f64` bits, then
    /// `observed`, all little-endian.
    pub fn to_bytes(&self) -> [u8; 24] {
        let mut out = [0u8; 24];
        out[..8].copy_from_slice(&self.mean.to_bits().to_le_bytes());
        out[8..16].copy_from_slice(&self.var.to_bits().to_le_bytes());
        out[16..].copy_from_slice(&self.observed.to_le_bytes());
        out
    }

    /// Parses [`to_bytes`](EwmaState::to_bytes) output; `None` unless
    /// `bytes` is exactly 24 long.
    pub fn from_bytes(bytes: &[u8]) -> Option<EwmaState> {
        let fixed = <[u8; 24]>::try_from(bytes).ok()?;
        let word = |i: usize| {
            u64::from_le_bytes(fixed[i * 8..(i + 1) * 8].try_into().expect("8-byte slice"))
        };
        Some(EwmaState {
            mean: f64::from_bits(word(0)),
            var: f64::from_bits(word(1)),
            observed: word(2),
        })
    }
}

/// EWMA mean/variance tracker scoring each value by its squashed
/// z-score against the running statistics: an [`EwmaState`] plus its
/// smoothing factor and warmup.
///
/// # Examples
///
/// ```
/// use detdiv_stream::{Ewma, SignalContext, StreamDetector};
/// use detdiv_sequence::Symbol;
///
/// let mut det = Ewma::new(0.1, 8);
/// let sym = Symbol::new(0);
/// let mut last = None;
/// for i in 0..100 {
///     let v = if i == 99 { 80.0 } else { 5.0 };
///     last = det.update(&SignalContext::new(i, 0, sym, v));
/// }
/// assert!(last.unwrap().score > 0.9); // the spike stands out
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    warmup: usize,
    state: EwmaState,
}

impl Ewma {
    /// Creates a tracker with smoothing factor `alpha` and the given
    /// warmup length.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is within `(0, 1]`.
    pub fn new(alpha: f64, warmup: usize) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma {
            alpha,
            warmup,
            state: EwmaState::default(),
        }
    }

    /// The running mean.
    pub fn mean(&self) -> f64 {
        self.state.mean
    }
}

impl StreamDetector for Ewma {
    fn name(&self) -> &str {
        "ewma"
    }

    fn warmup_len(&self) -> usize {
        self.warmup
    }

    fn update(&mut self, ctx: &SignalContext) -> Option<DetectionResult> {
        self.state.update(self.alpha, self.warmup, ctx)
    }

    fn reset(&mut self) {
        self.state = EwmaState::default();
    }

    fn state_bytes(&self) -> Option<Vec<u8>> {
        // The running statistics are the entire per-stream state.
        Some(self.state.to_bytes().to_vec())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        match EwmaState::from_bytes(bytes) {
            Some(state) => {
                self.state = state;
                true
            }
            None => {
                self.reset();
                false
            }
        }
    }

    fn state_bytes_cap(&self) -> usize {
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::Symbol;

    fn feed(det: &mut dyn StreamDetector, values: &[f64]) -> Vec<Option<DetectionResult>> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| det.update(&SignalContext::new(i as u64, 0, Symbol::new(0), v)))
            .collect()
    }

    fn assert_contract(results: &[Option<DetectionResult>], warmup: usize) {
        for (i, r) in results.iter().enumerate() {
            if i < warmup {
                assert!(r.is_none(), "event {i} within warmup must be None");
            } else {
                let r = r.expect("event past warmup must score");
                assert!((0.0..=1.0).contains(&r.score), "score {} at {i}", r.score);
                assert!(
                    (0.0..=1.0).contains(&r.confidence),
                    "confidence {} at {i}",
                    r.confidence
                );
                assert!(!r.reason.is_empty());
            }
        }
    }

    #[test]
    fn ewma_flags_a_spike_and_forgives_steady_state() {
        let mut det = Ewma::new(0.2, 8);
        let mut values = vec![10.0; 60];
        values[50] = 500.0;
        let results = feed(&mut det, &values);
        assert_contract(&results, 8);
        assert!(results[50].unwrap().score > 0.9, "spike must stand out");
        assert!(results[40].unwrap().score < 0.1, "steady state is normal");
    }

    #[test]
    fn ewma_is_deterministic_on_replay() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 23) as f64).collect();
        let a = feed(&mut Ewma::new(0.1, 4), &values);
        let b = feed(&mut Ewma::new(0.1, 4), &values);
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.score.to_bits(), y.score.to_bits()),
                (None, None) => {}
                _ => panic!("emission pattern diverged"),
            }
        }
    }

    #[test]
    fn confidence_ramps_to_one() {
        let mut det = Ewma::new(0.1, 4);
        let values = vec![1.0; 20];
        let results = feed(&mut det, &values);
        let early = results[4].unwrap().confidence;
        let late = results[19].unwrap().confidence;
        assert!(early < 1.0);
        assert_eq!(late, 1.0);
        assert!(results
            .iter()
            .flatten()
            .map(|r| r.confidence)
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0] <= w[1]));
    }

    #[test]
    fn reset_restores_initial_state() {
        let values: Vec<f64> = (0..50).map(|i| (i % 9) as f64).collect();
        let mut det = Ewma::new(0.1, 4);
        let first = feed(&mut det, &values);
        det.reset();
        let second = feed(&mut det, &values);
        for (x, y) in first.iter().zip(&second) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.score.to_bits(), y.score.to_bits()),
                (None, None) => {}
                _ => panic!("emission pattern diverged after reset"),
            }
        }
    }

    #[test]
    fn ewma_state_roundtrips_mid_stream() {
        let values: Vec<f64> = (0..120).map(|i| ((i * 31) % 17) as f64).collect();
        let mut uninterrupted = Ewma::new(0.15, 6);
        let full = feed(&mut uninterrupted, &values);
        // Run to the midpoint, snapshot, restore into a fresh tracker.
        let mut first_half = Ewma::new(0.15, 6);
        feed(&mut first_half, &values[..60]);
        let state = first_half.state_bytes().expect("ewma is snapshotable");
        let mut resumed = Ewma::new(0.15, 6);
        assert!(resumed.restore_state(&state));
        let tail = feed(&mut resumed, &values[60..]);
        for (x, y) in full[60..].iter().zip(&tail) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.score.to_bits(), y.score.to_bits()),
                (None, None) => {}
                _ => panic!("emission pattern diverged after restore"),
            }
        }
        // Garbage bytes degrade to a reset, never a panic.
        let mut fresh = Ewma::new(0.15, 6);
        assert!(!fresh.restore_state(b"short"));
        assert_eq!(fresh.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0, 4);
    }

    proptest::proptest! {
        /// `Ewma` is config plus an `EwmaState`: fed the same values, a
        /// bare state given the same `alpha` and `warmup` produces
        /// bit-identical verdicts and state bytes, and restoring those
        /// bytes mid-stream changes nothing that follows.
        #[test]
        fn bare_state_matches_ewma_bit_for_bit(
            values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..120),
            alpha in 0.001f64..=1.0,
            warmup in 0usize..24,
            cut in 0usize..120,
        ) {
            let mut det = Ewma::new(alpha, warmup);
            let mut bare = EwmaState::default();
            let cut = cut % values.len();
            let mut resumed = None;
            for (i, &v) in values.iter().enumerate() {
                let ctx = SignalContext::new(i as u64, 0, Symbol::new(0), v);
                if i == cut {
                    let bytes = det.state_bytes().expect("ewma is snapshotable");
                    proptest::prop_assert_eq!(&bytes[..], &bare.to_bytes()[..]);
                    let restored = EwmaState::from_bytes(&bytes).expect("24 bytes");
                    proptest::prop_assert_eq!(restored.to_bytes(), bare.to_bytes());
                    let mut again = Ewma::new(alpha, warmup);
                    proptest::prop_assert!(again.restore_state(&bytes));
                    resumed = Some((again, restored));
                }
                let want = det.update(&ctx);
                let got = bare.update(alpha, warmup, &ctx);
                let bits = |r: Option<DetectionResult>| {
                    r.map(|r| (r.score.to_bits(), r.confidence.to_bits(), r.reason))
                };
                proptest::prop_assert_eq!(bits(got), bits(want));
                if let Some((again, restored)) = resumed.as_mut() {
                    proptest::prop_assert_eq!(bits(again.update(&ctx)), bits(want));
                    proptest::prop_assert_eq!(bits(restored.update(alpha, warmup, &ctx)), bits(want));
                }
            }
            proptest::prop_assert_eq!(
                det.state_bytes().expect("ewma is snapshotable"),
                bare.to_bytes().to_vec()
            );
            proptest::prop_assert!(EwmaState::from_bytes(&bare.to_bytes()[..23]).is_none());
        }
    }
}
