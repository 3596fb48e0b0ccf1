//! The generic shape of a sequence-based anomaly detector.
//!
//! §4.2 of the paper describes the detectors under study as consisting of
//! three components: (1) a mechanism for modelling normal behaviour —
//! invariant across the study: a database acquired by sliding a
//! fixed-length window over training data; (2) a similarity metric — the
//! sole axis of diversity; and (3) a thresholding mechanism. This module
//! fixes that shape as a trait so the evaluation framework can treat all
//! four (and any future) detectors uniformly.

use std::collections::HashMap;

use detdiv_sequence::{BuildSymbolHasher, StreamProfile, Symbol};

/// The immutable scoring surface of a trained sequence anomaly detector.
///
/// This is the *train-phase output* of a [`SequenceAnomalyDetector`]:
/// everything needed to score test streams, and nothing that mutates the
/// model. Because scoring takes `&self` and the trait requires
/// `Send + Sync`, one trained model can be shared across threads (e.g.
/// behind an `Arc` in the `detdiv-par` pool, or memoized by
/// `detdiv-cache`) without re-training per consumer.
///
/// A trained model states its **similarity metric once**, in
/// [`TrainedModel::score_one`]: the anomaly response in `[0, 1]` of one
/// full window — `0` completely normal, `1` maximally anomalous (§5.5).
/// Batch scoring is derived from it: [`TrainedModel::scores`] maps
/// `score_one` over every window position, so the response at index `i`
/// covers `test[i .. i + window()]`, and a streamed score (one
/// `score_one` per event, `detdiv-stream`) equals the batch score at
/// the same position by construction. For next-element predictors (the
/// Markov- and neural-network-based detectors) that window comprises
/// the DW − 1 context elements *and* the predicted element, so all
/// detectors share one indexing convention.
///
/// Implementations must be **pure under scoring**: repeated calls on
/// the same window or stream — from one thread or several — return the
/// same responses. The conformance suite in
/// `crates/core/tests/conformance.rs` enforces this contract for every
/// detector family in the workspace.
pub trait TrainedModel: Send + Sync {
    /// Human-readable detector name, used in maps and reports.
    fn name(&self) -> &str;

    /// The detector-window length DW this instance was configured with
    /// (positive).
    fn window(&self) -> usize;

    /// Anomaly response of a *single* full window, in `[0, 1]`: the
    /// family's similarity metric.
    ///
    /// This is also the streaming hot path (`detdiv-stream` calls it
    /// once per event), so implementations should not allocate where
    /// the metric has an allocation-free form.
    ///
    /// `window.len()` must equal [`TrainedModel::window`];
    /// implementations return `1.0` (maximally anomalous) for malformed
    /// input rather than panicking on the serving path.
    fn score_one(&self, window: &[Symbol]) -> f64;

    /// Anomaly responses for every window position of `test`: exactly
    /// `test.len() - window() + 1` responses, or an empty vector when
    /// the stream is shorter than the window.
    ///
    /// Derived from [`TrainedModel::score_one`]. Families whose metric
    /// is costly override it with [`memoized_scores`], which computes
    /// each distinct window once; only a post-processor that is not a
    /// per-window function (Stide's locality frame count) overrides it
    /// with a different computation.
    fn scores(&self, test: &[Symbol]) -> Vec<f64> {
        test.windows(self.window())
            .map(|w| self.score_one(w))
            .collect()
    }

    /// The smallest response this detector's thresholding treats as a
    /// *maximal* (alarm-certain) response.
    ///
    /// Binary and similarity detectors (Stide, Lane & Brodley) keep the
    /// default of `1.0`: only exact maximal responses count. The
    /// probabilistic detectors override this to `1 − r` where `r` is the
    /// rare-sequence threshold, per the maximal-response rule documented
    /// in `DESIGN.md` §2.3.
    fn maximal_response_floor(&self) -> f64 {
        1.0
    }

    /// A rough estimate of the trained model's resident size in bytes,
    /// used by `detdiv-cache` for eviction accounting. Best-effort: the
    /// default of `0` means "unknown/negligible"; families with real
    /// databases override it.
    fn approx_bytes(&self) -> usize {
        0
    }
}

/// A sequence-based anomaly detector operating on fixed-length windows:
/// the **train phase** layered on top of [`TrainedModel`].
///
/// §4.2's three components map onto the two traits as follows: the
/// model-acquisition mechanism is [`SequenceAnomalyDetector::train`];
/// the similarity metric and thresholding are the [`TrainedModel`]
/// supertrait. Once trained, a detector *is* its trained model — the
/// evaluation framework scores through `&dyn TrainedModel` and never
/// needs `&mut` again.
pub trait SequenceAnomalyDetector: TrainedModel {
    /// Acquires the model of normal behaviour from the training stream
    /// `profile` censuses.
    ///
    /// The counting families read the shared n-gram counter of their
    /// window (`profile.counter(window)`), so detectors trained from one
    /// profile count the stream once between them; the others read
    /// `profile.stream()`.
    ///
    /// Called once per experiment; a second call replaces the model with
    /// one trained on the new stream only. Training on the same stream
    /// twice must produce equivalent models (identical scores on any
    /// test stream) — the property `detdiv-cache` relies on.
    fn train(&mut self, profile: &StreamProfile<'_>);

    /// The smallest usable window for this detector family (2 for the
    /// Markov- and neural-network-based detectors, which need at least
    /// one context element plus the predicted element; 1 is technically
    /// possible but excluded for Stide and L&B as well, see §6).
    fn min_window(&self) -> usize {
        2
    }
}

impl<D: TrainedModel + ?Sized> TrainedModel for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn window(&self) -> usize {
        (**self).window()
    }
    fn scores(&self, test: &[Symbol]) -> Vec<f64> {
        (**self).scores(test)
    }
    fn score_one(&self, window: &[Symbol]) -> f64 {
        (**self).score_one(window)
    }
    fn maximal_response_floor(&self) -> f64 {
        (**self).maximal_response_floor()
    }
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

impl<D: SequenceAnomalyDetector + ?Sized> SequenceAnomalyDetector for Box<D> {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        (**self).train(profile)
    }
    fn min_window(&self) -> usize {
        (**self).min_window()
    }
}

/// [`TrainedModel::scores`] for a model whose metric is costly: test
/// streams are highly repetitive, so each distinct window is scored
/// with [`TrainedModel::score_one`] once and its response reused.
/// Bit-identical to the unmemoised responses.
#[inline]
pub fn memoized_scores<M: TrainedModel + ?Sized>(model: &M, test: &[Symbol]) -> Vec<f64> {
    let mut memo: HashMap<&[Symbol], f64, BuildSymbolHasher> = HashMap::default();
    test.windows(model.window())
        .map(|w| {
            if let Some(&s) = memo.get(w) {
                s
            } else {
                let s = model.score_one(w);
                memo.insert(w, s);
                s
            }
        })
        .collect()
}

/// Number of window positions a detector with window `window` produces
/// on a stream of length `stream_len` (zero if the window does not fit).
#[inline]
pub fn response_count(stream_len: usize, window: usize) -> usize {
    if window == 0 || stream_len < window {
        0
    } else {
        stream_len - window + 1
    }
}

/// Binarises responses into alarms at `threshold`: `score >= threshold`.
///
/// # Examples
///
/// ```
/// use detdiv_core::alarms_at;
///
/// assert_eq!(alarms_at(&[0.0, 0.5, 1.0], 0.5), vec![false, true, true]);
/// ```
pub fn alarms_at(scores: &[f64], threshold: f64) -> Vec<bool> {
    scores.iter().map(|&s| s >= threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    /// A toy detector flagging any window containing symbol 9.
    struct FlagNine {
        window: usize,
    }

    impl TrainedModel for FlagNine {
        fn name(&self) -> &str {
            "flag-nine"
        }
        fn window(&self) -> usize {
            self.window
        }
        fn score_one(&self, window: &[Symbol]) -> f64 {
            if window.iter().any(|s| s.id() == 9) {
                1.0
            } else {
                0.0
            }
        }
    }

    impl SequenceAnomalyDetector for FlagNine {
        fn train(&mut self, _profile: &StreamProfile<'_>) {}
    }

    #[test]
    fn response_count_edges() {
        assert_eq!(response_count(10, 3), 8);
        assert_eq!(response_count(3, 3), 1);
        assert_eq!(response_count(2, 3), 0);
        assert_eq!(response_count(0, 1), 0);
        assert_eq!(response_count(5, 0), 0);
    }

    #[test]
    fn boxed_detectors_delegate() {
        let mut d: Box<dyn SequenceAnomalyDetector> = Box::new(FlagNine { window: 2 });
        d.train(&StreamProfile::new(&symbols(&[1, 2])));
        assert_eq!(d.name(), "flag-nine");
        assert_eq!(d.window(), 2);
        assert_eq!(d.maximal_response_floor(), 1.0);
        assert_eq!(d.min_window(), 2);
        assert_eq!(d.scores(&symbols(&[1, 9, 2])), vec![1.0, 1.0]);
    }

    #[test]
    fn alarms_threshold_is_inclusive() {
        assert_eq!(alarms_at(&[0.995, 0.994], 0.995), vec![true, false]);
    }

    #[test]
    fn provided_scores_are_one_score_one_per_window_and_memoizing_changes_nothing() {
        let d = FlagNine { window: 3 };
        let s = symbols(&[1, 2, 9, 4, 5, 9, 6, 1, 2, 9]);
        let batch = d.scores(&s);
        assert_eq!(batch.len(), response_count(s.len(), 3));
        for (i, w) in s.windows(3).enumerate() {
            assert_eq!(d.score_one(w).to_bits(), batch[i].to_bits());
        }
        let memoized = memoized_scores(&d, &s);
        assert_eq!(
            memoized.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            batch.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // A stream shorter than the window has no responses.
        assert!(d.scores(&symbols(&[1, 9])).is_empty());
        assert!(memoized_scores(&d, &symbols(&[1, 9])).is_empty());
    }
}
