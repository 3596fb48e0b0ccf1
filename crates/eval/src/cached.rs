//! Cached model acquisition: the one place experiments obtain trained
//! detectors.
//!
//! Every experiment that needs a `(kind, window)` model trained on a
//! given stream goes through [`trained_model`], which consults the
//! process-wide single-flight [`detdiv_cache::global`] cache. The first
//! request for a key trains (under a `train` telemetry span, exactly as
//! the pre-cache hot paths did); every later request — including
//! concurrent requests racing on other `detdiv-par` workers — shares the
//! same immutable [`TrainedModel`].
//!
//! The cache key couples the *data* (a fingerprint + length of the
//! training stream) with the *detector identity* (the full `Debug`
//! rendering of [`DetectorKind`], which includes every hyperparameter)
//! and the window, so distinct configurations can never collide. With
//! `DETDIV_CACHE=off` (or `regenerate --no-cache`) the lookup is a pure
//! pass-through and each call trains afresh — scoring is `&self`-pure
//! and retraining is deterministic (enforced by the conformance suite),
//! so results are byte-identical either way.

use std::sync::Arc;

use detdiv_cache::{CacheKey, ModelCache};
use detdiv_core::TrainedModel;
use detdiv_resil::{CellOutcome, RetryPolicy};
use detdiv_sequence::{StreamProfile, Symbol};

use crate::kinds::DetectorKind;

/// Returns `kind` at `window`, trained on `training` — from the global
/// single-flight cache when enabled, freshly trained otherwise.
///
/// Concurrent callers requesting the same (stream, kind, window) while a
/// training run is in flight block until that single run publishes; no
/// duplicate training occurs.
///
/// The acquisition runs under [`detdiv_resil::supervised`]: a panic in
/// training (whether organic or injected at the `train/<detector>`
/// fault site) poisons and unlinks the cache slot, and the whole
/// lookup-or-train is retried with the default policy. Training is
/// deterministic, so a retried run publishes the identical model.
///
/// # Panics
///
/// Panics only after every retry is exhausted — the caller's own
/// supervision (e.g. a supervised coverage row) turns that into a
/// degraded cell instead of a dead sweep.
pub fn trained_model(
    training: &[Symbol],
    kind: &DetectorKind,
    window: usize,
) -> Arc<dyn TrainedModel> {
    trained_model_with_origin(training, kind, window).0
}

/// Provenance of one model acquisition, recorded into the flight audit
/// log alongside every cell decision the model contributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelOrigin {
    /// Fingerprint of the training stream (the cache key's `corpus`).
    pub corpus: u64,
    /// Length of the training stream.
    pub training_len: usize,
    /// How the cache satisfied the request: `off`, `hit`, `wait` or
    /// `miss`.
    pub cache: &'static str,
    /// Supervised retries the acquisition consumed (0 when healthy).
    pub retries: u32,
}

/// [`trained_model`] plus the acquisition's [`ModelOrigin`]: the cache
/// outcome of the final (successful) attempt, the retry count of the
/// supervision around it, and the training-stream identity.
///
/// # Panics
///
/// Exactly as [`trained_model`].
pub fn trained_model_with_origin(
    training: &[Symbol],
    kind: &DetectorKind,
    window: usize,
) -> (Arc<dyn TrainedModel>, ModelOrigin) {
    let corpus = detdiv_cache::fingerprint_stream(training);
    trained_model_in(
        detdiv_cache::global(),
        corpus,
        &StreamProfile::new(training),
        kind,
        window,
    )
}

/// The cache key of `kind` at `window` trained on `training`, whose
/// [`detdiv_cache::fingerprint_stream`] is `corpus`: equal to
/// [`CacheKey::for_training`] without re-reading the stream.
pub(crate) fn model_key(
    corpus: u64,
    training: &[Symbol],
    kind: &DetectorKind,
    window: usize,
) -> CacheKey {
    CacheKey::for_fingerprint(corpus, training, format!("{kind:?}"), window)
}

/// [`trained_model_with_origin`] from `cache`, for a caller that
/// already holds the training stream's census `profile` and its
/// fingerprint `corpus` — a sweep builds both once for all of its
/// models, which then train from the profile's shared counters.
pub(crate) fn trained_model_in(
    cache: &ModelCache,
    corpus: u64,
    profile: &StreamProfile<'_>,
    kind: &DetectorKind,
    window: usize,
) -> (Arc<dyn TrainedModel>, ModelOrigin) {
    let key = model_key(corpus, profile.stream(), kind, window);
    let site = format!("train/{}", kind.name());
    let outcome = detdiv_resil::supervised(&site, &RetryPolicy::default(), || {
        cache.get_or_train_traced(&key, || {
            let mut detector = kind.build(window);
            {
                let _train = detdiv_obs::span!("train", detector = kind.name(), window = window);
                if detdiv_resil::armed() {
                    detdiv_resil::point(&site);
                }
                detector.train(profile);
            }
            Arc::new(detector) as Arc<dyn TrainedModel>
        })
    });
    match outcome {
        CellOutcome::Ok {
            value: (model, cache_outcome),
            retries,
        } => {
            let origin = ModelOrigin {
                corpus: key.corpus,
                training_len: key.training_len,
                cache: cache_outcome.label(),
                retries,
            };
            (model, origin)
        }
        CellOutcome::Failed {
            site,
            attempts,
            error,
        } => panic!("training permanently failed at {site} after {attempts} attempts: {error}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    fn stream() -> Vec<Symbol> {
        symbols(&(0..200).map(|i| i % 8).collect::<Vec<_>>())
    }

    #[test]
    fn same_request_shares_a_model() {
        // Distinct window from other tests so this key is ours alone.
        let _guard = crate::test_lock();
        let s = stream();
        let a = trained_model(&s, &DetectorKind::Stide, 5);
        let b = trained_model(&s, &DetectorKind::Stide, 5);
        if detdiv_cache::enabled() {
            assert!(Arc::ptr_eq(&a, &b));
        }
        assert_eq!(a.scores(&s), b.scores(&s));
    }

    #[test]
    fn origin_reports_cache_outcome_and_identity() {
        // Window 9 is this test's alone, so the first request leads.
        let _guard = crate::test_lock();
        let s = stream();
        let (_, first) = trained_model_with_origin(&s, &DetectorKind::Stide, 9);
        let (_, second) = trained_model_with_origin(&s, &DetectorKind::Stide, 9);
        assert_eq!(first.training_len, s.len());
        assert_eq!(first.corpus, second.corpus);
        assert_eq!(first.retries, 0);
        if detdiv_cache::enabled() {
            assert_eq!(first.cache, "miss");
            assert_eq!(second.cache, "hit");
        } else {
            assert_eq!(first.cache, "off");
            assert_eq!(second.cache, "off");
        }
    }

    #[test]
    fn hyperparameters_are_part_of_the_key() {
        let s = stream();
        let loose = trained_model(
            &s,
            &DetectorKind::MarkovRare {
                rare_threshold: 0.02,
            },
            4,
        );
        let tight = trained_model(
            &s,
            &DetectorKind::MarkovRare {
                rare_threshold: 0.2,
            },
            4,
        );
        assert!(!Arc::ptr_eq(&loose, &tight));
        assert!(loose.maximal_response_floor() > tight.maximal_response_floor());
    }

    #[test]
    fn cached_scores_match_a_fresh_detector() {
        use detdiv_core::SequenceAnomalyDetector;
        let s = stream();
        let cached = trained_model(&s, &DetectorKind::Markov, 3);
        let mut fresh = DetectorKind::Markov.build(3);
        fresh.train(&StreamProfile::new(&s));
        assert_eq!(cached.scores(&s), fresh.scores(&s));
    }
}
