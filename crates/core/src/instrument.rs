//! Telemetry instrumentation for detectors.
//!
//! [`InstrumentedDetector`] wraps any [`SequenceAnomalyDetector`] and
//! records, through [`detdiv_obs`]:
//!
//! * `detector/<name>/train_ns` — histogram of wall time per
//!   [`SequenceAnomalyDetector::train`] call;
//! * `detector/<name>/score_ns` — histogram of wall time per
//!   [`TrainedModel::scores`] call;
//! * `detector/<name>/train_calls`, `detector/<name>/score_calls` —
//!   call counters;
//! * `detector/<name>/windows_scored` — total window positions scored;
//! * `detector/<name>/alarms_raised` — responses at or above the
//!   detector's [`TrainedModel::maximal_response_floor`].
//!
//! The wrapper is transparent: name, window, floor, minimum window and
//! the scores themselves pass through unchanged, so wrapping cannot
//! perturb evaluation results. When telemetry is disabled
//! (`DETDIV_LOG=off`) each recording call reduces to one relaxed
//! atomic load.

use crate::detector::{SequenceAnomalyDetector, TrainedModel};
use detdiv_sequence::{StreamProfile, Symbol};
use std::time::Instant;

/// A transparent telemetry-recording wrapper around any detector; see
/// the module docs for the recorded series.
#[derive(Debug, Clone)]
pub struct InstrumentedDetector<D> {
    inner: D,
}

impl<D: SequenceAnomalyDetector> InstrumentedDetector<D> {
    /// Wraps `inner`; metric names are derived from
    /// `inner.name()` at call time.
    pub fn new(inner: D) -> Self {
        InstrumentedDetector { inner }
    }

    /// A reference to the wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps, returning the inner detector.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: TrainedModel> TrainedModel for InstrumentedDetector<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn window(&self) -> usize {
        self.inner.window()
    }

    fn scores(&self, test: &[Symbol]) -> Vec<f64> {
        if !detdiv_obs::telemetry_enabled() {
            return self.inner.scores(test);
        }
        let started = Instant::now();
        let scores = self.inner.scores(test);
        let elapsed = started.elapsed();
        let name = self.inner.name();
        let floor = self.inner.maximal_response_floor();
        let alarms = scores.iter().filter(|&&s| s >= floor).count() as u64;
        detdiv_obs::record_duration(&format!("detector/{name}/score_ns"), elapsed);
        detdiv_obs::incr_counter(&format!("detector/{name}/score_calls"), 1);
        detdiv_obs::incr_counter(
            &format!("detector/{name}/windows_scored"),
            scores.len() as u64,
        );
        if alarms > 0 {
            detdiv_obs::incr_counter(&format!("detector/{name}/alarms_raised"), alarms);
        }
        scores
    }

    fn score_one(&self, window: &[Symbol]) -> f64 {
        // The per-event streaming path: no spans, no counters — a
        // telemetry call per event would dominate the work being
        // measured. Streaming throughput is accounted by the engine.
        self.inner.score_one(window)
    }

    fn maximal_response_floor(&self) -> f64 {
        self.inner.maximal_response_floor()
    }

    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }
}

impl<D: SequenceAnomalyDetector> SequenceAnomalyDetector for InstrumentedDetector<D> {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        if !detdiv_obs::telemetry_enabled() {
            return self.inner.train(profile);
        }
        let started = Instant::now();
        self.inner.train(profile);
        let name = self.inner.name();
        detdiv_obs::record_duration(&format!("detector/{name}/train_ns"), started.elapsed());
        detdiv_obs::incr_counter(&format!("detector/{name}/train_calls"), 1);
    }

    fn min_window(&self) -> usize {
        self.inner.min_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    /// A toy detector: response 1.0 whenever the window starts with
    /// symbol 7, else 0.25.
    struct StartsWithSeven {
        name: &'static str,
        window: usize,
        trained: bool,
    }

    impl TrainedModel for StartsWithSeven {
        fn name(&self) -> &str {
            self.name
        }
        fn window(&self) -> usize {
            self.window
        }
        fn score_one(&self, window: &[Symbol]) -> f64 {
            if window[0].id() == 7 {
                1.0
            } else {
                0.25
            }
        }
    }

    impl SequenceAnomalyDetector for StartsWithSeven {
        fn train(&mut self, _profile: &StreamProfile<'_>) {
            self.trained = true;
        }
    }

    #[test]
    fn wrapper_is_transparent() {
        let mut plain = StartsWithSeven {
            name: "starts-with-seven",
            window: 2,
            trained: false,
        };
        let mut wrapped = InstrumentedDetector::new(StartsWithSeven {
            name: "starts-with-seven",
            window: 2,
            trained: false,
        });
        let train = symbols(&[1, 2, 3]);
        let test = symbols(&[7, 1, 7, 2]);
        plain.train(&StreamProfile::new(&train));
        wrapped.train(&StreamProfile::new(&train));
        assert_eq!(wrapped.name(), plain.name());
        assert_eq!(wrapped.window(), plain.window());
        assert_eq!(wrapped.min_window(), plain.min_window());
        assert_eq!(
            wrapped.maximal_response_floor(),
            plain.maximal_response_floor()
        );
        assert_eq!(wrapped.scores(&test), plain.scores(&test));
        assert!(wrapped.inner().trained);
        assert!(wrapped.into_inner().trained);
    }

    #[test]
    fn wrapper_records_training_scoring_and_alarm_telemetry() {
        let before = detdiv_obs::snapshot();
        // Telemetry counters are process-global and sibling tests score
        // a `starts-with-seven` concurrently: exact deltas need a
        // detector name no other test uses.
        let mut d = InstrumentedDetector::new(StartsWithSeven {
            name: "counted-seven",
            window: 2,
            trained: false,
        });
        d.train(&StreamProfile::new(&symbols(&[1, 2, 3, 4])));
        let scores = d.scores(&symbols(&[7, 1, 7, 2, 3]));
        assert_eq!(scores.len(), 4);
        let after = detdiv_obs::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(delta("detector/counted-seven/train_calls"), 1);
        assert_eq!(delta("detector/counted-seven/score_calls"), 1);
        assert_eq!(delta("detector/counted-seven/windows_scored"), 4);
        assert_eq!(delta("detector/counted-seven/alarms_raised"), 2);
        let train_hist = after
            .histogram("detector/counted-seven/train_ns")
            .expect("train histogram recorded");
        assert!(train_hist.count >= 1);
        assert!(after.histogram("detector/counted-seven/score_ns").is_some());
    }

    #[test]
    fn boxed_dynamic_detectors_can_be_wrapped() {
        let boxed: Box<dyn SequenceAnomalyDetector> = Box::new(StartsWithSeven {
            name: "starts-with-seven",
            window: 2,
            trained: false,
        });
        let mut wrapped = InstrumentedDetector::new(boxed);
        wrapped.train(&StreamProfile::new(&symbols(&[1, 2, 3])));
        assert_eq!(wrapped.scores(&symbols(&[7, 1, 2])).len(), 2);
        assert_eq!(wrapped.name(), "starts-with-seven");
    }
}
