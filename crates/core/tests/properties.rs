//! Property tests for the evaluation framework's algebra and for the
//! transparency of the telemetry instrumentation layer.

use detdiv_core::{
    alarms_at, analyze_alarms, classify_scores, threshold_sweep, CellStatus, Classification,
    CoverageMap, DiversityMatrix, IncidentSpan, InstrumentedDetector, SequenceAnomalyDetector,
    TrainedModel,
};
use detdiv_sequence::{symbols, StreamProfile, Symbol};
use proptest::prelude::*;

/// A deterministic toy detector for transparency properties: response
/// is a pure function of the window content (`first id mod 10 / 10`,
/// maximal when the window starts with a multiple of ten).
#[derive(Debug, Clone)]
struct ModTen {
    name: &'static str,
    window: usize,
    trained_events: usize,
}

impl TrainedModel for ModTen {
    fn name(&self) -> &str {
        self.name
    }
    fn window(&self) -> usize {
        self.window
    }
    fn score_one(&self, window: &[Symbol]) -> f64 {
        let m = window[0].id() % 10;
        if m == 0 {
            1.0
        } else {
            f64::from(m) / 10.0
        }
    }
}

impl SequenceAnomalyDetector for ModTen {
    fn train(&mut self, profile: &StreamProfile<'_>) {
        self.trained_events += profile.stream_len();
    }
}

fn arb_status() -> impl Strategy<Value = CellStatus> {
    prop_oneof![
        Just(CellStatus::Detect),
        Just(CellStatus::Weak),
        Just(CellStatus::Blind),
        Just(CellStatus::Undefined),
        Just(CellStatus::Failed),
    ]
}

fn arb_map(name: &'static str) -> impl Strategy<Value = CoverageMap> {
    prop::collection::vec(arb_status(), 9).prop_map(move |cells| {
        let mut m = CoverageMap::new(name, 2..=4, 2..=4);
        let mut it = cells.into_iter();
        for a in 2..=4 {
            for w in 2..=4 {
                m.set(a, w, it.next().expect("9 cells")).unwrap();
            }
        }
        m
    })
}

proptest! {
    /// Union and intersection are commutative in detections, and bound
    /// the individual maps: |a ∩ b| <= |a| <= |a ∪ b|.
    #[test]
    fn map_algebra_bounds(a in arb_map("a"), b in arb_map("b")) {
        let union = a.union(&b).unwrap();
        let inter = a.intersection(&b).unwrap();
        prop_assert_eq!(union.detection_count(), b.union(&a).unwrap().detection_count());
        prop_assert_eq!(inter.detection_count(), b.intersection(&a).unwrap().detection_count());
        prop_assert!(inter.detection_count() <= a.detection_count());
        prop_assert!(a.detection_count() <= union.detection_count());
        // Inclusion-exclusion on detection regions.
        prop_assert_eq!(
            union.detection_count() + inter.detection_count(),
            a.detection_count() + b.detection_count()
        );
    }

    /// Subset is reflexive and consistent with gain: a ⊆ b iff b gains
    /// nothing from a.
    #[test]
    fn subset_gain_consistency(a in arb_map("a"), b in arb_map("b")) {
        prop_assert!(a.is_subset_of(&a).unwrap());
        prop_assert_eq!(a.is_subset_of(&b).unwrap(), b.gain_from(&a).unwrap() == 0);
        // Union with a subset changes nothing.
        if a.is_subset_of(&b).unwrap() {
            prop_assert_eq!(a.union(&b).unwrap().detection_count(), b.detection_count());
        }
    }

    /// Jaccard is symmetric, in [0, 1], and 1 exactly when the detection
    /// regions coincide.
    #[test]
    fn jaccard_properties(a in arb_map("a"), b in arb_map("b")) {
        let j = a.jaccard(&b).unwrap();
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, b.jaccard(&a).unwrap());
        let same_region = a.is_subset_of(&b).unwrap() && b.is_subset_of(&a).unwrap();
        prop_assert_eq!(j == 1.0, same_region);
    }

    /// The diversity matrix agrees with the pairwise map operations.
    #[test]
    fn diversity_matrix_agrees_with_maps(a in arb_map("a"), b in arb_map("b"), c in arb_map("c")) {
        let maps = [a, b, c];
        let m = DiversityMatrix::from_maps(&maps).unwrap();
        for i in 0..3 {
            prop_assert_eq!(m.detections(i).unwrap(), maps[i].detection_count());
            for j in 0..3 {
                if i != j {
                    prop_assert_eq!(m.gain(i, j).unwrap(), maps[i].gain_from(&maps[j]).unwrap());
                    prop_assert!((m.jaccard(i, j).unwrap() - maps[i].jaccard(&maps[j]).unwrap()).abs() < 1e-12);
                }
            }
        }
    }

    /// Classification matches the definition for arbitrary responses.
    #[test]
    fn classification_matches_definition(
        scores in prop::collection::vec(0.0f64..=1.0, 5..30),
        first in 0usize..5,
        len in 1usize..5,
        floor in 0.5f64..=1.0,
    ) {
        let last = (first + len - 1).min(scores.len() - 1);
        let first = first.min(last);
        let span = IncidentSpan::from_bounds(first, last);
        let outcome = classify_scores(&scores, span, floor).unwrap();
        let in_span = &scores[first..=last];
        let max = in_span.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let expected = if max >= floor {
            Classification::Capable
        } else if max > 0.0 {
            Classification::Weak
        } else {
            Classification::Blind
        };
        prop_assert_eq!(outcome.classification(), expected);
        prop_assert_eq!(outcome.max_response(), max);
        prop_assert!(span.contains(outcome.max_position()));
    }

    /// Alarm accounting: hits + false alarms equals total alarms, and
    /// the false-alarm rate is within [0, 1].
    #[test]
    fn alarm_accounting_balances(
        scores in prop::collection::vec(0.0f64..=1.0, 6..40),
        threshold in 0.0f64..=1.0,
        first in 0usize..3,
        len in 1usize..4,
    ) {
        let last = (first + len - 1).min(scores.len() - 1);
        let first = first.min(last);
        let span = IncidentSpan::from_bounds(first, last);
        let alarms = alarms_at(&scores, threshold);
        let total_alarms = alarms.iter().filter(|&&a| a).count();
        let a = analyze_alarms(&alarms, span).unwrap();
        prop_assert_eq!(a.span_alarms + a.false_alarms, total_alarms);
        prop_assert_eq!(a.hit, a.span_alarms > 0);
        prop_assert!((0.0..=1.0).contains(&a.false_alarm_rate()));
        prop_assert_eq!(a.negatives, scores.len() - span.len());
    }

    /// Threshold sweeps are monotone: false-alarm rates never increase
    /// with the threshold, and once the hit is lost it stays lost.
    #[test]
    fn sweeps_are_monotone(
        scores in prop::collection::vec(0.0f64..=1.0, 6..40),
        first in 0usize..3,
    ) {
        let span = IncidentSpan::from_bounds(first, first + 2);
        let thresholds: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let pts = threshold_sweep(&scores, span, &thresholds).unwrap();
        for pair in pts.windows(2) {
            prop_assert!(pair[1].false_alarm_rate <= pair[0].false_alarm_rate + 1e-12);
            prop_assert!(!pair[1].hit || pair[0].hit);
        }
    }

    /// The telemetry wrapper is score-transparent for arbitrary traces
    /// and windows: scores, name, window, floor and minimum window all
    /// pass through bit-for-bit.
    #[test]
    fn instrumented_wrapper_is_score_transparent(
        trace in prop::collection::vec(0u32..50, 0..80),
        training in prop::collection::vec(0u32..50, 0..40),
        window in 1usize..=6,
    ) {
        let trace = symbols(&trace);
        let training = symbols(&training);
        let mut plain = ModTen { name: "prop-transparent", window, trained_events: 0 };
        let mut wrapped = InstrumentedDetector::new(plain.clone());
        plain.train(&StreamProfile::new(&training));
        wrapped.train(&StreamProfile::new(&training));
        prop_assert_eq!(wrapped.name(), plain.name());
        prop_assert_eq!(wrapped.window(), plain.window());
        prop_assert_eq!(wrapped.min_window(), plain.min_window());
        prop_assert_eq!(
            wrapped.maximal_response_floor(),
            plain.maximal_response_floor()
        );
        prop_assert_eq!(wrapped.scores(&trace), plain.scores(&trace));
        prop_assert_eq!(wrapped.inner().trained_events, plain.trained_events);
    }

    /// Concurrent callers sharing one wrapped detector all observe the
    /// serial scores (scoring is `&self`), and the recorded call/window
    /// counters account for every caller exactly once.
    #[test]
    fn instrumented_wrapper_is_consistent_under_concurrent_callers(
        trace in prop::collection::vec(0u32..50, 6..80),
        window in 1usize..=4,
        callers in 2usize..=6,
    ) {
        let trace = symbols(&trace);
        let wrapped = InstrumentedDetector::new(ModTen {
            name: "prop-concurrent",
            window,
            trained_events: 0,
        });
        let expected = wrapped.inner().scores(&trace);
        let before = detdiv_obs::snapshot();
        let all: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|_| scope.spawn(|| wrapped.scores(&trace)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, got) in all.iter().enumerate() {
            prop_assert_eq!(got, &expected, "caller {}", i);
        }
        let after = detdiv_obs::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        prop_assert_eq!(
            delta("detector/prop-concurrent/score_calls"),
            callers as u64
        );
        prop_assert_eq!(
            delta("detector/prop-concurrent/windows_scored"),
            (callers * expected.len()) as u64
        );
    }
}
