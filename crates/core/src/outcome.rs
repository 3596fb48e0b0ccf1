//! Blind / weak / capable scoring of a detector against a labelled case.
//!
//! §5.5 of the paper: "a detector is described as *blind*, in the case
//! where the detector response is 0 for every sequence of the incident
//! span; *weak*, in the case where the maximum detector response
//! registered in the incident span is greater than 0 and less than 1 ...
//! and *capable*, in the case where at least one detector response of 1
//! was registered in the incident span."

use serde::{Deserialize, Serialize};

use detdiv_sequence::Symbol;

use crate::detector::{response_count, TrainedModel};
use crate::error::EvalError;
use crate::incident::IncidentSpan;

/// The paper's three-way verdict on a detector's response to an anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Classification {
    /// Response 0 everywhere in the incident span: the anomaly is
    /// perceived as completely normal.
    Blind,
    /// A positive but sub-maximal response: "something definitely
    /// abnormal has been seen", but a maximal-response threshold would
    /// not fire.
    Weak,
    /// At least one maximal response in the incident span: the anomaly is
    /// detected regardless of where the detection threshold is set.
    Capable,
}

impl Classification {
    /// The verdict on one response given the detector's maximal-response
    /// floor: capable at or above the floor, weak when positive but
    /// below it, blind at zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use detdiv_core::Classification;
    ///
    /// assert_eq!(Classification::of(0.995, 0.995), Classification::Capable);
    /// assert_eq!(Classification::of(0.5, 1.0), Classification::Weak);
    /// assert_eq!(Classification::of(0.0, 1.0), Classification::Blind);
    /// ```
    #[inline]
    pub fn of(response: f64, maximal_floor: f64) -> Classification {
        if response >= maximal_floor {
            Classification::Capable
        } else if response > 0.0 {
            Classification::Weak
        } else {
            Classification::Blind
        }
    }

    /// Whether this verdict counts as a detection (a star in the paper's
    /// performance maps).
    #[inline]
    pub const fn is_detection(self) -> bool {
        matches!(self, Classification::Capable)
    }
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Classification::Blind => "blind",
            Classification::Weak => "weak",
            Classification::Capable => "capable",
        };
        f.write_str(s)
    }
}

/// The result of evaluating one detector on one labelled test stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionOutcome {
    classification: Classification,
    max_response: f64,
    max_position: usize,
    span: IncidentSpan,
}

impl DetectionOutcome {
    /// The blind/weak/capable verdict.
    #[inline]
    pub const fn classification(&self) -> Classification {
        self.classification
    }

    /// The largest response registered within the incident span.
    #[inline]
    pub const fn max_response(&self) -> f64 {
        self.max_response
    }

    /// The window-start position at which the maximum response occurred.
    #[inline]
    pub const fn max_position(&self) -> usize {
        self.max_position
    }

    /// The incident span that was scored.
    #[inline]
    pub const fn span(&self) -> IncidentSpan {
        self.span
    }
}

/// A test stream labelled with its injected anomaly, together with the
/// training stream the detector should learn from.
///
/// Implemented by `detdiv_synth::InjectedCase`; kept as a trait here so
/// the evaluation framework stays independent of any particular data
/// source (synthetic corpora, parsed traces, hand-built fixtures).
pub trait LabeledCase {
    /// The training (normal) stream.
    fn training(&self) -> &[Symbol];
    /// The test stream containing the injected anomaly.
    fn test_stream(&self) -> &[Symbol];
    /// Index of the anomaly's first element within the test stream.
    fn injection_position(&self) -> usize;
    /// Length of the injected anomaly (AS).
    fn anomaly_len(&self) -> usize;
}

/// A self-contained labelled case, useful for fixtures and tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnedCase {
    /// The training (normal) stream.
    pub training: Vec<Symbol>,
    /// The test stream containing the injected anomaly.
    pub test: Vec<Symbol>,
    /// Index of the anomaly's first element within the test stream.
    pub injection_position: usize,
    /// Length of the injected anomaly.
    pub anomaly_len: usize,
}

impl LabeledCase for OwnedCase {
    fn training(&self) -> &[Symbol] {
        &self.training
    }
    fn test_stream(&self) -> &[Symbol] {
        &self.test
    }
    fn injection_position(&self) -> usize {
        self.injection_position
    }
    fn anomaly_len(&self) -> usize {
        self.anomaly_len
    }
}

/// Classifies a response vector against an incident span.
///
/// `maximal_floor` is the smallest response treated as maximal (1.0 for
/// exact detectors; `1 − r` for the probabilistic detectors, see
/// `DESIGN.md` §2.3).
///
/// # Errors
///
/// Returns [`EvalError::ScoreLengthMismatch`] if the span does not fit
/// within `scores`.
pub fn classify_scores(
    scores: &[f64],
    span: IncidentSpan,
    maximal_floor: f64,
) -> Result<DetectionOutcome, EvalError> {
    let in_span = span.slice(scores)?;
    let (mut max_response, mut max_offset) = (f64::NEG_INFINITY, 0);
    for (i, &s) in in_span.iter().enumerate() {
        if s > max_response {
            max_response = s;
            max_offset = i;
        }
    }
    Ok(DetectionOutcome {
        classification: Classification::of(max_response, maximal_floor),
        max_response,
        max_position: span.first() + max_offset,
        span,
    })
}

/// Scores an (already trained) detector on a labelled case: computes the
/// incident span for the detector's window, runs the detector over the
/// test stream, and classifies the in-span responses.
///
/// The caller trains the detector (training is the expensive step and is
/// often shared across cases).
///
/// # Errors
///
/// * [`EvalError::StreamShorterThanWindow`] /
///   [`EvalError::AnomalyOutOfBounds`] / [`EvalError::EmptyAnomaly`] from
///   span computation;
/// * [`EvalError::ScoreLengthMismatch`] if the detector produced a
///   response vector of unexpected length.
///
/// # Examples
///
/// ```
/// use detdiv_core::{
///     evaluate_case, Classification, OwnedCase, SequenceAnomalyDetector, TrainedModel,
/// };
/// use detdiv_sequence::{symbols, NgramCounter, StreamProfile, Symbol};
/// use std::sync::Arc;
///
/// /// A miniature Stide: foreign window => 1, known window => 0.
/// struct MiniStide { dw: usize, db: Arc<NgramCounter> }
/// impl TrainedModel for MiniStide {
///     fn name(&self) -> &str { "mini-stide" }
///     fn window(&self) -> usize { self.dw }
///     fn score_one(&self, w: &[Symbol]) -> f64 {
///         if self.db.contains(w) { 0.0 } else { 1.0 }
///     }
/// }
/// impl SequenceAnomalyDetector for MiniStide {
///     fn train(&mut self, p: &StreamProfile<'_>) { self.db = p.counter(self.dw); }
/// }
///
/// let case = OwnedCase {
///     training: symbols(&[1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]),
///     test: symbols(&[1, 2, 3, 4, 1, 3, 2, 4, 1, 2, 3, 4]),
///     injection_position: 5,
///     anomaly_len: 2, // the (3, 2) at positions 5..7
/// };
/// let mut det = MiniStide { dw: 2, db: Arc::new(NgramCounter::new(2)) };
/// det.train(&StreamProfile::new(&case.training));
/// let outcome = evaluate_case(&det, &case).unwrap();
/// assert_eq!(outcome.classification(), Classification::Capable);
/// ```
pub fn evaluate_case<D>(detector: &D, case: &dyn LabeledCase) -> Result<DetectionOutcome, EvalError>
where
    D: TrainedModel + ?Sized,
{
    let test = case.test_stream();
    let scores = detector.scores(test);
    let span = IncidentSpan::compute(
        test.len(),
        detector.window(),
        case.injection_position(),
        case.anomaly_len(),
    )?;
    let expected = response_count(test.len(), detector.window());
    if scores.len() != expected {
        return Err(EvalError::ScoreLengthMismatch {
            expected,
            found: scores.len(),
        });
    }
    let outcome = classify_scores(&scores, span, detector.maximal_response_floor());
    if detdiv_obs::telemetry_enabled() {
        detdiv_obs::incr_counter("eval/cases", 1);
        match &outcome {
            Ok(o) => {
                detdiv_obs::incr_counter(&format!("eval/classified/{}", o.classification()), 1);
            }
            Err(_) => detdiv_obs::incr_counter("eval/errors", 1),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: usize, b: usize) -> IncidentSpan {
        IncidentSpan::from_bounds(a, b)
    }

    #[test]
    fn blind_weak_capable_boundaries() {
        let scores = [0.0, 0.0, 0.0, 0.0];
        let o = classify_scores(&scores, span(1, 3), 1.0).unwrap();
        assert_eq!(o.classification(), Classification::Blind);
        assert!(!o.classification().is_detection());

        let scores = [0.0, 0.4, 0.0, 0.0];
        let o = classify_scores(&scores, span(1, 3), 1.0).unwrap();
        assert_eq!(o.classification(), Classification::Weak);
        assert_eq!(o.max_response(), 0.4);
        assert_eq!(o.max_position(), 1);

        let scores = [0.0, 0.4, 1.0, 0.0];
        let o = classify_scores(&scores, span(1, 3), 1.0).unwrap();
        assert_eq!(o.classification(), Classification::Capable);
        assert_eq!(o.max_position(), 2);
    }

    #[test]
    fn maximal_floor_shifts_capability() {
        // A rare-transition response of 0.995 is weak at floor 1.0 but
        // capable under the probabilistic detectors' floor of 1 - 0.005.
        let scores = [0.0, 0.995, 0.0];
        let strict = classify_scores(&scores, span(0, 2), 1.0).unwrap();
        assert_eq!(strict.classification(), Classification::Weak);
        let tolerant = classify_scores(&scores, span(0, 2), 0.995).unwrap();
        assert_eq!(tolerant.classification(), Classification::Capable);
    }

    #[test]
    fn out_of_span_responses_are_ignored() {
        // Maximal response *outside* the span must not count.
        let scores = [1.0, 0.0, 0.0, 0.0];
        let o = classify_scores(&scores, span(1, 3), 1.0).unwrap();
        assert_eq!(o.classification(), Classification::Blind);
    }

    #[test]
    fn classify_detects_span_overflow() {
        let scores = [0.0, 0.0];
        assert!(matches!(
            classify_scores(&scores, span(1, 3), 1.0),
            Err(EvalError::ScoreLengthMismatch { .. })
        ));
    }

    #[test]
    fn classification_display() {
        assert_eq!(Classification::Blind.to_string(), "blind");
        assert_eq!(Classification::Weak.to_string(), "weak");
        assert_eq!(Classification::Capable.to_string(), "capable");
    }

    /// Constant-score detector for plumbing tests.
    struct Constant {
        dw: usize,
        value: f64,
    }

    impl TrainedModel for Constant {
        fn name(&self) -> &str {
            "constant"
        }
        fn window(&self) -> usize {
            self.dw
        }
        fn score_one(&self, _window: &[Symbol]) -> f64 {
            self.value
        }
    }

    #[test]
    fn evaluate_case_plumbs_span_and_scores() {
        use detdiv_sequence::symbols;
        let case = OwnedCase {
            training: symbols(&[1, 2, 3]),
            test: symbols(&[1, 2, 3, 4, 5, 6, 7, 8]),
            injection_position: 3,
            anomaly_len: 2,
        };
        let det = Constant { dw: 3, value: 0.5 };
        let o = evaluate_case(&det, &case).unwrap();
        assert_eq!(o.classification(), Classification::Weak);
        assert_eq!(o.span().first(), 1);
        assert_eq!(o.span().last(), 4);
    }

    #[test]
    fn evaluate_case_rejects_bad_geometry() {
        use detdiv_sequence::symbols;
        let case = OwnedCase {
            training: symbols(&[1, 2, 3]),
            test: symbols(&[1, 2]),
            injection_position: 0,
            anomaly_len: 1,
        };
        let det = Constant { dw: 3, value: 0.0 };
        assert!(matches!(
            evaluate_case(&det, &case),
            Err(EvalError::StreamShorterThanWindow { .. })
        ));
    }

    /// Detector lying about its response length.
    struct Liar;
    impl TrainedModel for Liar {
        fn name(&self) -> &str {
            "liar"
        }
        fn window(&self) -> usize {
            2
        }
        fn score_one(&self, _window: &[Symbol]) -> f64 {
            0.0
        }
        fn scores(&self, _test: &[Symbol]) -> Vec<f64> {
            vec![0.0]
        }
    }

    #[test]
    fn evaluate_case_rejects_wrong_score_length() {
        use detdiv_sequence::symbols;
        let case = OwnedCase {
            training: vec![],
            test: symbols(&[1, 2, 3, 4, 5]),
            injection_position: 2,
            anomaly_len: 1,
        };
        assert!(matches!(
            evaluate_case(&Liar, &case),
            Err(EvalError::ScoreLengthMismatch { .. })
        ));
    }
}
