//! Evaluation framework for sequence-based anomaly detectors — the
//! primary contribution of Tan & Maxion, *"The Effects of Algorithmic
//! Diversity on Anomaly Detector Performance"* (DSN 2005).
//!
//! The framework answers, for a detector and a labelled anomalous event,
//! the paper's questions D and E (Figure 1): *is the anomalous
//! manifestation detectable by the detector, and is the detector tuned to
//! detect it?* Its pieces:
//!
//! * [`SequenceAnomalyDetector`] — the generic three-component detector
//!   shape (window-based normal model, similarity metric, threshold);
//! * [`IncidentSpan`] — the window positions influenced by an injected
//!   anomaly (Figure 2);
//! * [`evaluate_case`] / [`Classification`] — the blind / weak / capable
//!   verdict (§5.5);
//! * [`CoverageMap`] — per-detector detection-coverage maps over the
//!   (anomaly size × detector window) grid (Figures 3–6), with union /
//!   intersection / subset / gain algebra for diversity analysis (§7);
//! * [`analyze_alarms`] / [`threshold_sweep`] — hit and false-alarm
//!   accounting;
//! * [`AlarmEnsemble`], [`suppress_alarms`] — the paper's combination
//!   idioms (coverage union; Stide-confirms-Markov suppression).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod coverage;
mod detector;
mod diversity;
mod ensemble;
mod error;
mod incident;
mod instrument;
mod metrics;
mod outcome;

pub use coverage::{CellStatus, CoverageMap};
pub use detector::{
    alarms_at, memoized_scores, response_count, SequenceAnomalyDetector, TrainedModel,
};
pub use diversity::DiversityMatrix;
pub use ensemble::{alarm_union, suppress_alarms, AlarmEnsemble, CombinationRule};
pub use error::EvalError;
pub use incident::IncidentSpan;
pub use instrument::InstrumentedDetector;
pub use metrics::{analyze_alarms, threshold_sweep, AlarmAnalysis, RocPoint};
pub use outcome::{
    classify_scores, evaluate_case, evaluate_scores, Classification, DetectionOutcome, LabeledCase,
    OwnedCase,
};
