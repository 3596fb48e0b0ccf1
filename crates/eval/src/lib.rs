//! Experiment harness reproducing every figure and analysis of Tan &
//! Maxion, *"The Effects of Algorithmic Diversity on Anomaly Detector
//! Performance"* (DSN 2005).
//!
//! Each experiment of DESIGN.md's index has a driver here:
//!
//! | ID | Driver |
//! |---|---|
//! | FIG2 | [`fig2_incident_span`] |
//! | FIG3–FIG6 | [`coverage_map`] / [`paper_coverage_maps`] |
//! | FIG7 | [`fig7_similarity`] |
//! | COMB1 | [`comb1_stide_markov_subset`] |
//! | COMB2 | [`comb2_stide_lb_union`] |
//! | COMB3 | [`comb3_suppression`] |
//! | ABL1 | [`abl1_maximal_response_semantics`] |
//! | ABL2 | [`abl2_locality_frame_count`] |
//! | ABL3 | [`abl3_nn_sensitivity`] |
//! | ABL4 | [`abl4_training_length`] |
//! | NAT1 | [`nat1_census`] |
//! | EXT1 | [`ext1_extended_families`] |
//! | DIV1 | [`div1_diversity_matrix`] |
//! | MASQ1 | [`masq1_lane_brodley_masquerade`] |
//! | FN1 | [`fn1_threshold_sweeps`] |
//! | ANA1 | [`ana1_response_map`] |
//!
//! [`FullReport::generate`] runs them all against one synthesized
//! corpus; the `detdiv-bench` crate's `regenerate` binary is a thin CLI
//! over it.
//!
//! ```
//! use detdiv_eval::{coverage_map, DetectorKind};
//! use detdiv_synth::{Corpus, SynthesisConfig};
//!
//! let config = SynthesisConfig::builder()
//!     .training_len(30_000)
//!     .anomaly_sizes(2..=3)
//!     .windows(2..=4)
//!     .background_len(512)
//!     .build()
//!     .unwrap();
//! let corpus = Corpus::synthesize(&config).unwrap();
//! let stide = coverage_map(&corpus, &DetectorKind::Stide).unwrap();
//! println!("{}", stide.render()); // Figure 5 on a reduced grid
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod ablation;
mod analysis;
mod cached;
mod census;
pub mod checkpoint;
mod combination;
mod coverage;
mod diversity;
mod error;
mod extension;
mod figures;
mod kinds;
mod masquerade;
mod report;

pub use ablation::{
    abl1_maximal_response_semantics, abl2_locality_frame_count, abl3_nn_sensitivity,
    abl4_training_length, stide_reference_on_noisy_case, LfcRow, NnSensitivityRow,
    SemanticsAblation, TrainingLenRow,
};
pub use analysis::{ana1_response_map, fn1_threshold_sweeps, ResponseMap, SweepResult};
pub use cached::trained_model;
pub use census::{nat1_census, CensusResult};
pub use combination::{
    comb1_stide_markov_subset, comb2_stide_lb_union, comb3_suppression, render_suppression_table,
    SubsetResult, SuppressionConfig, SuppressionRow, UnionGainResult,
};
pub use coverage::{coverage_map, coverage_maps_for, expected_stide_map, paper_coverage_maps};
pub use diversity::{div1_diversity_matrix, DiversityResult};
pub use error::HarnessError;
pub use extension::{ext1_extended_families, ExtensionResult};
pub use figures::{fig2_incident_span, fig7_similarity, Fig2Result, Fig7Result};
pub use kinds::DetectorKind;
pub use masquerade::{masq1_lane_brodley_masquerade, MasqueradeResult};
pub use report::FullReport;

/// Does nothing. Coverage cells once had a second, streamed scoring
/// mode behind this switch; it wrote the same bytes as batch scoring by
/// contract, so turning it off is all that ever mattered, and that is
/// now the only mode. The name remains only because the benchmark pins
/// it off (`perfbench/src/main.rs`); ROADMAP item 8 deletes this stub
/// together with that call.
#[doc(hidden)]
pub fn set_stream_scoring(_on: bool) {}

/// Serializes the unit tests that switch the process-wide model cache
/// or pool width, or assert on what the global cache holds.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
