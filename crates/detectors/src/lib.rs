//! The diverse sequence-based anomaly detectors of Tan & Maxion
//! (DSN 2005).
//!
//! All detectors share the paper's three-component shape (§4.2): a normal
//! model acquired by sliding a fixed-length window over training data, a
//! **similarity metric** — the sole axis of diversity in the study — and
//! a thresholding mechanism. They implement
//! [`detdiv_core::SequenceAnomalyDetector`] and are interchangeable in
//! the evaluation framework.
//!
//! | Detector | Similarity metric | Responds to |
//! |---|---|---|
//! | [`Stide`] | exact sequence match | foreign sequences only |
//! | [`MarkovDetector`] | conditional probability of the next element | foreign and rare sequences |
//! | [`NeuralDetector`] | feed-forward approximation of those conditionals | foreign and rare sequences (parameter-sensitive) |
//! | [`LaneBrodley`] | adjacency-weighted positional similarity | (blind to MFS anomalies) |
//!
//! Extensions beyond the paper's four: [`TStide`] (Stide with a frequency
//! threshold, Warrender et al. 1999), [`HmmDetector`] (the hidden-Markov
//! data model of the same study) and [`RipperDetector`] (its
//! rule-induction data model). [`locality_frame_count`] is the
//! post-processor over Stide's responses that the paper deliberately
//! sets aside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod hmm;
mod lane_brodley;
mod markov;
mod neural;
mod ripper;
mod stide;
mod tstide;

pub use hmm::{HmmConfig, HmmDetector};
pub use lane_brodley::{lane_brodley_sim_max, lane_brodley_similarity, LaneBrodley};
pub use markov::MarkovDetector;
pub use neural::{NeuralConfig, NeuralDetector};
pub use ripper::{RipperConfig, RipperDetector};
pub use stide::{locality_frame_count, Stide};
pub use tstide::TStide;
