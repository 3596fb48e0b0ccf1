//! Synthetic evaluation data for the `detdiv` reproduction of Tan &
//! Maxion (DSN 2005), §5.3–§5.4.
//!
//! The study's control comes from its data: training data generated from
//! a Markov transition matrix (98 % a deterministic 8-symbol cycle, 2 %
//! rare material from nondeterminism), clean cycle background test data,
//! and a single **minimal foreign sequence** (MFS) anomaly per test
//! stream, injected so that every boundary window is a known sequence.
//!
//! * [`SynthesisConfig`] — the experiment's knobs, defaulting to the
//!   paper's values (1 M elements, alphabet 8, AS 2–9, DW 2–15, 0.5 %
//!   rarity);
//! * [`Corpus::synthesize`] — deterministic generate-and-verify
//!   assembly; every invariant of the paper's injection procedure is
//!   checked programmatically (see DESIGN.md §2.2);
//! * [`InjectedCase`] — one labelled (AS, DW) cell, pluggable into
//!   `detdiv_core::evaluate_case`;
//! * [`Anomaly`] — the synthesized MFS with its planted prefix/suffix
//!   views;
//! * [`save_corpus`] / [`load_corpus`] — the suite as on-disk files
//!   (training stream + per-anomaly test streams + manifest), with
//!   verification on load.
//!
//! ```
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
//! let anomaly = corpus.anomaly(3).unwrap();
//! assert_eq!(anomaly.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod anomaly;
mod config;
mod corpus;
mod error;
mod io;
mod matrix;
mod verify;

pub use anomaly::Anomaly;
pub use config::{SynthesisConfig, SynthesisConfigBuilder};
pub use corpus::{Corpus, InjectedCase, NoisyCase};
pub use error::SynthesisError;
pub use io::{load_corpus, save_corpus, CorpusIoError};
