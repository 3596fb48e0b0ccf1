//! Categorical-sequence substrate for the `detdiv` reproduction of
//! Tan & Maxion, *"The Effects of Algorithmic Diversity on Anomaly
//! Detector Performance"* (DSN 2005).
//!
//! Every detector in the study consumes **fixed-length sequences of
//! categorical data** obtained by sliding a window over a stream. This
//! crate provides that shared vocabulary:
//!
//! * [`Symbol`], [`Alphabet`], [`SymbolTable`] — categorical elements and
//!   their closed universes;
//! * [`NgramCounter`] — the "normal database" of DW-sized sequences with
//!   their occurrence counts;
//! * [`BuildSymbolHasher`] — the word-at-a-time hasher of every table
//!   keyed by symbols or symbol windows;
//! * [`StreamProfile`] — the census of a training stream at every window
//!   length: one shared counter per length, built once, from which every
//!   counting detector trains; and the study's anomaly taxonomy over it:
//!   *foreign*, *rare* (relative frequency below 0.5 %,
//!   [`DEFAULT_RARE_THRESHOLD`]) and *minimal foreign* sequences (MFS,
//!   §5.1 of the paper);
//! * [`minimal_foreign_positions`] — the census tool behind the paper's
//!   observation (§4.1) that natural data is replete with MFSs.
//!
//! # Example: classifying an anomaly the way the paper does
//!
//! ```
//! use detdiv_sequence::{symbols, StreamProfile};
//!
//! // Training data: a common cycle with one rare excursion (2 -> 4).
//! let mut train = Vec::new();
//! for _ in 0..500 {
//!     train.extend(symbols(&[1, 2, 3, 4]));
//! }
//! train.extend(symbols(&[2, 4]));
//!
//! let profile = StreamProfile::build(&train, 4).unwrap();
//!
//! // (1,2,4): every proper subsequence occurs, the whole does not — the
//! // minimal foreign sequence used as the study's anomaly.
//! let anomaly = symbols(&[1, 2, 4]);
//! assert!(profile.is_minimal_foreign(&anomaly));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod error;
mod hash;
mod ngram;
mod profile;
mod symbol;

pub use error::SequenceError;
pub use hash::BuildSymbolHasher;
pub use ngram::{NgramCounter, DEFAULT_RARE_THRESHOLD};
pub use profile::{minimal_foreign_positions, StreamProfile};
pub use symbol::{symbols, Alphabet, Symbol, SymbolTable};
