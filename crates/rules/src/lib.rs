//! Rule-induction substrate for the `detdiv` workspace.
//!
//! Warrender, Forrest & Pearlmutter (1999) — the paper's reference \[20\]
//! — evaluated four data models over system-call streams: stide,
//! t-stide, a hidden Markov model, and **RIPPER**, a sequential-covering
//! rule learner whose rules predict the next call from the preceding
//! window. This crate supplies that last model as an extension baseline:
//!
//! * [`Example`] / [`examples_from_counter`] — weighted unique
//!   (context, next) training pairs, read off a training census;
//! * [`learn_rules`] — RIPPER-style induction: rarest-class-first
//!   sequential covering with FOIL-gain rule growth (see the module docs
//!   for the documented simplifications);
//! * [`RuleSet`] / [`Rule`] — the ordered rule list with confidences and
//!   a default class.
//!
//! ```
//! use detdiv_rules::{examples_from_counter, learn_rules, LearnConfig};
//! use detdiv_sequence::{symbols, StreamProfile, Symbol};
//!
//! let mut stream = Vec::new();
//! for _ in 0..50 { stream.extend(symbols(&[3, 1, 4, 1, 5])); }
//! let examples = examples_from_counter(&StreamProfile::new(&stream).counter(3));
//! let rules = learn_rules(&examples, &LearnConfig::default()).unwrap();
//! // "ctx ends (3, 1)" predicts 4; "(1, 5)" predicts 3; etc.
//! assert_eq!(rules.predict(&symbols(&[3, 1])).class, Symbol::new(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod error;
mod learn;
mod rule;

pub use error::RuleError;
pub use learn::{examples_from_counter, learn_rules, Example, LearnConfig};
pub use rule::{Condition, Rule, RulePrediction, RuleSet};
