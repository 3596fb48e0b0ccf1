//! Online streaming detection for the detector-diversity suite.
//!
//! The paper's evaluation (and everything downstream of it in this
//! repository) is *batch*: train, then score a complete test stream in
//! one call. Deployment is not — events arrive one at a time, across
//! many interleaved streams, with no end in sight. This crate bridges
//! the two without forking the science:
//!
//! * [`StreamDetector`] — the push contract (`update` per event,
//!   explicit warmup via `None`, scores and confidences in `[0, 1]`,
//!   static reason labels);
//! * [`ModelAdapter`] / [`stream_scores`] — sliding-window adapters
//!   over any batch-trained [`detdiv_core::TrainedModel`], emitting
//!   scores **bit-identical** to the batch `scores()` vector (the
//!   differential suite in `tests/differential.rs` enforces this for
//!   every family × window cell of the paper grid);
//! * [`Ewma`] — a genuinely-online zero-dependency detector with no
//!   training set at all; its bare running statistics ([`EwmaState`])
//!   are the serve path's per-stream tier-1 gate;
//! * [`Bank`] — one stream's detectors with per-slot panic isolation,
//!   degradation reporting and snapshot/restore ([`SlotState`]); the
//!   serve path keeps one in each escalated stream's record;
//! * [`StreamEngine`] — multi-stream routing by pre-hashed id to one
//!   bank per stream.
//!
//! Because streamed and batch scores are the same bits, the report
//! scores in batch only: a score the serve path streams is the score
//! the report's coverage cell was built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod adapter;
mod context;
mod detector;
mod engine;
mod online;

pub use adapter::{stream_scores, ModelAdapter, REASON_ELEVATED, REASON_MAXIMAL, REASON_NORMAL};
pub use context::{hash_stream_id, DetectionResult, SignalContext};
pub use detector::StreamDetector;
pub use engine::{Bank, SlotResult, SlotState, StreamEngine};
pub use online::{Ewma, EwmaState, DEFAULT_WARMUP};
