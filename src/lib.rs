//! # detdiv — the effects of algorithmic diversity on anomaly detectors
//!
//! A complete Rust reproduction of Tan & Maxion, *"The Effects of
//! Algorithmic Diversity on Anomaly Detector Performance"* (DSN 2005).
//!
//! This facade crate re-exports the workspace's public API under stable
//! module names:
//!
//! * [`sequence`] — categorical streams, n-gram databases, minimal
//!   foreign sequence (MFS) analysis;
//! * [`markov`] — Markov-chain substrate (order-k conditional models);
//! * [`hmm`] — hidden-Markov-model substrate (Baum–Welch, scaled forward);
//! * [`rules`] — RIPPER-style sequential-covering rule induction;
//! * [`nn`] — feed-forward neural-network substrate;
//! * [`synth`] — the paper's synthetic evaluation data: training streams,
//!   MFS construction and boundary-safe injection;
//! * [`detectors`] — the four diverse detectors (Stide, Markov,
//!   neural-network, Lane & Brodley) plus extensions (t-stide, LFC);
//! * [`core`] — the evaluation framework: incident spans,
//!   blind/weak/capable scoring, coverage maps, ensembles;
//! * [`cache`] — the concurrent single-flight cache of trained detector
//!   models shared across the experiment suite (disable with
//!   `DETDIV_CACHE=off`);
//! * [`trace`] — system-call trace parsing and synthesis;
//! * [`eval`] — experiment drivers reproducing every figure and analysis
//!   of the paper;
//! * [`obs`] — the zero-dependency observability layer (leveled
//!   logging via `DETDIV_LOG`, hierarchical timing spans, counters and
//!   histograms, serializable run telemetry);
//! * [`par`] — the work-stealing thread pool behind the evaluation
//!   grid's parallel fan-outs (deterministic results regardless of
//!   `DETDIV_THREADS`);
//! * [`scope`] — live runtime introspection: an embedded HTTP server
//!   exposing Prometheus-format metrics, health, snapshot and
//!   self-profile endpoints, plus a background time-series sampler
//!   (arm with `regenerate --serve HOST:PORT` or `DETDIV_SERVE`);
//! * [`serve`] — the sharded multi-stream ingest service: per-stream
//!   detector state sharded across bounded queues with typed
//!   backpressure, a cheap always-on tier-1 gate fronting the trained
//!   tier-2 bank, per-stream degradation under faults, and crash-safe
//!   shard-state snapshots with `--resume`-style recovery (drive it at
//!   scale with the `loadgen` binary);
//! * [`stream`] — the online streaming engine: a push-based
//!   [`stream::StreamDetector`] contract, sliding-window adapters that
//!   score event-by-event bit-identically to the batch path, and a
//!   genuinely-online detector (EWMA).
//!
//! # Quickstart
//!
//! ```
//! use detdiv::prelude::*;
//!
//! // Synthesize a small instance of the paper's evaluation data.
//! let config = SynthesisConfig::builder()
//!     .training_len(30_000)
//!     .anomaly_sizes(2..=4)
//!     .windows(2..=6)
//!     .background_len(512)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let corpus = Corpus::synthesize(&config).unwrap();
//! let case = corpus.case(4, 6).unwrap();
//!
//! // Train Stide and ask whether the injected minimal foreign sequence
//! // is detected: with DW (6) >= AS (4) it must be.
//! let mut stide = Stide::new(6);
//! stide.train(&StreamProfile::new(case.training()));
//! let outcome = evaluate_case(&stide, &case).unwrap();
//! assert_eq!(outcome.classification(), Classification::Capable);
//!
//! // With DW (2) < AS (4), Stide is blind — the paper's Figure 5.
//! let mut small = Stide::new(2);
//! small.train(&StreamProfile::new(case.training()));
//! let case2 = corpus.case(4, 2).unwrap();
//! let outcome2 = evaluate_case(&small, &case2).unwrap();
//! assert_eq!(outcome2.classification(), Classification::Blind);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use detdiv_cache as cache;
pub use detdiv_core as core;
pub use detdiv_detectors as detectors;
pub use detdiv_eval as eval;
pub use detdiv_hmm as hmm;
pub use detdiv_markov as markov;
pub use detdiv_nn as nn;
pub use detdiv_obs as obs;
pub use detdiv_par as par;
pub use detdiv_rules as rules;
pub use detdiv_scope as scope;
pub use detdiv_sequence as sequence;
pub use detdiv_serve as serve;
pub use detdiv_stream as stream;
pub use detdiv_synth as synth;
pub use detdiv_trace as trace;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use detdiv_core::{
        evaluate_case, Classification, CoverageMap, DetectionOutcome, DiversityMatrix,
        IncidentSpan, LabeledCase, SequenceAnomalyDetector, TrainedModel,
    };
    pub use detdiv_detectors::{
        HmmDetector, LaneBrodley, MarkovDetector, NeuralDetector, RipperDetector, Stide, TStide,
    };
    pub use detdiv_eval::{coverage_map, DetectorKind, FullReport};
    pub use detdiv_sequence::{
        symbols, Alphabet, NgramCounter, StreamProfile, Symbol, DEFAULT_RARE_THRESHOLD,
    };
    pub use detdiv_serve::{IngestService, ServeConfig, Tier1Config, VerdictSink};
    pub use detdiv_stream::{
        stream_scores, DetectionResult, ModelAdapter, SignalContext, StreamDetector, StreamEngine,
    };
    pub use detdiv_synth::{Corpus, InjectedCase, SynthesisConfig};
}
