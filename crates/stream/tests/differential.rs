//! Batch ↔ stream differential suite.
//!
//! The streaming adapter's whole value rests on one claim: pushing a
//! test stream event-by-event through [`ModelAdapter`] yields **the
//! same bits** as the one-shot batch
//! [`detdiv_core::TrainedModel::scores`] call — for every detector
//! family of the experiment suite, at every detector window, on any
//! input. This suite enforces the claim three ways:
//!
//! 1. deterministically, over the synthesized corpus grid (every
//!    family × window × anomaly-size cell; the full paper grid runs in
//!    release mode under the `streamcheck` bench binary and the CI
//!    stream gate);
//! 2. structurally, at the warmup boundary (exactly `DW − 1` silent
//!    events; empty and shorter-than-window streams emit nothing);
//! 3. property-based, over random training/test pairs including empty,
//!    short, and duplicate-symbol-run streams, and over interleaved
//!    multi-stream feeds through the [`StreamEngine`].

use std::sync::Arc;

use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
use detdiv_detectors::{
    HmmConfig, HmmDetector, LaneBrodley, MarkovDetector, NeuralConfig, NeuralDetector,
    RipperDetector, Stide, TStide,
};
use detdiv_sequence::{symbols, StreamProfile, Symbol};
use detdiv_stream::{
    hash_stream_id, stream_scores, ModelAdapter, SignalContext, StreamDetector, StreamEngine,
};
use detdiv_synth::{Corpus, SynthesisConfig};
use proptest::prelude::*;

/// The seven families of the experiment suite, hyperparameters turned
/// down exactly as in the core conformance suite so the iterative
/// substrates stay fast without changing the contract under test.
fn families(window: usize) -> Vec<Box<dyn SequenceAnomalyDetector>> {
    vec![
        Box::new(Stide::new(window)),
        Box::new(TStide::new(window)),
        Box::new(MarkovDetector::new(window)),
        Box::new(HmmDetector::with_config(
            window,
            HmmConfig {
                states: Some(4),
                max_iters: 4,
                max_training_events: 1_000,
                ..HmmConfig::default()
            },
        )),
        Box::new(NeuralDetector::with_config(
            window,
            NeuralConfig {
                hidden: 4,
                epochs: 4,
                min_count: 2,
                ..NeuralConfig::default()
            },
        )),
        Box::new(LaneBrodley::new(window)),
        Box::new(RipperDetector::new(window)),
    ]
}

fn trained_families(training: &[Symbol], window: usize) -> Vec<Arc<dyn TrainedModel>> {
    let profile = StreamProfile::new(training);
    families(window)
        .into_iter()
        .map(|mut det| {
            det.train(&profile);
            Arc::new(det) as Arc<dyn TrainedModel>
        })
        .collect()
}

fn corpus(seed: u64) -> Corpus {
    let config = SynthesisConfig::builder()
        .training_len(4_000)
        .anomaly_sizes(2..=3)
        .windows(2..=6)
        .background_len(128)
        .plant_repeats(3)
        .seed(seed)
        .build()
        .expect("valid differential config");
    Corpus::synthesize(&config).expect("synthesis succeeds")
}

fn assert_bit_identical(family: &str, context: &str, batch: &[f64], streamed: &[f64]) {
    assert_eq!(
        batch.len(),
        streamed.len(),
        "{family}: {context}: emission count diverges from batch score count"
    );
    for (i, (b, s)) in batch.iter().zip(streamed).enumerate() {
        assert!(
            b.to_bits() == s.to_bits(),
            "{family}: {context}: scores diverge at window {i}: batch {b} vs streamed {s}"
        );
    }
}

/// Every family × window × anomaly-size cell of the reduced grid:
/// streamed scores are bit-identical to batch scores.
#[test]
fn streamed_equals_batch_across_the_grid() {
    let corpus = corpus(41);
    let config = corpus.config();
    for window in config.windows() {
        for model in trained_families(corpus.training(), window) {
            for anomaly_size in config.anomaly_sizes() {
                let case = corpus.case(anomaly_size, window).expect("synthesized case");
                let test: &[Symbol] = detdiv_core::LabeledCase::test_stream(&case);
                let batch = model.scores(test);
                let streamed = stream_scores(&model, test);
                assert_bit_identical(
                    model.name(),
                    &format!("DW={window} AS={anomaly_size}"),
                    &batch,
                    &streamed,
                );
            }
        }
    }
}

/// The warmup boundary is exact for every family: `DW − 1` silent
/// events, a verdict on event `DW`, and one verdict per event after.
#[test]
fn warmup_boundary_is_exact() {
    let corpus = corpus(43);
    for window in [2usize, 4, 6] {
        for model in trained_families(corpus.training(), window) {
            let name = model.name().to_owned();
            let mut adapter = ModelAdapter::new(Arc::clone(&model));
            assert_eq!(adapter.warmup_len(), window - 1, "{name}");
            let test = corpus.training()[..window + 3].to_vec();
            for (i, &s) in test.iter().enumerate() {
                let r = adapter.update(&SignalContext::from_symbol(i as u64, 0, s));
                if i < window - 1 {
                    assert!(r.is_none(), "{name}: event {i} must be silent warmup");
                } else {
                    let r = r.unwrap_or_else(|| panic!("{name}: event {i} must emit"));
                    assert!(
                        (0.0..=1.0).contains(&r.score),
                        "{name}: score {} out of range",
                        r.score
                    );
                }
            }
        }
    }
}

/// Empty and shorter-than-window streams emit nothing, matching the
/// batch contract of an empty scores vector.
#[test]
fn empty_and_short_streams_emit_nothing() {
    let corpus = corpus(47);
    for model in trained_families(corpus.training(), 5) {
        let name = model.name().to_owned();
        assert!(stream_scores(&model, &[]).is_empty(), "{name}: empty");
        assert!(
            stream_scores(&model, &corpus.training()[..4]).is_empty(),
            "{name}: shorter than one window"
        );
        assert!(model.scores(&corpus.training()[..4]).is_empty());
    }
}

/// Interleaved multi-stream feeds through the engine keep every
/// stream's window state independent: each stream's emitted scores are
/// bit-identical to scoring that stream alone in batch.
#[test]
fn interleaved_streams_match_batch_per_stream() {
    let corpus = corpus(53);
    let window = 3;
    let models = trained_families(corpus.training(), window);
    let case_a = corpus.case(2, window).expect("case AS=2");
    let case_b = corpus.case(3, window).expect("case AS=3");
    let stream_a: &[Symbol] = detdiv_core::LabeledCase::test_stream(&case_a);
    let stream_b: &[Symbol] = detdiv_core::LabeledCase::test_stream(&case_b);

    let mut engine = StreamEngine::new(|| {
        models
            .iter()
            .map(|m| Box::new(ModelAdapter::new(Arc::clone(m))) as Box<dyn StreamDetector>)
            .collect()
    });
    let id_a = hash_stream_id("stream-a");
    let id_b = hash_stream_id("stream-b");

    // Interleave with an uneven cadence (two of A, one of B).
    let mut collected_a: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    let mut collected_b: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    let mut out = Vec::new();
    let mut ia = 0usize;
    let mut ib = 0usize;
    while ia < stream_a.len() || ib < stream_b.len() {
        for _ in 0..2 {
            if ia < stream_a.len() {
                out.clear();
                engine.push(
                    &SignalContext::from_symbol(ia as u64, id_a, stream_a[ia]),
                    &mut out,
                );
                for r in &out {
                    collected_a[r.slot].push(r.result.score);
                }
                ia += 1;
            }
        }
        if ib < stream_b.len() {
            out.clear();
            engine.push(
                &SignalContext::from_symbol(ib as u64, id_b, stream_b[ib]),
                &mut out,
            );
            for r in &out {
                collected_b[r.slot].push(r.result.score);
            }
            ib += 1;
        }
    }

    assert_eq!(engine.stream_count(), 2);
    assert_eq!(engine.degraded_slots(), 0);
    for (slot, model) in models.iter().enumerate() {
        assert_bit_identical(
            model.name(),
            "interleaved stream a",
            &model.scores(stream_a),
            &collected_a[slot],
        );
        assert_bit_identical(
            model.name(),
            "interleaved stream b",
            &model.scores(stream_b),
            &collected_b[slot],
        );
    }
}

proptest! {
    // Training the iterative substrates dominates runtime; a handful of
    // randomized cases already sweeps alphabets, lengths and window
    // geometries well beyond the deterministic grid above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random training/test pairs — including empty, shorter-than-window
    /// and duplicate-symbol-run test streams (the tiny alphabet makes
    /// long runs of one symbol common) — stream bit-identically to
    /// batch for all seven families.
    #[test]
    fn random_streams_are_bit_identical(
        window in 2usize..=5,
        training in prop::collection::vec(0u32..4, 200..600),
        test in prop::collection::vec(0u32..4, 0..60),
        run_symbol in 0u32..4,
        run_len in 0usize..30,
    ) {
        let training = symbols(&training);
        // Append a duplicate-symbol run so pathological repetition is
        // exercised on every case, not just when the generator happens
        // to produce one.
        let mut test = symbols(&test);
        test.extend(std::iter::repeat_n(Symbol::new(run_symbol), run_len));
        for model in trained_families(&training, window) {
            let batch = model.scores(&test);
            let streamed = stream_scores(&model, &test);
            prop_assert_eq!(
                batch.len(),
                streamed.len(),
                "{}: emission count diverges", model.name()
            );
            for (i, (b, s)) in batch.iter().zip(&streamed).enumerate() {
                prop_assert!(
                    b.to_bits() == s.to_bits(),
                    "{}: window {}: batch {} vs streamed {}",
                    model.name(), i, b, s
                );
            }
        }
    }
}
