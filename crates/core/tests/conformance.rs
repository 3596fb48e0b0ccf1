//! Detector-contract conformance suite.
//!
//! The single-flight trained-model cache (`detdiv-cache`) shares one
//! trained [`TrainedModel`] across every evaluation case and every
//! worker thread that asks for the same (training stream, family,
//! window) key. That sharing is only sound if every detector family
//! honours three contracts:
//!
//! 1. **`&self`-purity** — scoring is a pure function of the trained
//!    state and the test stream: the same stream scores identically on
//!    repeated calls, including concurrent calls from multiple threads;
//! 2. **train-once/score-many ≡ train-per-case** — one model trained on
//!    a stream scores every case exactly as a freshly trained detector
//!    would (this is the cache's core substitution);
//! 3. **retrain idempotence** — retraining on the same stream replaces
//!    the model with an equivalent one (training is not accumulative in
//!    a way that changes scores), also when the retraining reads a
//!    census every family shares, whose counters were folded from a
//!    longer window rather than counted (a coverage sweep's census).
//!
//! All seven families of the experiment suite are checked: stide,
//! t-stide, markov, hmm, neural network, Lane & Brodley, and the
//! RIPPER-style rule learner. Stochastic substrates (HMM, neural net)
//! are seeded, so "equivalent" here is bit-identical.
//!
//! A fourth contract covers the streaming side (`detdiv-stream`, a
//! dev-only dependency): every family's [`detdiv_stream::ModelAdapter`]
//! must stay silent for exactly `DW − 1` warmup events, emit verdicts
//! with score and confidence in `[0, 1]` afterwards, replay a stream
//! bit-identically after `reset`, and be `Send` so the engine can move
//! detector banks across worker threads.

use detdiv_core::{LabeledCase, SequenceAnomalyDetector, TrainedModel};
use detdiv_detectors::{
    HmmConfig, HmmDetector, LaneBrodley, MarkovDetector, NeuralConfig, NeuralDetector,
    RipperDetector, Stide, TStide,
};
use detdiv_sequence::{StreamProfile, Symbol};
use detdiv_synth::{Corpus, SynthesisConfig};
use proptest::prelude::*;

/// One freshly constructed, untrained detector per family, with
/// hyperparameters turned down far enough that the expensive substrates
/// (HMM's Baum–Welch, the neural net's backprop epochs) stay fast on
/// test-sized corpora without changing the contracts under test.
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

/// A small but structurally faithful instance of the paper's synthetic
/// evaluation data.
fn corpus(seed: u64) -> Corpus {
    let config = SynthesisConfig::builder()
        .training_len(4_000)
        .anomaly_sizes(2..=3)
        .windows(2..=4)
        .background_len(128)
        .plant_repeats(3)
        .seed(seed)
        .build()
        .expect("valid conformance config");
    Corpus::synthesize(&config).expect("synthesis succeeds")
}

fn assert_scores_eq(family: &str, context: &str, a: &[f64], b: &[f64]) {
    assert_eq!(
        a.len(),
        b.len(),
        "{family}: {context}: score lengths diverge"
    );
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{family}: {context}: scores diverge at window {i}: {x} vs {y}"
        );
    }
}

/// Contract (1): scoring is `&self`-pure. The same test stream scores
/// bit-identically on repeated serial calls and when four threads score
/// through a shared reference concurrently — exactly the access pattern
/// the cache creates when workers share one `Arc<dyn TrainedModel>`.
#[test]
fn scoring_is_self_pure_serially_and_across_threads() {
    let corpus = corpus(11);
    let case = corpus.case(3, 3).expect("synthesized case");
    let test: &[Symbol] = case.test_stream();
    for mut det in families(3) {
        det.train(&StreamProfile::new(corpus.training()));
        let name = det.name().to_owned();
        let first = det.scores(test);
        let second = det.scores(test);
        assert_scores_eq(&name, "serial rescoring", &first, &second);

        let shared: &dyn SequenceAnomalyDetector = det.as_ref();
        let concurrent: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| shared.scores(test)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (caller, got) in concurrent.iter().enumerate() {
            assert_scores_eq(&name, &format!("concurrent caller {caller}"), &first, got);
        }
    }
}

/// Contract (2): one model trained on the corpus stream scores every
/// case exactly as a detector freshly trained per case does. This is
/// the substitution the single-flight cache performs on every hit.
#[test]
fn train_once_score_many_matches_train_per_case() {
    let corpus = corpus(23);
    for (family_index, mut shared) in families(3).into_iter().enumerate() {
        shared.train(&StreamProfile::new(corpus.training()));
        let name = shared.name().to_owned();
        for anomaly_size in 2..=3 {
            let case = corpus.case(anomaly_size, 3).expect("synthesized case");
            let cached_scores = shared.scores(case.test_stream());

            let mut fresh = families(3).remove(family_index);
            fresh.train(&StreamProfile::new(case.training()));
            let fresh_scores = fresh.scores(case.test_stream());
            assert_scores_eq(
                &name,
                &format!("AS={anomaly_size} train-per-case"),
                &fresh_scores,
                &cached_scores,
            );
        }
    }
}

/// Contract (4): the streaming adapter honours the `StreamDetector`
/// contract for every family — exactly `DW − 1` leading `None`s, every
/// verdict's score and confidence in `[0, 1]`, and a bit-identical
/// replay after `reset`.
#[test]
fn stream_adapters_conform() {
    use detdiv_stream::{ModelAdapter, SignalContext, StreamDetector};
    use std::sync::Arc;

    let corpus = corpus(31);
    for window in 2..=4 {
        let case = corpus.case(2, window).expect("synthesized case");
        let test: &[Symbol] = case.test_stream();
        for mut det in families(window) {
            det.train(&StreamProfile::new(corpus.training()));
            let name = det.name().to_owned();
            let model: Arc<dyn TrainedModel> = Arc::new(det);
            let mut adapter = ModelAdapter::new(Arc::clone(&model));
            assert_eq!(adapter.warmup_len(), window - 1, "{name}");

            let feed = |adapter: &mut ModelAdapter| -> Vec<f64> {
                let mut scores = Vec::new();
                for (i, &s) in test.iter().enumerate() {
                    match adapter.update(&SignalContext::from_symbol(i as u64, 0, s)) {
                        None => assert!(
                            i < window - 1,
                            "{name}: silent past the warmup boundary at event {i}"
                        ),
                        Some(r) => {
                            assert!(
                                i >= window - 1,
                                "{name}: verdict inside warmup at event {i}"
                            );
                            assert!(
                                (0.0..=1.0).contains(&r.score),
                                "{name}: score {} out of range",
                                r.score
                            );
                            assert!(
                                (0.0..=1.0).contains(&r.confidence),
                                "{name}: confidence {} out of range",
                                r.confidence
                            );
                            assert!(!r.reason.is_empty(), "{name}: empty reason");
                            scores.push(r.score);
                        }
                    }
                }
                scores
            };

            let first = feed(&mut adapter);
            assert_scores_eq(&name, "streamed vs batch", &model.scores(test), &first);
            adapter.reset();
            let replay = feed(&mut adapter);
            assert_scores_eq(&name, "replay after reset", &first, &replay);
        }
    }
}

/// Contract (4), `Send` half: adapters (and boxed stream detectors in
/// general) can move across worker threads. Compile-time assertion.
#[test]
fn stream_adapters_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<detdiv_stream::ModelAdapter>();
    assert_send::<Box<dyn detdiv_stream::StreamDetector>>();
}

proptest! {
    // Training the two iterative substrates dominates runtime; a handful
    // of randomized corpora already exercises the contract across
    // alphabets, injection positions and window/anomaly geometries.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Contract (3): retraining on the same stream — from a census
    /// shared by every family and primed at a longer window — yields an
    /// equivalent (bit-identical-scoring) model for every family, over
    /// randomized synthesized corpora and windows.
    #[test]
    fn retraining_on_the_same_stream_is_equivalent(
        seed in 0u64..1_000,
        window in 2usize..=4,
    ) {
        let corpus = corpus(seed);
        let case = corpus.case(2, window).expect("synthesized case");
        let test: &[Symbol] = case.test_stream();
        let shared = StreamProfile::new(corpus.training());
        shared.counter(window + 4);
        for mut det in families(window) {
            det.train(&StreamProfile::new(corpus.training()));
            let name = det.name().to_owned();
            let before = det.scores(test);
            det.train(&shared);
            let after = det.scores(test);
            prop_assert_eq!(
                before.len(),
                after.len(),
                "{}: retrain changed score length", name
            );
            for (i, (x, y)) in before.iter().zip(&after).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "{}: retrain diverges at window {}: {} vs {}",
                    name, i, x, y
                );
            }
        }
    }
}
