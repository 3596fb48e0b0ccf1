//! Quickstart: synthesize the paper's evaluation data at a reduced
//! scale, train one of each detector, and see who notices the injected
//! minimal foreign sequence.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use detdiv::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize a corpus: 60k-element training stream (98 % cycle,
    //    2 % rare material), anomaly sizes 2-5, windows 2-8.
    let config = SynthesisConfig::builder()
        .training_len(60_000)
        .anomaly_sizes(2..=5)
        .windows(2..=8)
        .background_len(1024)
        .seed(2005)
        .build()?;
    let corpus = Corpus::synthesize(&config)?;

    println!(
        "training stream: {} elements over {}",
        corpus.training().len(),
        corpus.alphabet()
    );
    for anomaly in corpus.anomalies() {
        println!("  injected MFS of size {}: {}", anomaly.len(), anomaly);
    }

    // 2. Pick one cell of the evaluation grid: anomaly size 4, window 4.
    let (anomaly_size, window) = (4, 4);
    let case = corpus.case(anomaly_size, window)?;
    println!(
        "\nevaluating at anomaly size {anomaly_size}, detector window {window} \
         (anomaly injected at position {})",
        case.injection_position()
    );

    // 3. Train each detector on the same normal data and classify its
    //    response to the anomaly: blind, weak, or capable.
    for kind in DetectorKind::paper_four() {
        let mut detector = kind.build(window);
        detector.train(&StreamProfile::new(case.training()));
        let outcome = evaluate_case(&detector, &case)?;
        println!(
            "  {:<16} -> {:<8} (max in-span response {:.4})",
            detector.name(),
            outcome.classification().to_string(),
            outcome.max_response()
        );
    }

    // 4. The same detectors at a window smaller than the anomaly: Stide
    //    goes blind; the probabilistic detectors keep detecting. This is
    //    the paper's central diversity result.
    let small_window = 2;
    let case_small = corpus.case(anomaly_size, small_window)?;
    println!("\nsame anomaly, detector window {small_window} (< anomaly size):");
    for kind in DetectorKind::paper_four() {
        let mut detector = kind.build(small_window);
        detector.train(&StreamProfile::new(case_small.training()));
        let outcome = evaluate_case(&detector, &case_small)?;
        println!(
            "  {:<16} -> {:<8} (max in-span response {:.4})",
            detector.name(),
            outcome.classification().to_string(),
            outcome.max_response()
        );
    }

    Ok(())
}
