//! The paper's §7 deployment recipe, end to end: use the Markov-based
//! detector for coverage and Stide as a false-alarm suppressor.
//!
//! "Any alarms raised by the Markov-based detector, and not raised by
//! Stide, may be ignored as false alarms; alarms raised by both Stide
//! and the Markov-based detector are possible hits."
//!
//! ```text
//! cargo run --release --example suppression_ensemble
//! ```

use detdiv::core::{alarms_at, analyze_alarms, suppress_alarms, IncidentSpan, LabeledCase};
use detdiv::detectors::MarkovDetector;
use detdiv::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SynthesisConfig::builder()
        .training_len(120_000)
        .anomaly_sizes(2..=5)
        .windows(2..=8)
        .background_len(1024)
        .seed(42)
        .build()?;
    let corpus = Corpus::synthesize(&config)?;

    // A realistic monitoring stream: noisy background (the generation
    // matrix's rare-but-benign escapes included) with one injected
    // attack manifestation — an MFS of size 3.
    let anomaly_size = 3;
    let case = corpus.noisy_case(anomaly_size, 16_384, 7)?;
    let test = case.test_stream();
    println!(
        "monitoring stream: {} events, anomaly of size {anomaly_size} at position {}",
        test.len(),
        case.injection_position()
    );

    let window = 4;
    let span = IncidentSpan::compute(test.len(), window, case.injection_position(), anomaly_size)?;

    // The Markov detector, tuned sensitively (floor 0.98) so that it
    // also fires on the background's rare transitions — the regime in
    // which it "can only be expected to produce greater numbers of
    // false alarms than Stide".
    let mut markov = MarkovDetector::with_rare_threshold(window, 0.02);
    markov.train(&StreamProfile::new(case.training()));
    let markov_alarms = alarms_at(&markov.scores(test), markov.maximal_response_floor());

    // Stide at the same window: blind to rare-but-known sequences.
    let mut stide = Stide::new(window);
    stide.train(&StreamProfile::new(case.training()));
    let stide_alarms = alarms_at(&stide.scores(test), stide.maximal_response_floor());

    // The combination: keep only Markov alarms that Stide confirms.
    let suppressed = suppress_alarms(&markov_alarms, &stide_alarms)?;

    println!(
        "\n{:<28} {:>5} {:>14} {:>10}",
        "detector", "hit", "false alarms", "FA rate"
    );
    for (name, alarms) in [
        ("markov (floor 0.98)", &markov_alarms),
        ("stide", &stide_alarms),
        ("markov + stide suppression", &suppressed),
    ] {
        let a = analyze_alarms(alarms, span)?;
        println!(
            "{:<28} {:>5} {:>14} {:>10.5}",
            name,
            if a.hit { "yes" } else { "no" },
            a.false_alarms,
            a.false_alarm_rate()
        );
    }

    println!(
        "\nNote the §8 caveat: suppression is safe only while DW >= AS — at a window\n\
         smaller than the attack's manifestation, Stide would veto the true alarm too."
    );
    Ok(())
}
