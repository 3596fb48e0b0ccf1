//! Lane & Brodley on its home turf: masquerade detection over user
//! command streams (experiment MASQ1).
//!
//! The paper's §8 finds L&B blind to minimal foreign sequences "despite
//! its previous application to masquerade detection". This example shows
//! both halves of that sentence: the detector that never stars on the
//! MFS grid separates a masquerading user from the profiled one cleanly,
//! because a masquerader manifests as *systematically lower positional
//! similarity*, not as a foreign sequence. Detector diversity is anomaly
//! -type diversity.
//!
//! ```text
//! cargo run --release --example masquerade
//! ```

use detdiv::eval::masq1_lane_brodley_masquerade;
use detdiv::prelude::*;
use detdiv::trace::{generate_command_stream, UserProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = detdiv::sequence::SymbolTable::new();
    let developer = UserProfile::developer();
    let analyst = UserProfile::analyst();

    let history = generate_command_stream(&developer, 4000, 11, &mut table)?;
    let self_session = generate_command_stream(&developer, 400, 12, &mut table)?;
    let masquerade_session = generate_command_stream(&analyst, 400, 13, &mut table)?;

    println!(
        "profiled {} commands of '{}' history; vocabulary of {} commands\n",
        history.len(),
        developer.name,
        table.len()
    );

    // Show a few windows of each session with their similarity scores.
    let window = 5;
    let mut lb = LaneBrodley::new(window);
    lb.train(&StreamProfile::new(&history));

    let show = |label: &str, stream: &[Symbol]| {
        let scores = lb.scores(stream);
        println!("{label}: first three windows");
        for (w, score) in stream.windows(window).zip(&scores).take(3) {
            let names: Vec<&str> = w.iter().map(|s| table.name(*s).unwrap_or("?")).collect();
            println!("  [{}] similarity {:.2}", names.join(" "), 1.0 - score);
        }
        let mean: f64 = scores.iter().map(|s| 1.0 - s).sum::<f64>() / scores.len() as f64;
        println!("  mean profile similarity: {mean:.3}\n");
    };
    show("genuine developer session", &self_session);
    show("masquerading analyst session", &masquerade_session);

    // The packaged experiment, with segment-level separability.
    let r = masq1_lane_brodley_masquerade(window, 11)?;
    println!(
        "MASQ1 at DW {}: self {:.3} vs masquerader {:.3} (margin {:.3}); every\n\
         50-window segment separable by one threshold: {}",
        r.window, r.self_similarity, r.masquerader_similarity, r.margin, r.separable
    );
    println!(
        "\n...and the same detector's MFS coverage map (the paper's Figure 3) has\n\
         no stars at all — fit between detector and anomaly type is everything."
    );
    Ok(())
}
