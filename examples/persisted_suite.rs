//! The evaluation suite as files on disk — the shape the paper actually
//! shipped ("one stream of training data and 8 streams of test data",
//! §5.4.2) — including what happens when a persisted suite is tampered
//! with.
//!
//! ```text
//! cargo run --release --example persisted_suite [dir]
//! ```

use detdiv::prelude::*;
use detdiv::synth::{load_corpus, save_corpus};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("detdiv-suite"));

    let config = SynthesisConfig::builder()
        .training_len(60_000)
        .anomaly_sizes(2..=5)
        .windows(2..=8)
        .background_len(1024)
        .seed(2005)
        .build()?;
    let corpus = Corpus::synthesize(&config)?;

    save_corpus(&corpus, &dir)?;
    println!("wrote evaluation suite to {}:", dir.display());
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        println!(
            "  {:<16} {:>9} bytes",
            entry.file_name().to_string_lossy(),
            entry.metadata()?.len()
        );
    }

    // Loading re-verifies every §5.4 invariant before handing the suite
    // back.
    let loaded = load_corpus(&dir)?;
    println!(
        "\nreloaded and re-verified: {} training elements, {} test streams",
        loaded.training().len(),
        loaded.anomalies().count()
    );

    // Evaluate straight from the loaded suite.
    let case = loaded.case(4, 6)?;
    let mut stide = Stide::new(6);
    stide.train(&StreamProfile::new(case.training()));
    let outcome = evaluate_case(&stide, &case)?;
    println!(
        "stide at (AS 4, DW 6) on the loaded suite: {}",
        outcome.classification()
    );

    // Tamper with the training stream: append the size-4 anomaly so it
    // is no longer foreign. The loader must refuse.
    let training_file = dir.join("training.txt");
    let mut text = std::fs::read_to_string(&training_file)?;
    for s in loaded.anomaly(4).expect("synthesized size").symbols() {
        text.push_str(&format!("{}\n", s.id()));
    }
    std::fs::write(&training_file, text)?;
    match load_corpus(&dir) {
        Err(e) => println!("\ntampered suite correctly rejected:\n  {e}"),
        Ok(_) => println!("\nunexpected: tampered suite loaded"),
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
