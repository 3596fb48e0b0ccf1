//! Batch ↔ stream differential gate over the paper grid.
//!
//! Trains every detector family of the experiment suite at every
//! detector window of the paper grid (DW 2–15), then bit-compares the
//! one-shot batch scores against the event-by-event streamed scores on
//! every anomaly-size test stream (AS 2–9). Any diverging bit fails
//! the run with the offending (family, DW, AS, index) cell named, so
//! CI can gate on "streaming is the batch pipeline, reordered in
//! time" rather than on a tolerance.
//!
//! ```text
//! streamcheck [--training-len N] [--threads N]
//! ```
//!
//! The corpus is the benchmark fixture's paper-grid shape
//! (`detdiv_bench::grid_corpus`, seed 2005) at `--training-len`
//! elements (default 20,000 — the smallest round length the grid
//! shape's planted material fits in; the gate is about bit-identity,
//! not detection quality, so a reduced training length checks the
//! same arithmetic in a fraction of the time). The iterative substrates
//! (HMM, neural network) run with the conformance suite's turned-down
//! hyperparameters for the same reason. The summary line counts the
//! cells and events compared; it takes no timings (`perfbench` measures
//! the streaming path).

use std::process::ExitCode;

use detdiv_detectors::{HmmConfig, NeuralConfig};
use detdiv_eval::DetectorKind;
use detdiv_obs as obs;
use detdiv_stream::stream_scores;

struct Args {
    training_len: usize,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        training_len: 20_000,
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--training-len" => {
                args.training_len = it
                    .next()
                    .ok_or("--training-len needs a value")?
                    .parse()
                    .map_err(|e| format!("--training-len: {e}"))?;
            }
            "--threads" => {
                let value: usize = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if value == 0 {
                    return Err("--threads: must be at least 1".to_owned());
                }
                args.threads = Some(value);
            }
            "--help" | "-h" => {
                println!("usage: streamcheck [--training-len N] [--threads N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The seven families of the experiment suite. The iterative substrates
/// use the conformance suite's turned-down hyperparameters: the gate
/// checks streamed-equals-batch arithmetic, which is independent of how
/// long the substrate trained.
fn families() -> Vec<DetectorKind> {
    vec![
        DetectorKind::Stide,
        DetectorKind::TStide,
        DetectorKind::Markov,
        DetectorKind::Hmm {
            config: HmmConfig {
                states: Some(4),
                max_iters: 4,
                max_training_events: 1_000,
                ..HmmConfig::default()
            },
        },
        DetectorKind::NeuralNetwork {
            config: NeuralConfig {
                hidden: 4,
                epochs: 4,
                min_count: 2,
                ..NeuralConfig::default()
            },
        },
        DetectorKind::LaneBrodley,
        DetectorKind::ripper_default(),
    ]
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(threads) = args.threads {
        detdiv_par::global().set_threads(Some(threads));
    }
    eprintln!(
        "streamcheck: paper grid (DW 2-15 x AS 2-9), training_len={}",
        args.training_len
    );

    let corpus = detdiv_bench::grid_corpus(args.training_len);
    let config = corpus.config();
    let kinds = families();

    let mut cells = 0usize;
    let mut events = 0u64;
    for window in config.windows() {
        for kind in &kinds {
            let model = detdiv_eval::trained_model(corpus.training(), kind, window);
            for anomaly_size in config.anomaly_sizes() {
                let case = corpus.case(anomaly_size, window)?;
                let test = detdiv_core::LabeledCase::test_stream(&case);
                let batch = model.scores(test);
                let streamed = stream_scores(&model, test);
                events += test.len() as u64;
                if batch.len() != streamed.len() {
                    return Err(format!(
                        "MISMATCH {} DW={window} AS={anomaly_size}: \
                         batch emitted {} scores, stream emitted {}",
                        kind.name(),
                        batch.len(),
                        streamed.len()
                    )
                    .into());
                }
                if let Some(i) =
                    (0..batch.len()).find(|&i| batch[i].to_bits() != streamed[i].to_bits())
                {
                    return Err(format!(
                        "MISMATCH {} DW={window} AS={anomaly_size} index={i}: \
                         batch {} vs streamed {}",
                        kind.name(),
                        batch[i],
                        streamed[i]
                    )
                    .into());
                }
                cells += 1;
            }
        }
        eprintln!("streamcheck: DW={window} clean ({cells} cells so far)");
    }

    eprintln!(
        "streamcheck: OK — {cells} cells bit-identical ({} families x {} windows x {} anomaly sizes), \
         {events} events streamed",
        kinds.len(),
        config.windows().count(),
        config.anomaly_sizes().count(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streamcheck: argument error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = detdiv_bench::preflight_env() {
        eprintln!("streamcheck: environment error: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("DETDIV_LOG").is_none() {
        obs::set_max_level(obs::Level::Warn);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("streamcheck: {e}");
            ExitCode::FAILURE
        }
    }
}
