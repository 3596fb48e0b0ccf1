//! `mfscensus` — count minimal foreign sequences in UNM-format traces.
//!
//! The command-line face of the paper's §4.1 measurement: train on one
//! trace file, scan another, and report the MFSs of each length.
//!
//! ```text
//! mfscensus <training.trace> <monitor.trace> [max_len] [--threads N]
//! mfscensus --demo [max_len] [--threads N]   # synthetic sendmail-like corpora
//! ```
//!
//! Trace files are UNM format: one `pid syscall` pair per line, `#`
//! comments allowed. Each process is scanned separately — in parallel
//! across the `detdiv-par` pool (`--threads` / `DETDIV_THREADS`) —
//! and the counts are pooled, matching the per-process analyses of the
//! UNM studies. The pooled census is order-independent and the
//! per-process merge is index-deterministic, so the output never
//! depends on the worker count.
//!
//! Progress goes through the `detdiv-obs` logger (info level by
//! default; silence it with `DETDIV_LOG=off` or pick a level) while
//! the census result table itself is plain stdout, so
//! `mfscensus ... 2>/dev/null` and piping the table both behave.

use std::process::ExitCode;

use detdiv_obs as obs;
use detdiv_trace::{generate_sendmail_like, mfs_census, TraceGenConfig, TraceSet};

struct Args {
    /// Positional arguments (paths / max_len / `--demo`).
    positional: Vec<String>,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let positional = &args.positional;
    if positional.first().map(String::as_str) == Some("--help") || positional.is_empty() {
        println!(
            "usage: mfscensus <training.trace> <monitor.trace> [max_len] [--threads N]\n\
             \x20      mfscensus --demo [max_len] [--threads N]"
        );
        return Ok(());
    }

    let (training_set, monitor_set, max_len) = if positional[0] == "--demo" {
        let max_len: usize = positional
            .get(1)
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(8);
        obs::info!(
            "generating synthetic sendmail-like corpora",
            seeds = "100/200"
        );
        let training = generate_sendmail_like(&TraceGenConfig {
            processes: 8,
            events_per_process: 4000,
            seed: 100,
        })?;
        let monitor = generate_sendmail_like(&TraceGenConfig {
            processes: 4,
            events_per_process: 3000,
            seed: 200,
        })?;
        (training, monitor, max_len)
    } else {
        if positional.len() < 2 {
            return Err("need a training trace and a monitor trace (see --help)".into());
        }
        let training = TraceSet::parse(&std::fs::read_to_string(&positional[0])?)?;
        let monitor = TraceSet::parse(&std::fs::read_to_string(&positional[1])?)?;
        let max_len: usize = positional
            .get(2)
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(8);
        (training, monitor, max_len)
    };

    let training = training_set.concatenated();
    obs::info!(
        "census starting",
        training_processes = training_set.process_count(),
        training_events = training.len(),
        monitor_processes = monitor_set.process_count(),
        max_len = max_len,
        threads = detdiv_par::global().threads(),
    );

    // One parallel job per monitored process. `try_map` keeps the
    // per-pid results in input order and surfaces the error of the
    // smallest failing index, so pooling below is schedule-independent.
    let _span = obs::span!("mfscensus_scan");
    let streams: Vec<(u32, &[detdiv_sequence::Symbol])> = monitor_set.iter().collect();
    let per_pid = detdiv_par::global().try_map(&streams, |&(pid, stream)| {
        if stream.len() < max_len {
            obs::info!("process skipped", pid = pid, events = stream.len());
            return Ok(None);
        }
        let report = mfs_census(&training, stream, max_len)?;
        obs::info!(
            "process scanned",
            pid = pid,
            events = stream.len(),
            mfs_occurrences = report.total(),
        );
        Ok::<_, detdiv_trace::TraceError>(Some(report))
    })?;

    let mut pooled: Vec<(usize, usize)> = (2..=max_len).map(|l| (l, 0)).collect();
    let mut scanned = 0usize;
    for report in per_pid.into_iter().flatten() {
        scanned += 1;
        for (slot, &(len, count)) in pooled.iter_mut().zip(&report.counts) {
            debug_assert_eq!(slot.0, len);
            slot.1 += count;
        }
    }

    // The result table is the program's product: plain stdout, always.
    println!(
        "pooled census ({} of {} processes scanned, training {} events):",
        scanned,
        streams.len(),
        training.len()
    );
    let mut total = 0usize;
    for &(len, count) in &pooled {
        println!("  length {len:>2}: {count}");
        total += count;
    }
    println!("  total: {total}");
    Ok(())
}

fn main() -> ExitCode {
    if let Err(e) = detdiv_bench::preflight_env() {
        eprintln!("mfscensus: environment error: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("DETDIV_LOG").is_none() {
        obs::set_max_level(obs::Level::Info);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mfscensus: argument error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(threads) = args.threads {
        detdiv_par::global().set_threads(Some(threads));
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // eprintln in addition to the structured logger so the
            // failure is diagnosable even under DETDIV_LOG=off.
            eprintln!("mfscensus: {e}");
            obs::error!("run failed", detail = e);
            ExitCode::FAILURE
        }
    }
}
