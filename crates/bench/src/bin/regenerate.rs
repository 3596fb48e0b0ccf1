//! Regenerates every figure and analysis of Tan & Maxion (DSN 2005).
//!
//! ```text
//! regenerate [--experiment ID] [--training-len N] [--paper] [--seed N] [--json PATH] [--threads N] [--no-cache]
//! ```
//!
//! * `--experiment` — one of `fig2 fig3 fig4 fig5 fig6 fig7 comb1 comb2
//!   comb3 abl1 abl2 abl3 abl4 nat1 ext1 div1 masq1 fn1 ana1 all` (default `all`);
//! * `--training-len` — training-stream length (default 200,000; the
//!   paper's full scale is 1,000,000);
//! * `--paper` — shorthand for `--training-len 1000000`;
//! * `--seed` — synthesis seed (default: the paper configuration's);
//! * `--json` — additionally write the full report as JSON (only with
//!   `all`; naming another experiment is an argument error); run
//!   telemetry is written as `paper_telemetry.json` next to the
//!   report. The output directory is checked for writability
//!   *before* any computation starts, so a bad path fails in
//!   milliseconds, not after the full evaluation;
//! * `--threads` — worker count for the evaluation grid's parallel
//!   fan-outs; overrides the `DETDIV_THREADS` environment variable
//!   (default: available parallelism). Results are identical at every
//!   thread count;
//! * `--log` — diagnostic verbosity (`off error warn info debug
//!   trace`); overrides the `DETDIV_LOG` environment variable. The
//!   binary defaults to `info` so progress is visible; `off` also
//!   disables telemetry collection;
//! * `--trace` — arm the per-thread event recorder and write a Chrome
//!   trace-event JSON file (loadable in Perfetto or `chrome://tracing`)
//!   to the given path when the run finishes; overrides the
//!   `DETDIV_TRACE` environment variable. Tracing is independent of
//!   `--log off`: spans, grid cells, and `par-worker-N` activity are
//!   recorded even when logging and telemetry are disabled;
//! * `--no-cache` — disable the single-flight trained-model cache and
//!   train every model afresh (equivalent to `DETDIV_CACHE=off`).
//!   Results are byte-identical either way; this exists for honest
//!   timing comparisons and as an escape hatch;
//! * `--fault SPEC` — arm deterministic fault injection
//!   (`seed:rate:kinds[:stall_ms]`, e.g. `42:1%:panic`); overrides the
//!   `DETDIV_FAULT` environment variable. Injected panics are absorbed
//!   by supervised retry; cells that fail permanently are marked `!` in
//!   the report instead of killing the run;
//! * `--resume PATH` — journal every completed coverage row to `PATH`
//!   (checksummed, fsynced, torn-tail tolerant) and, when the journal
//!   already holds rows from an interrupted run against the same
//!   corpus, serve them instead of recomputing. The journal is removed
//!   on success. Rows are deterministic, so a resumed run's artifacts
//!   are byte-identical to an uninterrupted run's;
//! * `--serve ADDR` — arm the live-introspection scope (`detdiv-scope`)
//!   on `ADDR` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
//!   port) for the duration of the run: a metrics exposition server
//!   (`/metrics` in Prometheus text format, `/healthz`,
//!   `/snapshot.json`, `/profilez`) plus a background counter sampler
//!   whose ring buffers feed rate gauges and the snapshot's
//!   `timeseries` section. Overrides the `DETDIV_SERVE` environment
//!   variable. The address is bound *before* any computation, so a
//!   taken port fails in milliseconds; the bound address is echoed on
//!   stderr unconditionally so scripts can scrape an ephemeral port.
//!   The scope never writes telemetry, so artifacts are byte-identical
//!   with and without it — CI enforces this with `cmp`;
//! * `--flight PATH` — arm the per-detection flight recorder
//!   (`detdiv-flight`) and write the wide-event audit log to `PATH`
//!   when the run finishes: one checksummed JSONL record per detection
//!   decision (cell verdicts with score/threshold/span/cache
//!   provenance, streaming emissions, supervised failures), sorted so
//!   repeated runs of the same configuration produce byte-identical
//!   dumps. Overrides the `DETDIV_FLIGHT` environment variable. A run
//!   that fails writes no audit log and removes any file already at
//!   `PATH` (stderr says so). A panic additionally dumps the crash blackbox — the last wide
//!   events before the failure — to `PATH.crash`. The recorder never
//!   writes telemetry or report state, so artifacts are byte-identical
//!   with and without it — CI enforces this with `cmp`.

use std::process::ExitCode;

use detdiv_obs as obs;
use detdiv_resil::{AtomicFile, FaultPlan};

use detdiv_eval::{
    abl1_maximal_response_semantics, abl2_locality_frame_count, abl3_nn_sensitivity,
    abl4_training_length, ana1_response_map, comb1_stide_markov_subset, comb2_stide_lb_union,
    comb3_suppression, coverage_map, div1_diversity_matrix, ext1_extended_families,
    fig2_incident_span, fig7_similarity, fn1_threshold_sweeps, masq1_lane_brodley_masquerade,
    nat1_census, render_suppression_table, DetectorKind, FullReport, SuppressionConfig,
};
use detdiv_synth::{Corpus, SynthesisConfig};

struct Args {
    experiment: String,
    training_len: usize,
    seed: Option<u64>,
    json: Option<String>,
    threads: Option<usize>,
    log: Option<obs::Level>,
    trace: Option<String>,
    no_cache: bool,
    fault: Option<String>,
    resume: Option<String>,
    serve: Option<String>,
    flight: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: "all".to_owned(),
        training_len: 200_000,
        seed: None,
        json: None,
        threads: None,
        log: None,
        // `--trace PATH` below overrides the environment.
        trace: obs::trace::env_path(),
        no_cache: false,
        fault: None,
        resume: None,
        // `--serve ADDR` below overrides the environment.
        serve: std::env::var("DETDIV_SERVE")
            .ok()
            .filter(|v| !v.trim().is_empty()),
        // `--flight PATH` below overrides the environment.
        flight: detdiv_flight::env_path(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--experiment" => {
                args.experiment = it.next().ok_or("--experiment needs a value")?;
            }
            "--training-len" => {
                args.training_len = it
                    .next()
                    .ok_or("--training-len needs a value")?
                    .parse()
                    .map_err(|e| format!("--training-len: {e}"))?;
            }
            "--paper" => args.training_len = 1_000_000,
            "--seed" => {
                args.seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path")?);
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
            "--log" => {
                let value = it.next().ok_or("--log needs a level")?;
                args.log = Some(
                    obs::Level::parse(&value)
                        .ok_or_else(|| format!("--log: unknown level {value}"))?,
                );
            }
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--no-cache" => args.no_cache = true,
            "--fault" => {
                args.fault = Some(it.next().ok_or("--fault needs a spec")?);
            }
            "--resume" => {
                args.resume = Some(it.next().ok_or("--resume needs a journal path")?);
            }
            "--serve" => {
                args.serve = Some(it.next().ok_or("--serve needs a listen address")?);
            }
            "--flight" => {
                args.flight = Some(it.next().ok_or("--flight needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: regenerate [--experiment ID] [--training-len N] [--paper] [--seed N] [--json PATH] [--threads N] [--log LEVEL] [--trace PATH] [--no-cache] [--fault SPEC] [--resume PATH] [--serve ADDR] [--flight PATH]\n\
                     experiments: fig2 fig3 fig4 fig5 fig6 fig7 comb1 comb2 comb3 abl1 abl2 abl3 abl4 nat1 ext1 div1 masq1 fn1 ana1 all\n\
                     threads:     parallel fan-out width (default: DETDIV_THREADS, then available parallelism; results are thread-count independent)\n\
                     log levels:  off error warn info debug trace (default info; DETDIV_LOG also honoured)\n\
                     trace:       write a Chrome trace-event JSON file (DETDIV_TRACE also honoured; independent of --log off)\n\
                     no-cache:    train every model afresh, bypassing the single-flight model cache (DETDIV_CACHE=off also honoured; results identical)\n\
                     fault:       arm deterministic fault injection, seed:rate:kinds[:stall_ms] e.g. 42:1%:panic (DETDIV_FAULT also honoured)\n\
                     resume:      journal completed coverage rows to PATH and resume an interrupted run from it (removed on success)\n\
                     serve:       serve live metrics on ADDR while the run executes: /metrics /healthz /snapshot.json /profilez /streams /flightz (DETDIV_SERVE also honoured; artifacts stay byte-identical)\n\
                     flight:      record one wide event per detection decision and write the sorted, checksummed audit log to PATH; panics dump the crash blackbox to PATH.crash (DETDIV_FLIGHT also honoured; artifacts stay byte-identical)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.json.is_some() && args.experiment != "all" {
        return Err(format!(
            "--json writes the full report and needs --experiment all (got {})",
            args.experiment
        ));
    }
    Ok(args)
}

/// Verifies that an output path (`--json`, `--trace`) can actually be
/// written, *before* any synthesis or evaluation starts. Delegates to
/// [`AtomicFile::dry_run`], which probes the *deterministic temporary
/// sibling* the eventual atomic write will use — not a racy
/// process-id-named probe file — so the preflight exercises the exact
/// path the artifact writer will take. A failure here costs
/// milliseconds instead of surfacing after the full run.
fn preflight_write_target(path: &str) -> Result<(), String> {
    AtomicFile::dry_run(path)
}

fn build_corpus(args: &Args) -> Result<Corpus, Box<dyn std::error::Error>> {
    let mut builder = SynthesisConfig::builder().training_len(args.training_len);
    if let Some(seed) = args.seed {
        builder = builder.seed(seed);
    }
    let config = builder.build()?;
    obs::info!(
        "synthesizing corpus",
        training_elements = config.training_len(),
        anomaly_sizes = format!("{:?}", config.anomaly_sizes()),
        windows = format!("{:?}", config.windows()),
    );
    Ok(Corpus::synthesize(&config)?)
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let coverage_kind = |kind: DetectorKind| -> Result<(), Box<dyn std::error::Error>> {
        let corpus = build_corpus(args)?;
        let map = coverage_map(&corpus, &kind)?;
        println!("{}", map.render());
        Ok(())
    };

    match args.experiment.as_str() {
        "fig2" => {
            let r = fig2_incident_span(5, 8)?;
            println!("{}", r.rendering);
            println!(
                "boundary sequences per side: {}; incident span length: {}",
                r.boundary_sequences_per_side, r.span_len
            );
        }
        "fig3" => coverage_kind(DetectorKind::LaneBrodley)?,
        "fig4" => coverage_kind(DetectorKind::Markov)?,
        "fig5" => coverage_kind(DetectorKind::Stide)?,
        "fig6" => coverage_kind(DetectorKind::neural_default())?,
        "fig7" => {
            let r = fig7_similarity();
            println!(
                "identical size-5 sequences: Sim = {} (max {})\n\
                 final-element mismatch:     Sim = {} -> response {:.3}",
                r.sim_identical, r.sim_max, r.sim_final_mismatch, r.response_final_mismatch
            );
        }
        "comb1" => {
            let corpus = build_corpus(args)?;
            let r = comb1_stide_markov_subset(&corpus)?;
            println!("{}", r.stide_map.render());
            println!("{}", r.markov_map.render());
            println!(
                "subset holds: {}; stide={} markov={} jaccard={:.3}",
                r.stide_subset_of_markov, r.stide_detections, r.markov_detections, r.jaccard
            );
        }
        "comb2" => {
            let corpus = build_corpus(args)?;
            let r = comb2_stide_lb_union(&corpus)?;
            println!("{}", r.union_map.render());
            println!(
                "L&B detections: {}; gain over Stide: {}; union equals Stide: {}",
                r.lb_detections, r.lb_gain_over_stide, r.union_equals_stide
            );
        }
        "comb3" => {
            let corpus = build_corpus(args)?;
            let rows = comb3_suppression(&corpus, &SuppressionConfig::default())?;
            println!("{}", render_suppression_table(&rows));
        }
        "abl1" => {
            let corpus = build_corpus(args)?;
            let r = abl1_maximal_response_semantics(&corpus)?;
            println!("{}", r.tolerant_map.render());
            println!("{}", r.strict_map.render());
            println!(
                "tolerant detections: {}; strict: {}; strict equals Stide: {}",
                r.detections.0, r.detections.1, r.strict_equals_stide
            );
        }
        "abl2" => {
            let corpus = build_corpus(args)?;
            let rows = abl2_locality_frame_count(&corpus, 6, 4, 8192, 3)?;
            println!(
                "{:>6} {:>10} {:>5} {:>13}",
                "frame", "threshold", "hit", "false alarms"
            );
            for r in rows {
                println!(
                    "{:>6} {:>10.2} {:>5} {:>13}",
                    r.frame,
                    r.threshold,
                    if r.hit { "yes" } else { "no" },
                    r.false_alarms
                );
            }
        }
        "abl3" => {
            let corpus = build_corpus(args)?;
            let rows = abl3_nn_sensitivity(&corpus, 4, 4)?;
            println!(
                "{:>7} {:>6} {:>9} {:>7} {:>13} {:>8}",
                "hidden", "lr", "momentum", "epochs", "max response", "capable"
            );
            for r in rows {
                println!(
                    "{:>7} {:>6.3} {:>9.2} {:>7} {:>13.4} {:>8}",
                    r.hidden,
                    r.learning_rate,
                    r.momentum,
                    r.epochs,
                    r.max_response,
                    if r.capable { "yes" } else { "no" }
                );
            }
        }
        "abl4" => {
            let mut builder = SynthesisConfig::builder().training_len(args.training_len);
            if let Some(seed) = args.seed {
                builder = builder.seed(seed);
            }
            let base = builder.build()?;
            let lengths = [50_000usize, 100_000, 200_000];
            let rows = abl4_training_length(&base, &lengths)?;
            println!(
                "{:>12} {:>12} {:>12} {:>16}",
                "training len", "stide cells", "markov cells", "stide shape holds"
            );
            for r in rows {
                println!(
                    "{:>12} {:>12} {:>12} {:>16}",
                    r.training_len,
                    r.stide_detections,
                    r.markov_detections,
                    if r.stide_shape_holds { "yes" } else { "no" }
                );
            }
        }
        "ext1" => {
            let corpus = build_corpus(args)?;
            let r = ext1_extended_families(&corpus)?;
            println!("{}", r.tstide_map.render());
            println!("{}", r.hmm_map.render());
            println!(
                "t-stide contains Stide: {}; t-stide equals Markov: {}; HMM equals Markov: {}",
                r.tstide_contains_stide, r.tstide_equals_markov, r.hmm_equals_markov
            );
        }
        "div1" => {
            let corpus = build_corpus(args)?;
            let r = div1_diversity_matrix(&corpus)?;
            println!("{}", r.matrix.render());
            println!("no-coverage-gain pairs: {:?}", r.no_gain_pairs);
            println!("subset pairs: {:?}", r.subset_pairs);
            println!("complementary pairs: {:?}", r.complementary_pairs);
        }
        "fn1" => {
            let corpus = build_corpus(args)?;
            for sweep in fn1_threshold_sweeps(&corpus, 5, 6)? {
                println!(
                    "{:<16} in-span max {:.4}; hit survives every threshold <= max: {}",
                    sweep.detector, sweep.in_span_max, sweep.hit_never_lost_below_max
                );
            }
        }
        "ana1" => {
            let corpus = build_corpus(args)?;
            println!(
                "{}",
                ana1_response_map(&corpus, &DetectorKind::LaneBrodley)?.render()
            );
            println!(
                "{}",
                ana1_response_map(&corpus, &DetectorKind::Markov)?.render()
            );
        }
        "masq1" => {
            let r = masq1_lane_brodley_masquerade(5, 11)?;
            println!(
                "mean profile similarity at DW {}: self {:.3}, masquerader {:.3} (margin {:.3}); segment-separable: {}",
                r.window, r.self_similarity, r.masquerader_similarity, r.margin, r.separable
            );
        }
        "nat1" => {
            let r = nat1_census(100, 200, 8)?;
            println!("training events: {}", r.training_events);
            println!("{}", r.report);
        }
        "all" => {
            let corpus = build_corpus(args)?;
            let report = FullReport::generate_on(&corpus)?;
            println!("{}", report.render_text());
            obs::info!("run telemetry summary follows");
            obs::raw(obs::Level::Info, &report.telemetry.render_text());
            if let Some(path) = &args.json {
                // Crash-safe: either artifact is observed complete or
                // not at all; a kill mid-write can never leave a torn
                // paper_report.json at the final path.
                AtomicFile::write(path, serde_json::to_string_pretty(&report)?)?;
                obs::info!("wrote JSON report", path = path);
                let telemetry_path = std::path::Path::new(path)
                    .parent()
                    .map(|dir| dir.join("paper_telemetry.json"))
                    .unwrap_or_else(|| std::path::PathBuf::from("paper_telemetry.json"));
                AtomicFile::write(
                    &telemetry_path,
                    serde_json::to_string_pretty(&report.telemetry)?,
                )?;
                obs::info!("wrote telemetry", path = telemetry_path.display());
            }
        }
        other => return Err(format!("unknown experiment {other}").into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    // The runner defaults to info-level progress; an explicit --log or
    // DETDIV_LOG (including `off`, which also disables telemetry) wins.
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            // Unconditional: argument errors must be visible even when
            // DETDIV_LOG=off suppresses the structured logger.
            eprintln!("regenerate: argument error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A mistyped environment knob must fail loudly, not silently fall
    // back to a default the operator did not ask for.
    if let Err(e) = detdiv_bench::preflight_env() {
        eprintln!("regenerate: environment error: {e}");
        return ExitCode::FAILURE;
    }
    match args.log {
        Some(level) => obs::set_max_level(level),
        None => {
            if std::env::var_os("DETDIV_LOG").is_none() {
                obs::set_max_level(obs::Level::Info);
            }
        }
    }
    if let Some(threads) = args.threads {
        detdiv_par::global().set_threads(Some(threads));
    }
    if args.no_cache {
        detdiv_cache::set_enabled(false);
    }
    // Deterministic fault injection: an explicit --fault spec wins over
    // the DETDIV_FAULT environment variable; either arms the same
    // seeded plan. Malformed specs fail before any computation.
    let fault_armed = if let Some(spec) = &args.fault {
        match FaultPlan::parse(spec) {
            Ok(plan) => {
                detdiv_resil::arm(plan);
                true
            }
            Err(e) => {
                eprintln!("regenerate: --fault: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match detdiv_resil::arm_from_env() {
            Ok(armed) => armed,
            Err(e) => {
                eprintln!("regenerate: DETDIV_FAULT: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if fault_armed {
        obs::info!("fault injection armed");
        // Injected panics are expected and absorbed by supervision;
        // keep them from spraying backtraces over a chaos run's
        // stderr. Genuine panics still reach the default hook.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("detdiv-resil: injected"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    // Flight recorder: preflight the dump destination, then arm. Armed
    // *after* the chaos panic-hook filter above so the crash-dump hook
    // (installed by `arm`) runs first on a panic — the blackbox is
    // dumped before the filter decides whether to suppress the
    // backtrace.
    if let Some(path) = &args.flight {
        if let Err(e) = preflight_write_target(path) {
            eprintln!("regenerate: cannot write --flight output {path}: {e}");
            return ExitCode::FAILURE;
        }
        detdiv_flight::arm(path);
        obs::info!("flight recorder armed", path = path);
    }
    // Fail fast on unwritable --json / --trace destinations:
    // milliseconds now instead of an error after the full evaluation.
    if let Some(path) = &args.json {
        if let Err(e) = preflight_write_target(path) {
            eprintln!("regenerate: cannot write --json output {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace {
        if let Err(e) = preflight_write_target(path) {
            eprintln!("regenerate: cannot write --trace output {path}: {e}");
            return ExitCode::FAILURE;
        }
        obs::trace::arm();
    }
    // Live introspection: bind the exposition server and start the
    // sampler *before* any computation, so a taken port or a bad
    // DETDIV_SCOPE_* knob fails in milliseconds. The bound address is
    // echoed unconditionally (CI passes `--serve 127.0.0.1:0` and
    // parses the real port from this line).
    let scope = if let Some(addr) = &args.serve {
        let scope = detdiv_scope::ScopeConfig::from_env()
            .and_then(|config| detdiv_scope::Scope::start(addr, config));
        match scope {
            Ok(scope) => {
                eprintln!(
                    "regenerate: serving live metrics on http://{}/metrics",
                    scope.local_addr()
                );
                Some(scope)
            }
            Err(e) => {
                eprintln!("regenerate: cannot arm --serve {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // Checkpoint/resume: arm the row journal before any computation so
    // every completed coverage row is durably recorded, and rows from a
    // previously killed run are served instead of recomputed.
    if let Some(path) = &args.resume {
        match detdiv_eval::checkpoint::arm(path) {
            Ok(0) => obs::info!("row checkpointing armed", journal = path),
            Ok(resumed) => {
                obs::info!("resuming", journal = path, rows = resumed);
                // Unconditional: visible under --log off so an operator
                // can tell a resumed run from a fresh one.
                eprintln!("regenerate: resuming {resumed} completed rows from {path}");
            }
            Err(e) => {
                eprintln!("regenerate: cannot arm --resume journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = run(&args);
    // Graceful scope teardown: the end-of-run snapshot was already
    // taken inside the report (with the sampler's timeseries attached);
    // now stop the server and sampler threads and write the optional
    // DETDIV_SCOPE_DUMP series file.
    if let Some(scope) = scope {
        if let Err(e) = scope.shutdown() {
            eprintln!("regenerate: scope shutdown: {e}");
        }
    }
    if args.resume.is_some() {
        if outcome.is_ok() {
            // The run completed: nothing remains to resume from.
            if let Err(e) = detdiv_eval::checkpoint::finish() {
                eprintln!("regenerate: could not remove resume journal: {e}");
            }
        } else {
            // Keep the journal for the next attempt.
            detdiv_eval::checkpoint::disarm();
        }
    }
    if let Some(path) = &args.flight {
        detdiv_flight::disarm();
        if outcome.is_err() {
            // A failed run leaves no audit log at PATH: a dump, fresh or
            // left by an earlier run, would read as this run's record.
            // (A panic's crash blackbox at PATH.crash is written by the
            // hook regardless.)
            eprintln!("regenerate: run failed; no flight audit log written to {path}");
            match std::fs::remove_file(path) {
                Ok(()) => eprintln!("regenerate: removed the earlier flight audit log at {path}"),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => eprintln!("regenerate: could not remove flight audit log {path}: {e}"),
            }
        } else {
            match detdiv_flight::export(path) {
                Ok(records) => {
                    obs::info!("wrote flight audit log", path = path, records = records);
                    // Unconditional: the flight gate runs under --log off
                    // and parses this confirmation line.
                    eprintln!("regenerate: wrote {records} flight records to {path}");
                }
                Err(e) => {
                    eprintln!("regenerate: failed to write flight audit log {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(path) = &args.trace {
        obs::trace::disarm();
        match obs::trace::write_chrome_trace(path) {
            Ok(events) => {
                obs::info!("wrote trace", path = path, events = events);
                // Unconditional: the trace gate runs under --log off
                // and still wants a human-readable confirmation.
                eprintln!("regenerate: wrote {events} trace events to {path}");
            }
            Err(e) => {
                eprintln!("regenerate: failed to write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // eprintln in addition to the structured logger so the
            // failure is diagnosable even under --log off.
            eprintln!("regenerate: {e}");
            obs::error!("run failed", detail = e);
            ExitCode::FAILURE
        }
    }
}
