//! `detdiv-perfbench`: one steady benchmark for both detdiv paths.
//!
//! ```text
//! detdiv-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--shape full|tiny]
//! ```
//!
//! Workloads (see `README.md` beside this package):
//!
//! * `grid-counting` — cold-cache `coverage_maps_for` sweeps of Stide,
//!   t-stide, Markov and Lane & Brodley over AS 2–9 × DW 2–15;
//! * `serve-gated` — a closed loop through a gated 16-shard
//!   `IngestService`;
//! * `serve-overload` — an open loop in drain-cycle time through a
//!   guarded service that sheds and hibernates.
//!
//! The run pins the `par` pool to one worker, synthesizes its inputs
//! from `--seed`, measures for about `--seconds`, checks every output,
//! and prints a run-context line and then, as the last line of stdout,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, their times
//! adjusted to nominal host speed by the reference in [`host`]; with
//! `--trace 1` they are the per-layer ones, and the run also writes its
//! spans to `.perfbench-out/` as Chrome trace-event JSON.

mod alloc;
mod grid;
mod host;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_num, json_str, HostSample, Metrics};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Repeats of the whole set-up; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Input sizes: `Full` is the benchmark, `Tiny` a seconds-long smoke
/// shape for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shape: Shape,
}

/// What a workload hands back: its metrics (end-to-end or per-layer, by
/// `--trace`), failure accounting, output checks and extra context.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
    /// Extra run-context fields, values already rendered as JSON.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// Records one output check; a failed check counts as a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    pub fn context(&mut self, key: &str, json: String) {
        self.context.push((key.to_owned(), json));
    }
}

/// Per-run scratch space inside the working directory (hibernation
/// segments); removed when the run ends.
pub fn scratch_dir(args: &Args) -> PathBuf {
    PathBuf::from(".perfbench-tmp").join(format!("{}-{}", args.workload, std::process::id()))
}

/// Families the grid sweeps; their training and scoring are timed.
const GRID_FAMILIES: [&str; 4] = ["stide", "tstide", "markov", "lane_brodley"];

/// Every per-layer metric, zero until a workload measures it. A layer
/// the workload does not exercise keeps zero work and zero time.
pub fn per_layer_metrics() -> Metrics {
    let mut m = Metrics::default();
    m.set("synth.corpus_s", 0.0, "s");
    // The serve bank adds the neural network to the grid's families.
    for family in GRID_FAMILIES.iter().chain(&["neural"]) {
        m.set(format!("detectors.train_s.{family}"), 0.0, "s");
    }
    for family in GRID_FAMILIES {
        m.set(format!("core.score_s.{family}"), 0.0, "s");
    }
    for (name, unit) in [
        ("cache.misses", "count"),
        ("cache.hits", "count"),
        ("cache.resident_bytes", "bytes"),
        ("eval.self_s", "s"),
        ("eval.cells", "count"),
        ("eval.cells_failed", "count"),
        ("serve.enqueue_ns", "ns"),
        ("serve.enqueues", "count"),
        ("serve.rejected", "count"),
        ("serve.drain_s", "s"),
        ("serve.drains", "count"),
        ("serve.drain_p99_us", "us"),
        ("serve.processed", "count"),
        ("serve.emitted", "count"),
        ("serve.escalated", "count"),
        ("serve.streams", "count"),
        ("serve.bytes_per_stream", "bytes"),
        ("stream.gate_ns", "ns"),
        ("stream.tier2_ns", "ns"),
        ("guard.shed", "count"),
        ("guard.queue_shed", "count"),
        ("guard.shed_frac", "ratio"),
        ("guard.recovery_cycles", "count"),
        ("guard.resident_peak_bytes", "bytes"),
        ("guard.hibernated", "count"),
        ("guard.rehydrated", "count"),
        ("guard.ladder_transitions", "count"),
        ("guard.spill_ns", "ns"),
        ("guard.recall_ns", "ns"),
    ] {
        m.set(name, 0.0, unit);
    }
    m
}

/// Writes the traced run's spans to
/// `.perfbench-out/trace-<workload>-<seed>.json` and notes the file in
/// the run context.
pub fn export_trace(args: &Args, tracer: &spans::Tracer, out: &mut Outcome) -> std::io::Result<()> {
    let path =
        PathBuf::from(".perfbench-out").join(format!("trace-{}-{}.json", args.workload, args.seed));
    tracer.export(&path)?;
    out.context("trace_file", json_str(&path.display().to_string()));
    out.context("trace_spans", tracer.len().to_string());
    Ok(())
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut shape = Shape::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 170.0) {
                    return Err("--seconds must be in (0, 170]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--shape" => {
                shape = match value()?.as_str() {
                    "full" => Shape::Full,
                    "tiny" => Shape::Tiny,
                    other => return Err(format!("--shape must be full or tiny, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        shape,
    })
}

/// Pins every process-wide switch the measured code reads, overriding
/// whatever `DETDIV_*` variables the environment carries, and returns
/// the pinned settings under their environment names.
fn pin_switches(args: &Args) -> Vec<(&'static str, String)> {
    detdiv_par::global().set_threads(Some(1));
    detdiv_cache::set_enabled(true);
    detdiv_cache::set_capacity(detdiv_cache::DEFAULT_CAPACITY);
    detdiv_obs::set_max_level(detdiv_obs::Level::Off);
    detdiv_eval::set_stream_scoring(false);
    detdiv_obs::trace::disarm();
    detdiv_flight::disarm();
    detdiv_resil::disarm();
    let mut pinned = vec![
        ("DETDIV_THREADS", "1".to_owned()),
        ("DETDIV_CACHE", "on".to_owned()),
        (
            "DETDIV_CACHE_CAP",
            detdiv_cache::DEFAULT_CAPACITY.to_string(),
        ),
        ("DETDIV_LOG", "off".to_owned()),
        ("DETDIV_STREAM", "off".to_owned()),
        ("DETDIV_TRACE", "disarmed".to_owned()),
        ("DETDIV_FLIGHT", "disarmed".to_owned()),
        ("DETDIV_FAULT", "disarmed".to_owned()),
    ];
    if args.workload == "serve-overload" {
        pinned.push(("DETDIV_GUARD_BYTES", serve::GUARD_BUDGET.to_string()));
        pinned.push((
            "DETDIV_GUARD_DIR",
            scratch_dir(args).join("spill").display().to_string(),
        ));
    }
    pinned
}

pub fn json_object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    match args.workload.as_str() {
        "grid-counting" => grid::run(args),
        "serve-gated" => serve::run(args, false),
        "serve-overload" => serve::run(args, true),
        other => Err(format!(
            "unknown workload {other:?} (grid-counting, serve-gated, serve-overload)"
        )
        .into()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inherited: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DETDIV_"))
        .map(|(k, v)| (k, json_str(&v)))
        .collect();
    let pinned = pin_switches(&args);
    let host_start = HostSample::now();
    let result = run(&args);
    let host_end = HostSample::now();
    let scratch = scratch_dir(&args);
    let _ = std::fs::remove_dir_all(&scratch);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            json_object(&[
                ("name", json_str(name)),
                ("ok", ok.to_string()),
                ("detail", json_str(detail)),
            ])
        })
        .collect();
    let loadavg =
        |s: &HostSample| format!("[{}, {}, {}]", s.loadavg[0], s.loadavg[1], s.loadavg[2]);
    let mut context: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "shape".into(),
            json_str(&format!("{:?}", args.shape).to_lowercase()),
        ),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "pool_width".into(),
            detdiv_par::global().threads().to_string(),
        ),
        (
            "env_pinned".into(),
            json_object(
                &pinned
                    .iter()
                    .map(|(k, v)| (*k, json_str(v)))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("env_inherited".into(), json_object(&inherited)),
        (
            "steal_ticks_delta".into(),
            host_end
                .steal_ticks
                .saturating_sub(host_start.steal_ticks)
                .to_string(),
        ),
        ("loadavg_start".into(), loadavg(&host_start)),
        ("loadavg_end".into(), loadavg(&host_end)),
        (
            "failed_frac".into(),
            json_num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("checks".into(), format!("[{}]", checks.join(", "))),
    ];
    context.extend(outcome.context.iter().cloned());
    println!("{{\"context\": {}}}", json_object(&context));

    let correct = outcome.checks.iter().all(|(_, ok, _)| *ok);
    for (name, ok, detail) in &outcome.checks {
        if !ok {
            eprintln!("perfbench: check failed: {name}: {detail}");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
