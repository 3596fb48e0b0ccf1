//! End-to-end gate for `regenerate --trace` / `DETDIV_TRACE`: the
//! exported file must be valid Chrome trace-event JSON with per-tid
//! monotonic timestamps and balanced B/E stacks, at one worker and at
//! four — and tracing must be inert when not requested.
//!
//! Validation runs through the `tracecheck` binary (the same checker
//! the CI trace gate uses), so this test also pins `tracecheck`'s CLI
//! contract.

use std::path::PathBuf;
use std::process::Command;

fn regenerate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regenerate"))
}

fn tracecheck() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracecheck"))
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "detdiv_trace_gate_{tag}_{}.json",
        std::process::id()
    ))
}

/// Runs a reduced parallel experiment (`fig5`, a full coverage-grid
/// fan-out) with tracing armed at the given width, returning the trace
/// path.
fn traced_run(tag: &str, threads: &str) -> PathBuf {
    let path = temp_path(tag);
    let output = regenerate()
        .env("DETDIV_THREADS", threads)
        .env_remove("DETDIV_TRACE")
        .args([
            "--experiment",
            "fig5",
            "--training-len",
            "20000",
            "--log",
            "off",
            "--trace",
        ])
        .arg(&path)
        .output()
        .expect("spawn regenerate");
    assert!(
        output.status.success(),
        "regenerate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        path.is_file(),
        "trace file must exist at {}",
        path.display()
    );
    path
}

fn check(path: &PathBuf, extra: &[&str]) {
    let output = tracecheck()
        .arg(path)
        .args(extra)
        .output()
        .expect("spawn tracecheck");
    assert!(
        output.status.success(),
        "tracecheck rejected {}: {}",
        path.display(),
        String::from_utf8_lossy(&output.stderr)
    );
}

/// One worker: a single-threaded run exports a valid, balanced trace.
#[test]
fn traced_run_at_one_thread_validates() {
    let path = traced_run("t1", "1");
    check(&path, &[]);
    let _ = std::fs::remove_file(&path);
}

/// Four workers: still valid and balanced, and the pool workers are
/// named `par-worker-N` in the thread metadata.
#[test]
fn traced_run_at_four_threads_validates_with_worker_names() {
    let path = traced_run("t4", "4");
    check(
        &path,
        &[
            "--expect-thread",
            "par-worker-1",
            "--expect-thread",
            "par-worker-2",
        ],
    );
    let raw = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    // The coverage grid's cells ride along as X slices with their
    // (detector, window, anomaly_size) args.
    assert!(raw.contains("\"name\":\"cell\""), "grid cells traced");
    assert!(
        raw.contains("\"detector\":\"stide\""),
        "cell args carry the detector"
    );
    assert!(
        raw.contains("\"anomaly_size\""),
        "cell args carry the anomaly size"
    );
}

/// `DETDIV_TRACE` alone (no `--trace` flag) arms the recorder and
/// writes the file.
#[test]
fn env_var_arms_tracing_without_the_flag() {
    let path = temp_path("env");
    let output = regenerate()
        .env("DETDIV_THREADS", "2")
        .env("DETDIV_TRACE", &path)
        .args(["--experiment", "fig7", "--log", "off"])
        .output()
        .expect("spawn regenerate");
    assert!(
        output.status.success(),
        "regenerate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(path.is_file(), "DETDIV_TRACE must produce a trace file");
    check(&path, &[]);
    let _ = std::fs::remove_file(&path);
}

/// Without `--trace` and without `DETDIV_TRACE`, no trace file appears
/// and stderr never mentions one.
#[test]
fn disarmed_run_emits_no_trace_file() {
    let path = temp_path("off");
    let output = regenerate()
        .env("DETDIV_THREADS", "1")
        .env_remove("DETDIV_TRACE")
        .args(["--experiment", "fig7", "--log", "off"])
        .output()
        .expect("spawn regenerate");
    assert!(output.status.success());
    assert!(!path.exists(), "no trace file may be written when disarmed");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("trace events"),
        "disarmed run must not report a trace export: {stderr:?}"
    );
}

/// An unwritable `--trace` destination fails fast, before any
/// computation (same preflight contract as `--json`).
#[test]
fn unwritable_trace_destination_fails_fast() {
    let target = std::env::temp_dir()
        .join(format!("detdiv_trace_gate_missing_{}", std::process::id()))
        .join("no/such/dir/trace.json");
    let output = regenerate()
        .args(["--log", "off", "--trace"])
        .arg(&target)
        .output()
        .expect("spawn regenerate");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--trace") && stderr.contains("does not exist"),
        "diagnostic should name the missing directory: {stderr:?}"
    );
}

/// `tracecheck` rejects garbage: invalid JSON and unbalanced traces
/// both exit non-zero with a diagnostic.
#[test]
fn tracecheck_rejects_invalid_and_unbalanced_input() {
    let bad_json = temp_path("badjson");
    std::fs::write(&bad_json, "{not json").unwrap();
    let output = tracecheck()
        .arg(&bad_json)
        .output()
        .expect("spawn tracecheck");
    let _ = std::fs::remove_file(&bad_json);
    assert!(!output.status.success(), "invalid JSON must be rejected");

    let unbalanced = temp_path("unbalanced");
    std::fs::write(
        &unbalanced,
        r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":1}
        ]}"#,
    )
    .unwrap();
    let output = tracecheck()
        .arg(&unbalanced)
        .output()
        .expect("spawn tracecheck");
    let _ = std::fs::remove_file(&unbalanced);
    assert!(!output.status.success(), "mismatched B/E must be rejected");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("mismatched nesting"), "{stderr:?}");

    // Well-formed and balanced, but carrying the marker the exporter
    // appends when the recorder's sink overflowed.
    let dropped = temp_path("dropped");
    std::fs::write(
        &dropped,
        r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":2.0,"pid":1,"tid":1},
            {"name":"detdiv/trace_dropped","ph":"C","ts":3.0,"pid":1,"tid":0,"args":{"value":7}}
        ]}"#,
    )
    .unwrap();
    let output = tracecheck()
        .arg(&dropped)
        .output()
        .expect("spawn tracecheck");
    let _ = std::fs::remove_file(&dropped);
    assert!(
        !output.status.success(),
        "a trace that dropped events must be rejected"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("dropped 7 event(s)"), "{stderr:?}");
}
