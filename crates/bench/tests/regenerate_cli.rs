//! CLI contract tests for the `regenerate` binary.
//!
//! These run the compiled binary (via `CARGO_BIN_EXE_regenerate`) and
//! pin down the behaviours a scripted caller relies on:
//!
//! * an unwritable `--json` destination fails *fast* (before any
//!   synthesis) with a non-zero exit code and a stderr diagnostic;
//! * invalid flags (`--threads 0`, unknown experiments, `--json` with
//!   an experiment other than `all`) are rejected with diagnostics even
//!   when logging is off;
//! * a corpus-free experiment runs to success under an explicit
//!   `--threads` override.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn regenerate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regenerate"))
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// `--json` into a nonexistent directory must exit non-zero with a
/// diagnostic naming the directory — and it must do so quickly, i.e.
/// before the corpus is synthesized (a full run takes minutes; the
/// preflight must fail in well under 30 seconds even on a loaded CI
/// machine).
#[test]
fn json_into_missing_directory_fails_fast_with_diagnostic() {
    let target = std::env::temp_dir()
        .join(format!("detdiv_cli_missing_{}", std::process::id()))
        .join("definitely/not/here/out.json");
    let started = Instant::now();
    let output = regenerate()
        .args(["--log", "off", "--json"])
        .arg(&target)
        .output()
        .expect("spawn regenerate");
    let elapsed = started.elapsed();
    assert!(
        !output.status.success(),
        "expected failure, got {:?}",
        output.status
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("does not exist"),
        "diagnostic should say the directory does not exist: {stderr:?}"
    );
    assert!(
        stderr.contains("definitely/not/here"),
        "diagnostic should name the directory: {stderr:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "preflight should fail before any computation, took {elapsed:?}"
    );
}

/// `--json` pointing at a directory (not a file path) is rejected.
#[test]
fn json_pointing_at_a_directory_is_rejected() {
    let dir = std::env::temp_dir().join(format!("detdiv_cli_isdir_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let output = regenerate()
        .args(["--log", "off", "--json"])
        .arg(&dir)
        .output()
        .expect("spawn regenerate");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("is a directory"),
        "diagnostic should say the target is a directory: {stderr:?}"
    );
}

/// `--threads 0` is an argument error, reported even with logging off.
#[test]
fn zero_threads_is_rejected_with_a_diagnostic() {
    let output = regenerate()
        .args(["--log", "off", "--threads", "0"])
        .output()
        .expect("spawn regenerate");
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("--threads") && stderr.contains("at least 1"),
        "diagnostic should explain the constraint: {stderr:?}"
    );
}

/// `--json` writes only the full report, so pairing it with a single
/// experiment is an argument error rather than a run that exits 0 and
/// writes nothing.
#[test]
fn json_with_a_single_experiment_is_rejected() {
    let target = std::env::temp_dir().join(format!(
        "detdiv_cli_json_single_{}.json",
        std::process::id()
    ));
    let output = regenerate()
        .args(["--log", "off", "--experiment", "fig7", "--json"])
        .arg(&target)
        .output()
        .expect("spawn regenerate");
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--json") && stderr.contains("--experiment all"),
        "the diagnostic names both flags: {stderr:?}"
    );
    assert!(output.stdout.is_empty(), "no experiment ran");
    assert!(!target.exists(), "no report written at {target:?}");
}

/// Unknown experiment ids fail with a diagnostic under `--log off`
/// (the error path must not depend on the structured logger).
#[test]
fn unknown_experiment_fails_with_diagnostic_under_log_off() {
    let output = regenerate()
        .args(["--log", "off", "--experiment", "fig99"])
        .output()
        .expect("spawn regenerate");
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("fig99"),
        "diagnostic should name the unknown experiment: {stderr:?}"
    );
}

/// A run that fails (here: a training length the synthesis preflight
/// refuses) exits non-zero and leaves no flight audit log behind — not
/// even a stale one from an earlier run at the same path — and says so
/// on stderr.
#[test]
fn failed_run_writes_no_flight_dump() {
    let target = std::env::temp_dir().join(format!(
        "detdiv_cli_failed_flight_{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&target, "a dump from an earlier run\n").expect("write stale dump");
    let output = regenerate()
        .args(["--log", "off", "--training-len", "10000", "--flight"])
        .arg(&target)
        .output()
        .expect("spawn regenerate");
    assert!(
        !output.status.success(),
        "the synthesis preflight must fail"
    );
    assert!(
        !target.exists(),
        "a failed run must not leave a flight dump at {target:?}"
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("no flight audit log written"),
        "stderr should say the dump was withheld: {stderr:?}"
    );
    assert!(
        stderr.contains("removed the earlier flight audit log"),
        "stderr should say the stale dump was removed: {stderr:?}"
    );
}

/// A corpus-free experiment succeeds under an explicit thread override.
#[test]
fn corpus_free_experiment_succeeds_with_thread_override() {
    let output = regenerate()
        .args(["--log", "off", "--experiment", "fig7", "--threads", "2"])
        .output()
        .expect("spawn regenerate");
    assert!(
        output.status.success(),
        "fig7 should succeed: stderr={:?}",
        stderr_of(&output)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("Sim"),
        "fig7 output should include the similarity table: {stdout:?}"
    );
}

/// `--serve` on a port that is already taken must fail fast — the bind
/// happens during preflight, before any synthesis.
#[test]
fn serve_on_taken_port_fails_fast_with_diagnostic() {
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").expect("bind blocker");
    let taken = blocker.local_addr().unwrap().to_string();
    let started = Instant::now();
    let output = regenerate()
        .args(["--log", "off", "--serve", &taken])
        .output()
        .expect("spawn regenerate");
    let elapsed = started.elapsed();
    assert!(!output.status.success(), "taken port must fail the run");
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("cannot arm --serve") && stderr.contains(&taken),
        "diagnostic names the flag and the address: {stderr:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "serve preflight should fail before any computation, took {elapsed:?}"
    );
}

/// A served corpus-free run succeeds, echoes the bound address on
/// stderr (the line CI parses for the ephemeral port), and still
/// prints its normal output.
#[test]
fn serve_run_echoes_bound_address_and_succeeds() {
    let output = regenerate()
        .args([
            "--log",
            "off",
            "--experiment",
            "fig7",
            "--serve",
            "127.0.0.1:0",
        ])
        .output()
        .expect("spawn regenerate");
    assert!(
        output.status.success(),
        "served fig7 should succeed: stderr={:?}",
        stderr_of(&output)
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("serving live metrics on http://127.0.0.1:"),
        "bound address echoed for scripted scrapers: {stderr:?}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Sim"), "fig7 output intact: {stdout:?}");
}

/// A malformed `DETDIV_SERVE` is caught by the environment preflight
/// with a diagnostic naming the variable.
#[test]
fn malformed_detdiv_serve_env_is_rejected() {
    let output = regenerate()
        .args(["--log", "off", "--experiment", "fig7"])
        .env("DETDIV_SERVE", "not a socket")
        .output()
        .expect("spawn regenerate");
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("DETDIV_SERVE"),
        "diagnostic names the variable: {stderr:?}"
    );
}

/// A malformed `DETDIV_SCOPE_INTERVAL_MS` is likewise rejected up
/// front, even when `--serve` is not armed.
#[test]
fn malformed_scope_interval_env_is_rejected() {
    let output = regenerate()
        .args(["--log", "off", "--experiment", "fig7"])
        .env("DETDIV_SCOPE_INTERVAL_MS", "0")
        .output()
        .expect("spawn regenerate");
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("DETDIV_SCOPE_INTERVAL_MS"),
        "diagnostic names the variable: {stderr:?}"
    );
}
