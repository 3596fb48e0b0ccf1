//! CLI contract tests for the `flightcheck` binary: the CI flight gate
//! trusts it to reject an audit log that recorded nothing or lost
//! records at the sink, and to accept a real `regenerate --flight`
//! dump whose cell records reconstruct every alarm of the same run's
//! coverage maps.

use std::path::PathBuf;
use std::process::{Command, Output};

use detdiv_resil::checksum_line;

fn flightcheck() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flightcheck"))
}

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "detdiv_flightcheck_cli_{tag}_{}.{ext}",
        std::process::id()
    ))
}

/// Writes `payloads` as a checksummed dump (the recorder's wire
/// format), runs `flightcheck --dump` on it and removes the file.
fn check_synthetic(tag: &str, payloads: &[&str]) -> Output {
    let path = temp_path(tag, "jsonl");
    let body: String = payloads
        .iter()
        .map(|payload| checksum_line(payload) + "\n")
        .collect();
    std::fs::write(&path, body).unwrap();
    let output = flightcheck()
        .arg("--dump")
        .arg(&path)
        .output()
        .expect("spawn flightcheck");
    let _ = std::fs::remove_file(&path);
    output
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn a_dump_with_no_intact_records_is_rejected() {
    let output = check_synthetic("empty", &[]);
    assert!(!output.status.success(), "an empty dump must be rejected");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("no intact records"), "{stderr:?}");

    // A truthful footer over zero records: armed, but recorded nothing.
    let output = check_synthetic(
        "footer_only",
        &[r#"{"t":"footer","records":0,"dropped":0}"#],
    );
    assert!(
        !output.status.success(),
        "a dump holding only its footer must be rejected"
    );
    let stderr = stderr_of(&output);
    assert!(stderr.contains("recorded nothing"), "{stderr:?}");
}

#[test]
fn a_dump_whose_footer_reports_drops_is_rejected() {
    let output = check_synthetic(
        "dropped",
        &[
            r#"{"t":"header","corpus":"00000000000000aa","training_len":20000}"#,
            r#"{"t":"footer","records":1,"dropped":3}"#,
        ],
    );
    assert!(
        !output.status.success(),
        "a dump that dropped records must be rejected"
    );
    let stderr = stderr_of(&output);
    assert!(stderr.contains("3 records were dropped"), "{stderr:?}");
}

/// The full report at the smallest training length the paper grid's
/// planted material fits in.
#[test]
fn a_real_regenerate_dump_reconstructs_its_report() {
    // A directory of its own: the run also writes paper_telemetry.json
    // next to the report.
    let dir = temp_path("real", "d");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("audit.jsonl");
    let report = dir.join("paper_report.json");
    let output = Command::new(env!("CARGO_BIN_EXE_regenerate"))
        .env_remove("DETDIV_FLIGHT")
        .args(["--training-len", "20000", "--log", "off", "--flight"])
        .arg(&dump)
        .arg("--json")
        .arg(&report)
        .output()
        .expect("spawn regenerate");
    assert!(
        output.status.success(),
        "regenerate failed: {}",
        stderr_of(&output)
    );
    let output = flightcheck()
        .arg("--dump")
        .arg(&dump)
        .arg("--report")
        .arg(&report)
        .output()
        .expect("spawn flightcheck");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        output.status.success(),
        "flightcheck rejected a real dump: {}",
        stderr_of(&output)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("alarms reconstructed"), "{stdout:?}");
}
