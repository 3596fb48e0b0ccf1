//! CLI contract tests for the `loadgen` binary: a flag that would be
//! silently ignored is an argument error, not a successful run.

use std::process::Command;

#[test]
fn guard_bytes_without_overload_is_rejected() {
    let output = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--streams",
            "10",
            "--events-per-stream",
            "2",
            "--shards",
            "1",
            "--guard-bytes",
            "5",
        ])
        .env("DETDIV_LOG", "off")
        .output()
        .expect("spawn loadgen");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--guard-bytes") && stderr.contains("--overload"),
        "the diagnostic names both flags: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no run happened");
}

#[test]
fn guard_bytes_env_without_overload_is_rejected() {
    let output = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--streams",
            "10",
            "--events-per-stream",
            "2",
            "--shards",
            "1",
        ])
        .env("DETDIV_LOG", "off")
        .env("DETDIV_GUARD_BYTES", "5")
        .output()
        .expect("spawn loadgen");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("DETDIV_GUARD_BYTES") && stderr.contains("--overload"),
        "the diagnostic names the variable and the flag: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no run happened");
}

#[test]
fn guard_bytes_with_overload_runs() {
    let output = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--streams",
            "10",
            "--events-per-stream",
            "2",
            "--shards",
            "1",
            "--queue-cap",
            "16",
            "--overload",
            "--guard-bytes",
            "65536",
        ])
        .env("DETDIV_LOG", "off")
        .output()
        .expect("spawn loadgen");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.starts_with("loadgen: overload"), "{stdout}");
}
