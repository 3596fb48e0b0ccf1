//! The benchmark's own tests, run at the tiny shape: every workload
//! prints every metric `BENCHMARK.json` names, with its unit; a seed
//! fixes the count metrics and digests; another seed changes the digest
//! but not the set of metrics; the traced run's spans pass the
//! workspace's `tracecheck`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 3] = ["grid-counting", "serve-gated", "serve-overload"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in the given list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let raw = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str_value(&raw).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    context: Value,
    result: Value,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        match self.result.get("metrics").and_then(|m| m.get(name)) {
            Some(m) => match m.get("value") {
                Some(Value::Int(i)) => *i as f64,
                Some(Value::UInt(u)) => *u as f64,
                Some(Value::Float(f)) => *f,
                other => panic!("{name}: not a number: {other:?}"),
            },
            None => panic!("{name}: not printed"),
        }
    }

    fn metrics(&self) -> Vec<(String, String)> {
        self.result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), unit.to_owned())
            })
            .collect()
    }

    fn digest(&self) -> String {
        self.context
            .get("digest")
            .and_then(Value::as_str)
            .expect("digest in the run context")
            .to_owned()
    }
}

fn bench(workload: &str, seed: u64, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_detdiv-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--shape", "tiny"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: context and result lines");
    let parse = |line: &str| serde_json::from_str_value(line).expect("a JSON line");
    let run = Run {
        context: parse(lines[lines.len() - 2])
            .get("context")
            .expect("context object")
            .clone(),
        result: parse(lines[lines.len() - 1]),
    };
    assert_eq!(run.result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(run.result.get("failed"), Some(&Value::Int(0)));
    run
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        assert_eq!(
            bench(workload, 3, false).metrics(),
            end_to_end,
            "{workload}"
        );
        assert_eq!(bench(workload, 3, true).metrics(), per_layer, "{workload}");
    }
}

#[test]
fn a_seed_fixes_count_metrics_and_digests() {
    let counts: Vec<String> = declared("per_layer")
        .into_iter()
        .filter(|(_, unit)| unit == "count" || unit == "ratio")
        .map(|(name, _)| name)
        .collect();
    for workload in WORKLOADS {
        let (a, b) = (bench(workload, 5, true), bench(workload, 5, true));
        assert_eq!(a.digest(), b.digest(), "{workload}");
        for name in &counts {
            assert_eq!(a.metric(name), b.metric(name), "{workload}: {name}");
        }
    }
}

#[test]
fn another_seed_changes_the_digest_not_the_metric_set() {
    for workload in WORKLOADS {
        let (a, b) = (bench(workload, 5, false), bench(workload, 6, false));
        assert_ne!(a.digest(), b.digest(), "{workload}");
        assert_eq!(a.metrics(), b.metrics(), "{workload}");
    }
}

#[test]
fn traced_run_writes_a_trace_tracecheck_accepts() {
    let run = bench("serve-overload", 9, true);
    let trace = run
        .context
        .get("trace_file")
        .and_then(Value::as_str)
        .expect("trace_file in the run context");
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join(trace);
    let status = Command::new(env!("CARGO"))
        .current_dir(repo_root())
        .args(["run", "--quiet", "--release", "--offline"])
        .args(["-p", "detdiv-bench", "--bin", "tracecheck", "--"])
        .arg(&trace)
        .status()
        .expect("run tracecheck");
    assert!(status.success(), "tracecheck rejected {}", trace.display());
}
