//! Validates a Chrome trace-event JSON file written by `--trace` /
//! `DETDIV_TRACE` (the CI trace gate's checker).
//!
//! ```text
//! tracecheck PATH [--expect-thread NAME]...
//! ```
//!
//! Checks, in order:
//!
//! 1. the file parses as JSON and has a top-level `traceEvents` array;
//! 2. every event is an object carrying `name` (string), `ph` (one of
//!    `B E i X C M`), a numeric `ts`, and integer `pid`/`tid`;
//! 3. per `tid`, timestamps never decrease in file order (the exporter
//!    sorts stably on nanoseconds, so any regression is a bug);
//! 4. per `tid`, `B`/`E` events balance as a stack: every `E` closes
//!    the innermost open `B` of the same name, and no `B` is left open
//!    at end of file;
//! 5. every `--expect-thread NAME` matches some `thread_name` metadata
//!    event's `args.name` (substring match), e.g. `par-worker-1`;
//! 6. no `detdiv/trace_dropped` counter event is present: the exporter
//!    writes one only when the recorder's sink overflowed, and a trace
//!    with silently missing events is not evidence.
//!
//! Prints a one-line summary on success; on any violation prints the
//! offending event index and exits nonzero.

use std::process::ExitCode;

use serde::Value;

struct Check {
    events: usize,
    tids: std::collections::BTreeSet<u64>,
    thread_names: Vec<String>,
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

fn as_number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn check(doc: &Value) -> Result<Check, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;

    let mut tids = std::collections::BTreeSet::new();
    let mut thread_names = Vec::new();
    // Per-tid state: last timestamp seen and the open B-span stack.
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();

    for (index, event) in events.iter().enumerate() {
        let fail = |what: &str| format!("event {index}: {what}");
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string \"name\""))?;
        let phase = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string \"ph\""))?;
        if !matches!(phase, "B" | "E" | "i" | "X" | "C" | "M") {
            return Err(fail(&format!("unknown phase {phase:?}")));
        }
        let ts = event
            .get("ts")
            .and_then(as_number)
            .ok_or_else(|| fail("missing numeric \"ts\""))?;
        event
            .get("pid")
            .and_then(as_u64)
            .ok_or_else(|| fail("missing integer \"pid\""))?;
        let tid = event
            .get("tid")
            .and_then(as_u64)
            .ok_or_else(|| fail("missing integer \"tid\""))?;
        tids.insert(tid);

        // 3. Per-tid monotonic timestamps. Metadata events carry ts 0
        //    by convention and are exempt.
        if phase != "M" {
            if let Some(&previous) = last_ts.get(&tid) {
                if ts < previous {
                    return Err(fail(&format!(
                        "tid {tid} timestamp went backwards: {previous} -> {ts}"
                    )));
                }
            }
            last_ts.insert(tid, ts);
        }

        // 4. B/E stack balance per tid.
        match phase {
            "B" => stacks.entry(tid).or_default().push(name.to_owned()),
            "E" => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| fail(&format!("tid {tid}: E {name:?} without an open B")))?;
                if open != name {
                    return Err(fail(&format!(
                        "tid {tid}: E {name:?} closes B {open:?} (mismatched nesting)"
                    )));
                }
            }
            _ => {}
        }

        // 5. Collect thread names for --expect-thread.
        if phase == "M" && name == "thread_name" {
            if let Some(thread) = event
                .get("args")
                .and_then(|args| args.get("name"))
                .and_then(Value::as_str)
            {
                thread_names.push(thread.to_owned());
            }
        }

        // 6. A dropped-events marker means the sink overflowed.
        if phase == "C" && name == "detdiv/trace_dropped" {
            let dropped = event
                .get("args")
                .and_then(|args| args.get("value"))
                .and_then(as_u64)
                .unwrap_or(0);
            return Err(fail(&format!(
                "the recorder dropped {dropped} event(s) (sink overflow)"
            )));
        }
    }

    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "tid {tid}: {} span(s) left open at end of trace (innermost {open:?})",
                stack.len()
            ));
        }
    }

    Ok(Check {
        events: events.len(),
        tids,
        thread_names,
    })
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        Some(flag) if flag == "--help" || flag == "-h" => {
            println!("usage: tracecheck PATH [--expect-thread NAME]...");
            return Ok(());
        }
        Some(path) => path,
        None => return Err("usage: tracecheck PATH [--expect-thread NAME]...".to_owned()),
    };
    let mut expected_threads = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--expect-thread" => {
                expected_threads.push(args.next().ok_or("--expect-thread needs a name")?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let raw = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::from_str_value(&raw).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let report = check(&doc).map_err(|e| format!("{path}: {e}"))?;
    for expected in &expected_threads {
        if !report
            .thread_names
            .iter()
            .any(|name| name.contains(expected.as_str()))
        {
            return Err(format!(
                "{path}: no thread_name metadata matching {expected:?} (saw {:?})",
                report.thread_names
            ));
        }
    }
    println!(
        "tracecheck: {path}: OK — {} events, {} thread(s), {} named",
        report.events,
        report.tids.len(),
        report.thread_names.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    if let Err(e) = detdiv_bench::preflight_env() {
        eprintln!("tracecheck: environment error: {e}");
        return ExitCode::FAILURE;
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracecheck: {e}");
            ExitCode::FAILURE
        }
    }
}
