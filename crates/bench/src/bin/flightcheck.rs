//! Validates a flight-recorder audit log and cross-checks it against
//! the coverage maps of the same run.
//!
//! ```text
//! flightcheck --dump PATH [--report PATH] [--crash PATH]
//! ```
//!
//! * `--dump PATH` — the wide-event audit log written by
//!   `regenerate --flight PATH`. Always validated: every line must
//!   carry an intact `detdiv-resil` journal checksum and parse as
//!   JSON, the payloads (footer excluded) must be sorted — the
//!   recorder's byte-determinism contract — and the trailing `footer`
//!   record must agree with the line count and report zero drops. A
//!   dump holding nothing but its footer is rejected too: an armed
//!   recorder that recorded nothing is evidence of nothing.
//! * `--report PATH` — the `paper_report.json` of the *same* run.
//!   When given, the paper-grid coverage maps (fig3–fig6) are
//!   reconstructed from the dump's `cell` records: every
//!   detect/weak/blind cell of each map must have a matching record
//!   with the same verdict, the distinct detect-verdict cells per
//!   detector must equal the map's `detection_count`, and no grid cell
//!   may carry conflicting verdicts across experiments (several
//!   experiments re-evaluate the same cells; determinism says they
//!   must agree). Records are filtered to the run's corpus via the
//!   dump's `header` fingerprint, so sub-experiments on derived
//!   corpora (abl4's shorter training lengths) cannot pollute the
//!   reconstruction.
//! * `--crash PATH` — a `PATH.crash` blackbox dump (written by the
//!   panic hook or on stream degradation). Validated for checksums, a
//!   leading `crash` record naming the reason, and an event count that
//!   matches the remaining lines.
//! * `--guard` — require and validate the overload guard's audit trail
//!   (`guard` records from `loadgen --overload`): per shard, record
//!   sequence numbers must be strictly increasing, the degradation
//!   ladder must form an unbroken transition chain starting at `full`,
//!   and every breaker chain must start at `closed` and step
//!   contiguously (`open` ↔ `half-open` ↔ `closed`).
//!   Hibernate/rehydrate records must carry their fixed outcomes. This
//!   is the "every ladder/breaker move is reconstructable from the
//!   flight log" gate.
//!
//! Any violation prints a one-line diagnostic and exits nonzero, so CI
//! can gate on "every alarm in the report is reconstructable from the
//! audit log".

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use detdiv_resil::Journal;
use serde_json::Value;

struct Args {
    dump: String,
    report: Option<String>,
    crash: Option<String>,
    guard: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut dump = None;
    let mut report = None;
    let mut crash = None;
    let mut guard = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dump" => dump = Some(it.next().ok_or("--dump needs a path")?),
            "--report" => report = Some(it.next().ok_or("--report needs a path")?),
            "--crash" => crash = Some(it.next().ok_or("--crash needs a path")?),
            "--guard" => guard = true,
            "--help" | "-h" => {
                println!("usage: flightcheck --dump PATH [--report PATH] [--crash PATH] [--guard]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        dump: dump.ok_or("--dump is required")?,
        report,
        crash,
        guard,
    })
}

fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

/// A required string field of a record, or a diagnostic naming it.
fn field_str<'a>(record: &'a Value, name: &str, what: &str) -> Result<&'a str, String> {
    record
        .get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing string field {name:?}"))
}

/// A required unsigned field of a record, or a diagnostic naming it.
fn field_u64(record: &Value, name: &str, what: &str) -> Result<u64, String> {
    record
        .get(name)
        .and_then(value_u64)
        .ok_or_else(|| format!("{what}: missing unsigned field {name:?}"))
}

/// Loads a checksummed journal file and parses every payload as JSON,
/// returning `(raw_payload, parsed)` pairs in file order.
fn load_parsed(path: &str) -> Result<Vec<(String, Value)>, String> {
    let payloads = Journal::load(path).map_err(|e| format!("{path}: {e}"))?;
    if payloads.is_empty() {
        return Err(format!("{path}: no intact records"));
    }
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let parsed = serde_json::from_str_value(&payload)
                .map_err(|e| format!("{path}: line {}: not JSON: {e}", i + 1))?;
            Ok((payload, parsed))
        })
        .collect()
}

/// The paper-grid coverage maps the reconstruction checks, as they
/// appear in `paper_report.json`.
const FIG_MAPS: &[&str] = &["fig3", "fig4", "fig5", "fig6"];

/// Maps a report `CellStatus` string to the single-letter verdict the
/// cell records carry.
fn verdict_letter(status: &str) -> Option<char> {
    match status {
        "Detect" => Some('D'),
        "Weak" => Some('W'),
        "Blind" => Some('B'),
        "Undefined" => Some('U'),
        "Failed" => Some('F'),
        _ => None,
    }
}

/// Validates the audit log's structure: checksums (via the journal
/// loader), JSON payloads, sorted order, and a truthful footer.
/// Returns the parsed records with the footer removed.
fn check_dump(path: &str) -> Result<Vec<(String, Value)>, String> {
    let mut records = load_parsed(path)?;
    let (_, footer) = records.pop().expect("load_parsed rejects empty dumps");
    if field_str(&footer, "t", "footer")? != "footer" {
        return Err(format!("{path}: last record is not the footer"));
    }
    let counted = field_u64(&footer, "records", "footer")?;
    if counted != records.len() as u64 {
        return Err(format!(
            "{path}: footer counts {counted} records, file holds {}",
            records.len()
        ));
    }
    if records.is_empty() {
        return Err(format!(
            "{path}: no records before the footer; the recorder recorded nothing"
        ));
    }
    let dropped = field_u64(&footer, "dropped", "footer")?;
    if dropped != 0 {
        return Err(format!(
            "{path}: {dropped} records were dropped at the sink; the log is incomplete"
        ));
    }
    if let Some(w) = records.windows(2).position(|w| w[0].0 > w[1].0) {
        return Err(format!(
            "{path}: payloads out of sorted order at line {}",
            w + 2
        ));
    }
    for (i, (_, record)) in records.iter().enumerate() {
        field_str(record, "t", &format!("{path}: line {}", i + 1))?;
    }
    Ok(records)
}

/// Cross-checks the dump's `cell` records against the report's
/// fig3–fig6 coverage maps. Returns `(cells_checked, alarms_checked)`.
fn check_report(records: &[(String, Value)], report_path: &str) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(report_path).map_err(|e| format!("{report_path}: {e}"))?;
    let report =
        serde_json::from_str_value(&text).map_err(|e| format!("{report_path}: not JSON: {e}"))?;

    // The run's corpus identity comes from the header record; every
    // reconstruction below filters on it.
    let headers: BTreeSet<&str> = records
        .iter()
        .filter(|(_, r)| r.get("t").and_then(Value::as_str) == Some("header"))
        .map(|(_, r)| field_str(r, "corpus", "header"))
        .collect::<Result<_, _>>()?;
    if headers.len() != 1 {
        return Err(format!(
            "expected exactly one header corpus fingerprint, found {}",
            headers.len()
        ));
    }
    let corpus = *headers.iter().next().expect("len checked");

    // (detector, window, AS) -> verdicts seen across all experiments.
    let mut seen: BTreeMap<(String, u64, u64), BTreeSet<char>> = BTreeMap::new();
    for (_, record) in records {
        if record.get("t").and_then(Value::as_str) != Some("cell") {
            continue;
        }
        if field_str(record, "corpus", "cell")? != corpus {
            continue;
        }
        let detector = field_str(record, "detector", "cell")?.to_owned();
        let window = field_u64(record, "window", "cell")?;
        let anomaly_size = field_u64(record, "anomaly_size", "cell")?;
        let verdict = field_str(record, "verdict", "cell")?;
        let letter = verdict
            .chars()
            .next()
            .filter(|_| verdict.len() == 1)
            .ok_or_else(|| format!("cell: malformed verdict {verdict:?}"))?;
        seen.entry((detector, window, anomaly_size))
            .or_default()
            .insert(letter);
    }
    for ((detector, window, anomaly_size), verdicts) in &seen {
        if verdicts.len() > 1 {
            return Err(format!(
                "cell ({detector}, DW {window}, AS {anomaly_size}) carries conflicting \
                 verdicts {verdicts:?}; experiments disagreed on a deterministic cell"
            ));
        }
    }

    let mut cells_checked = 0usize;
    let mut alarms_checked = 0usize;
    for fig in FIG_MAPS {
        let map = report
            .get(fig)
            .ok_or_else(|| format!("{report_path}: missing {fig}"))?;
        let detector = field_str(map, "detector", fig)?;
        let sizes: Vec<u64> = map
            .get("anomaly_sizes")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{fig}: missing anomaly_sizes"))?
            .iter()
            .filter_map(value_u64)
            .collect();
        let windows: Vec<u64> = map
            .get("windows")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{fig}: missing windows"))?
            .iter()
            .filter_map(value_u64)
            .collect();
        let cells = map
            .get("cells")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{fig}: missing cells"))?;
        if cells.len() != sizes.len() * windows.len() {
            return Err(format!("{fig}: cell count does not match its grid"));
        }
        let mut map_alarms = 0usize;
        let mut log_alarms = 0usize;
        // Cells are row-major by window, then anomaly size.
        for (wi, window) in windows.iter().enumerate() {
            for (ai, anomaly_size) in sizes.iter().enumerate() {
                let status = cells[wi * sizes.len() + ai]
                    .as_str()
                    .ok_or_else(|| format!("{fig}: non-string cell status"))?;
                let letter = verdict_letter(status)
                    .ok_or_else(|| format!("{fig}: unknown cell status {status:?}"))?;
                let recorded = seen.get(&(detector.to_owned(), *window, *anomaly_size));
                if letter == 'D' {
                    map_alarms += 1;
                }
                if recorded.is_some_and(|v| v.contains(&'D')) {
                    log_alarms += 1;
                }
                match letter {
                    // Undefined cells are never scored (no record);
                    // failed cells surface as `failure` records from
                    // the supervision observer instead.
                    'U' | 'F' => continue,
                    _ => {}
                }
                let verdicts = recorded.ok_or_else(|| {
                    format!(
                        "{fig}: no audit record for ({detector}, DW {window}, AS {anomaly_size})"
                    )
                })?;
                if !verdicts.contains(&letter) {
                    return Err(format!(
                        "{fig}: ({detector}, DW {window}, AS {anomaly_size}) is {status:?} \
                         in the report but recorded {verdicts:?} in the audit log"
                    ));
                }
                cells_checked += 1;
            }
        }
        if map_alarms != log_alarms {
            return Err(format!(
                "{fig}: {detector} raises {map_alarms} alarms in the report but the audit \
                 log reconstructs {log_alarms}"
            ));
        }
        alarms_checked += map_alarms;
    }
    Ok((cells_checked, alarms_checked))
}

/// Per-kind record counts from the guard audit trail, for the summary
/// line (and for CI to grep).
#[derive(Default)]
struct GuardCounts {
    ladder: usize,
    breaker: usize,
    hibernate: usize,
    rehydrate: usize,
}

/// A required hex-encoded unsigned field of a guard record.
fn field_hex(record: &Value, name: &str, what: &str) -> Result<u64, String> {
    let raw = field_str(record, name, what)?;
    u64::from_str_radix(raw, 16).map_err(|_| format!("{what}: field {name:?} is not hex: {raw:?}"))
}

/// Validates the overload guard's audit trail: per-shard strictly
/// increasing sequence numbers, an unbroken ladder transition chain
/// from `full`, breaker chains from `closed`, and fixed
/// hibernate/rehydrate outcomes.
fn check_guard(records: &[(String, Value)]) -> Result<GuardCounts, String> {
    let mut counts = GuardCounts::default();
    // shard -> (last seq, expected ladder level, expected breaker state)
    let mut shards: BTreeMap<u64, (Option<u64>, &str, &str)> = BTreeMap::new();
    for (_, record) in records {
        if record.get("t").and_then(Value::as_str) != Some("guard") {
            continue;
        }
        let shard = field_hex(record, "shard", "guard")?;
        let what = format!("guard shard {shard}");
        let seq = field_hex(record, "seq", &what)?;
        let kind = field_str(record, "kind", &what)?;
        let from = field_str(record, "from", &what)?;
        let to = field_str(record, "to", &what)?;
        let state = shards.entry(shard).or_insert((None, "full", "closed"));
        if state.0.is_some_and(|last| seq <= last) {
            return Err(format!(
                "{what}: seq {seq} is not strictly increasing (last {})",
                state.0.expect("checked")
            ));
        }
        state.0 = Some(seq);
        match kind {
            "ladder" => {
                counts.ladder += 1;
                if from != state.1 {
                    return Err(format!(
                        "{what}: ladder record leaves level {from:?} but the chain is at {:?}",
                        state.1
                    ));
                }
                state.1 = match to {
                    "full" => "full",
                    "gated-only" => "gated-only",
                    "tier1-only" => "tier1-only",
                    "shedding" => "shedding",
                    other => return Err(format!("{what}: unknown ladder level {other:?}")),
                };
            }
            "breaker" => {
                counts.breaker += 1;
                if from != state.2 {
                    return Err(format!(
                        "{what}: breaker record leaves state {from:?} but the chain is at {:?}",
                        state.2
                    ));
                }
                state.2 = match to {
                    "closed" => "closed",
                    "open" => "open",
                    "half-open" => "half-open",
                    other => return Err(format!("{what}: unknown breaker state {other:?}")),
                };
            }
            "hibernate" => {
                counts.hibernate += 1;
                if to != "spilled" {
                    return Err(format!("{what}: hibernate record with outcome {to:?}"));
                }
            }
            "rehydrate" => {
                counts.rehydrate += 1;
                if to != "restored" && to != "cold" {
                    return Err(format!("{what}: rehydrate record with outcome {to:?}"));
                }
            }
            other => return Err(format!("{what}: unknown guard record kind {other:?}")),
        }
    }
    let total = counts.ladder + counts.breaker + counts.hibernate + counts.rehydrate;
    if total == 0 {
        return Err("--guard was given but the dump holds no guard records".into());
    }
    Ok(counts)
}

/// Validates a crash blackbox dump: checksums, the leading `crash`
/// record, and its event count. Returns `(reason, events)`.
fn check_crash(path: &str) -> Result<(String, usize), String> {
    let records = load_parsed(path)?;
    let (_, head) = &records[0];
    if field_str(head, "t", "crash header")? != "crash" {
        return Err(format!("{path}: first record is not the crash header"));
    }
    let reason = field_str(head, "reason", "crash header")?.to_owned();
    let events = field_u64(head, "events", "crash header")? as usize;
    if events != records.len() - 1 {
        return Err(format!(
            "{path}: crash header counts {events} events, file holds {}",
            records.len() - 1
        ));
    }
    Ok((reason, events))
}

fn run(args: &Args) -> Result<String, String> {
    let records = check_dump(&args.dump)?;
    let mut summary = format!("flightcheck: {} records validated", records.len());
    if let Some(report) = &args.report {
        let (cells, alarms) = check_report(&records, report)?;
        summary.push_str(&format!(
            "; {cells} grid cells and {alarms} alarms reconstructed against {report}"
        ));
    }
    if let Some(crash) = &args.crash {
        let (reason, events) = check_crash(crash)?;
        summary.push_str(&format!(
            "; crash dump intact ({events} events, reason {reason:?})"
        ));
    }
    if args.guard {
        let c = check_guard(&records)?;
        summary.push_str(&format!(
            "; guard trail intact ({} ladder, {} breaker, {} hibernate, {} rehydrate)",
            c.ladder, c.breaker, c.hibernate, c.rehydrate
        ));
    }
    Ok(summary)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flightcheck: argument error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flightcheck: {e}");
            ExitCode::FAILURE
        }
    }
}
