//! CI checker for a live `detdiv-scope` exposition server.
//!
//! ```text
//! scopecheck --addr HOST:PORT [--retries N] [--delay-ms MS] [--expect-telemetry]
//! ```
//!
//! Scrapes every route of a running server (typically one armed by
//! `regenerate --serve 127.0.0.1:0` in another process). The route
//! list comes from the server itself: the 404 hint for an unrouted
//! path names every route. Each route must answer 200, and a route
//! served as `application/json` must carry a valid JSON body. Some
//! routes are checked further, and each of these must be in the list:
//!
//! * `/metrics` parses under the hand-rolled Prometheus text-format
//!   validator (HELP/TYPE headers, name charset, cumulative histogram
//!   buckets, `+Inf` terminals);
//! * `/healthz` is JSON with `"status": "ok"`;
//! * `/snapshot.json` deserializes as a `TelemetrySnapshot`;
//! * `/profilez` renders the self-profile header;
//! * `/servez` and `/guardz` report `"registered":false`: a
//!   regeneration run starts no ingest service.
//!
//! The first scrape retries with a bounded delay, because CI starts
//! the server and the checker concurrently and the run being observed
//! may still be in preflight. With `--expect-telemetry`, the check
//! additionally requires `/healthz` to report telemetry enabled,
//! `/metrics` to expose at least one `detdiv_*_total` counter and the
//! snapshot to hold counters — the mid-run-scrape assertion for a
//! telemetry-on run.

use detdiv_scope::{expo, server};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: String,
    retries: u32,
    delay_ms: u64,
    expect_telemetry: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        retries: 20,
        delay_ms: 250,
        expect_telemetry: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => args.addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--retries" => {
                args.retries = it
                    .next()
                    .ok_or("--retries needs a count")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--delay-ms" => {
                args.delay_ms = it
                    .next()
                    .ok_or("--delay-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("--delay-ms: {e}"))?;
            }
            "--expect-telemetry" => args.expect_telemetry = true,
            "--help" | "-h" => {
                println!(
                    "usage: scopecheck --addr HOST:PORT [--retries N] [--delay-ms MS] [--expect-telemetry]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".to_owned());
    }
    Ok(args)
}

/// A path no route answers: its 404 hint lists every route as
/// `  /path - summary`.
const UNROUTED: &str = "/scopecheck-route-list";

/// Routes with checks of their own; each must be in the route list.
const CHECKED: [&str; 6] = [
    "/metrics",
    "/healthz",
    "/snapshot.json",
    "/profilez",
    "/servez",
    "/guardz",
];

fn check_route(
    route: &str,
    body: &str,
    json: Option<&serde::Value>,
    telemetry: bool,
) -> Result<(), String> {
    let field = |key: &str| json.and_then(|v| v.get(key)).cloned();
    match route {
        "/metrics" => {
            let parsed = expo::validate(body)
                .map_err(|e| format!("/metrics is not valid Prometheus text: {e}"))?;
            let counters = parsed
                .samples
                .iter()
                .filter(|s| s.name.starts_with("detdiv_") && s.name.ends_with("_total"))
                .count();
            if telemetry && counters == 0 {
                return Err("telemetry expected but /metrics exposes no detdiv counters".to_owned());
            }
            eprintln!(
                "scopecheck: /metrics valid — {} families, {} samples, {counters} detdiv counters",
                parsed.families.len(),
                parsed.samples.len()
            );
        }
        "/healthz" => {
            if field("status").as_ref().and_then(|v| v.as_str()) != Some("ok") {
                return Err("healthz status is not \"ok\"".to_owned());
            }
            if telemetry && field("telemetry_enabled") != Some(serde::Value::Bool(true)) {
                return Err("telemetry expected but /healthz reports it disabled".to_owned());
            }
        }
        "/snapshot.json" => {
            let snapshot: detdiv_obs::TelemetrySnapshot = serde_json::from_str(body)
                .map_err(|e| format!("/snapshot.json does not deserialize: {e}"))?;
            if telemetry && snapshot.counters.is_empty() {
                return Err("telemetry expected but the snapshot has no counters".to_owned());
            }
        }
        "/profilez" if !body.starts_with("detdiv self-profile") => {
            return Err("profilez is missing its header line".to_owned());
        }
        "/servez" | "/guardz" if field("registered") != Some(serde::Value::Bool(false)) => {
            return Err(format!("{route} reports a registered service: {body}"));
        }
        _ => {}
    }
    eprintln!("scopecheck: {route} ok");
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let (addr, _) = server::parse_scrape_url(&args.addr)?;
    let timeout = Duration::from_secs(5);

    // First contact, with bounded retry: the server may still be
    // binding when CI launches us.
    let mut attempt = 0;
    let hint = loop {
        attempt += 1;
        match server::http_get(&addr, UNROUTED, timeout) {
            Ok((404, body)) => break body,
            Ok((status, _)) => return Err(format!("{UNROUTED} answered HTTP {status}, not 404")),
            Err(e) if attempt <= args.retries => {
                eprintln!(
                    "scopecheck: attempt {attempt}/{}: {e}; retrying in {} ms",
                    args.retries, args.delay_ms
                );
                std::thread::sleep(Duration::from_millis(args.delay_ms));
            }
            Err(e) => return Err(format!("server unreachable after {attempt} attempts: {e}")),
        }
    };
    let routes: Vec<&str> = hint
        .lines()
        .filter_map(|line| line.strip_prefix("  ")?.split_once(" - "))
        .map(|(path, _)| path)
        .collect();
    if let Some(missing) = CHECKED.iter().find(|c| !routes.contains(c)) {
        return Err(format!("the route list lacks {missing}: {hint}"));
    }
    for route in &routes {
        let (status, content_type, body) = server::http_get_typed(&addr, route, timeout)?;
        if status != 200 {
            return Err(format!("{route} answered HTTP {status}"));
        }
        let json = content_type
            .starts_with("application/json")
            .then(|| serde_json::from_str_value(&body))
            .transpose()
            .map_err(|e| format!("{route} is not valid JSON: {e}"))?;
        check_route(route, &body, json.as_ref(), args.expect_telemetry)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scopecheck: argument error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => {
            eprintln!("scopecheck: all endpoints valid");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scopecheck: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
