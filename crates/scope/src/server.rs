//! The metrics exposition server: a tiny single-threaded HTTP/1.1
//! responder over [`std::net::TcpListener`].
//!
//! The server exists to be scraped, not to be a web framework: it
//! accepts one connection at a time, answers the `GET` routes listed
//! in `ENDPOINTS`, and closes the connection. Binding ([`bind`]) is
//! separate from serving ([`BoundServer::serve`]) so callers can fail
//! fast on a taken or invalid address *before* doing any expensive
//! work — the regeneration binary binds during preflight, before
//! training starts.
//!
//! Routing is table-driven: `ENDPOINTS` is the single source of
//! truth for paths, content types, and handlers, and the 404 body is
//! derived from the same table so the route list can never drift from
//! the error hint.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text format 0.0.4 (see
//!   [`crate::expo`]): scope process gauges, sampler rate gauges, and
//!   every obs counter and histogram.
//! * `GET /healthz` — JSON liveness: status, uptime, last-sample age,
//!   whether telemetry is enabled, scrape count, degraded-stream
//!   count, and which optional subsystems are armed
//!   (serve/stream/fault/flight).
//! * `GET /snapshot.json` — the full serialized
//!   [`detdiv_obs::TelemetrySnapshot`], timeseries section included.
//! * `GET /profilez` — the live self-profile table as plain text.
//! * `GET /streams` — per-stream introspection from the flight
//!   registry: events, emitted verdicts, alarm totals, degraded slots,
//!   last score and event index, keyed by stream hash with the human
//!   label when known.
//! * `GET /flightz` — the live tail of the flight recorder's crash
//!   ring: recorder status plus the most recent wide events as JSONL.
//! * `GET /servez` — the `"serve"` page of [`detdiv_obs::introspect`]:
//!   per-shard counters of the registered ingest service (queue depths,
//!   rejections, escalations), or `{"registered":false}` when none is
//!   running.
//! * `GET /guardz` — the `"guard"` page: per-shard overload-guard state
//!   of the registered service (degradation ladder level, breaker
//!   state, resident bytes, shed and hibernation counters), or
//!   `{"registered":false}` when no guarded service is running.
//!
//! Shutdown sets a flag and pokes the listener with a self-connect so
//! the accept loop observes it promptly, then joins the thread.

use crate::expo;
use crate::sampler::SamplerState;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection I/O timeout: a stuck scraper cannot wedge the
/// accept loop for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request head the server reads before answering 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// What `GET /healthz` serializes.
#[derive(Debug, Serialize)]
struct Health {
    status: String,
    uptime_seconds: f64,
    last_sample_age_seconds: f64,
    telemetry_enabled: bool,
    sampler_ticks: u64,
    series: u64,
    scrapes_total: u64,
    degraded_streams: u64,
    subsystems: SubsystemHealth,
}

/// The armed-subsystem block inside `/healthz`, mirrored from
/// [`detdiv_flight::flags::subsystems`].
#[derive(Debug, Serialize)]
struct SubsystemHealth {
    serve: bool,
    stream: bool,
    fault: bool,
    flight: bool,
}

/// State shared between the accept loop and the handle.
#[derive(Debug)]
struct Shared {
    started: Instant,
    scrapes: AtomicU64,
    stop: AtomicBool,
    sampler: Option<Arc<SamplerState>>,
}

/// A successfully bound, not-yet-serving listener. Produced by
/// [`bind`]; consumed by [`BoundServer::serve`].
#[derive(Debug)]
pub struct BoundServer {
    listener: TcpListener,
    addr: SocketAddr,
}

/// Binds the exposition listener.
///
/// This is the preflight: a taken port, a malformed address, or a
/// hostname that does not resolve surfaces here as a one-line
/// diagnostic, before any training work has run.
///
/// # Errors
///
/// A human-readable message naming the address and the OS error.
pub fn bind(addr: &str) -> Result<BoundServer, String> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| format!("cannot bind metrics server on {addr}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address for {addr}: {e}"))?;
    Ok(BoundServer { listener, addr })
}

impl BoundServer {
    /// The actual bound address (port filled in when `:0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the accept loop on a background thread and returns the
    /// controlling handle. `sampler` (when present) feeds the rate
    /// gauges on `/metrics` and the sample-age field on `/healthz`.
    pub fn serve(self, sampler: Option<Arc<SamplerState>>) -> ServerHandle {
        let shared = Arc::new(Shared {
            started: Instant::now(),
            scrapes: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            sampler,
        });
        let thread = {
            let shared = Arc::clone(&shared);
            let listener = self.listener;
            std::thread::Builder::new()
                .name("detdiv-scope-server".to_owned())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        if let Ok(stream) = stream {
                            handle_connection(stream, &shared);
                        }
                    }
                })
                .expect("spawn exposition server thread")
        };
        ServerHandle {
            addr: self.addr,
            shared,
            thread: Some(thread),
        }
    }
}

/// Handle to a running exposition server; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop and joins the
/// thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total `GET` requests answered so far.
    pub fn scrapes_total(&self) -> u64 {
        self.shared.scrapes.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Poke the blocking accept so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Reads the request head (through the blank line), answers, closes.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                    || head.len() > MAX_REQUEST_BYTES
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let oversized = head.len() > MAX_REQUEST_BYTES;
    let request = String::from_utf8_lossy(&head);
    let mut tokens = request.split_whitespace();
    let (method, path) = (tokens.next().unwrap_or(""), tokens.next().unwrap_or(""));
    let response = if oversized {
        respond(400, "text/plain; charset=utf-8", "request head too large\n")
    } else {
        match (method, path) {
            ("GET", _) => {
                shared.scrapes.fetch_add(1, Ordering::Relaxed);
                route_get(path, shared)
            }
            ("", _) => respond(400, "text/plain; charset=utf-8", "bad request\n"),
            _ => respond(405, "text/plain; charset=utf-8", "method not allowed\n"),
        }
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// One `GET` route: its path, response content type, one-line summary
/// (shown in the 404 hint), and handler.
struct Endpoint {
    path: &'static str,
    content_type: &'static str,
    summary: &'static str,
    render: fn(&Shared) -> String,
}

/// The single source of truth for the server's routes. The router
/// dispatch and the 404 hint body are both derived from this table.
const ENDPOINTS: &[Endpoint] = &[
    Endpoint {
        path: "/metrics",
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        summary: "Prometheus exposition of every obs counter and histogram",
        render: render_metrics,
    },
    Endpoint {
        path: "/healthz",
        content_type: "application/json; charset=utf-8",
        summary: "liveness, degraded-stream count, armed subsystems",
        render: render_health,
    },
    Endpoint {
        path: "/snapshot.json",
        content_type: "application/json; charset=utf-8",
        summary: "full telemetry snapshot, timeseries included",
        render: render_snapshot,
    },
    Endpoint {
        path: "/profilez",
        content_type: "text/plain; charset=utf-8",
        summary: "live self-profile table",
        render: render_profile,
    },
    Endpoint {
        path: "/streams",
        content_type: "application/json; charset=utf-8",
        summary: "per-stream counters from the flight registry",
        render: render_streams,
    },
    Endpoint {
        path: "/flightz",
        content_type: "text/plain; charset=utf-8",
        summary: "flight recorder status and live event tail",
        render: render_flightz,
    },
    Endpoint {
        path: "/servez",
        content_type: "application/json; charset=utf-8",
        summary: "ingest service shard counters (queues, rejections, escalations)",
        render: |_| render_page("serve"),
    },
    Endpoint {
        path: "/guardz",
        content_type: "application/json; charset=utf-8",
        summary: "overload guard state (ladder levels, breaker, hibernation)",
        render: |_| render_page("guard"),
    },
];

fn route_get(path: &str, shared: &Shared) -> String {
    // Scrapers may append query strings; routing ignores them.
    let path = path.split('?').next().unwrap_or(path);
    match ENDPOINTS.iter().find(|e| e.path == path) {
        Some(endpoint) => respond(200, endpoint.content_type, &(endpoint.render)(shared)),
        None => respond(404, "text/plain; charset=utf-8", &not_found(path)),
    }
}

/// The 404 body: names the missed path and lists every route from
/// [`ENDPOINTS`] with its summary.
fn not_found(path: &str) -> String {
    let mut body = String::from("no route for ");
    body.push_str(path);
    body.push_str("; endpoints:\n");
    for endpoint in ENDPOINTS {
        body.push_str("  ");
        body.push_str(endpoint.path);
        body.push_str(" - ");
        body.push_str(endpoint.summary);
        body.push('\n');
    }
    body
}

fn render_metrics(shared: &Shared) -> String {
    let mut page = expo::Exposition::new();
    page.emit_gauge_f64(
        "scope_uptime_seconds",
        "seconds since the exposition server started",
        shared.started.elapsed().as_secs_f64(),
    );
    page.emit_gauge_u64(
        "scope_scrapes_total",
        "GET requests answered by the exposition server",
        // Incremented before routing, so the scrape being served
        // counts itself and the value stays monotone across scrapes.
        shared.scrapes.load(Ordering::Relaxed),
    );
    page.emit_gauge_u64(
        "scope_telemetry_enabled",
        "1 when the obs registry records telemetry (DETDIV_LOG != off)",
        u64::from(detdiv_obs::telemetry_enabled()),
    );
    if let Some(sampler) = &shared.sampler {
        page.emit_gauge_u64(
            "scope_sampler_ticks_total",
            "sampling ticks taken by the time-series sampler",
            sampler.ticks(),
        );
        page.emit_gauge_u64(
            "scope_series",
            "distinct counter series currently sampled",
            sampler.series_count() as u64,
        );
        page.emit_gauge_f64(
            "detdiv_events_per_sec",
            "aggregate windows-scored throughput from the two newest samples",
            sampler.events_per_sec(),
        );
        page.emit_labeled_gauge(
            "detdiv_rate_per_sec",
            "per-series counter rate from the two newest samples",
            "series",
            &sampler.rates(),
        );
    }
    expo::render_registry(page)
}

fn health(shared: &Shared) -> Health {
    let last_sample_age_seconds = shared
        .sampler
        .as_ref()
        .and_then(|s| s.last_sample_age())
        .map(|d| d.as_secs_f64())
        .unwrap_or(-1.0);
    let armed = detdiv_flight::flags::subsystems();
    Health {
        status: "ok".to_owned(),
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        last_sample_age_seconds,
        telemetry_enabled: detdiv_obs::telemetry_enabled(),
        sampler_ticks: shared.sampler.as_ref().map(|s| s.ticks()).unwrap_or(0),
        series: shared
            .sampler
            .as_ref()
            .map(|s| s.series_count() as u64)
            .unwrap_or(0),
        scrapes_total: shared.scrapes.load(Ordering::Relaxed),
        degraded_streams: detdiv_flight::streams::degraded_streams(),
        subsystems: SubsystemHealth {
            serve: armed.serve,
            stream: armed.stream,
            fault: armed.fault,
            flight: armed.flight,
        },
    }
}

fn render_health(shared: &Shared) -> String {
    serde_json::to_string_pretty(&health(shared)).unwrap_or_default()
}

fn render_snapshot(_shared: &Shared) -> String {
    serde_json::to_string_pretty(&detdiv_obs::snapshot()).unwrap_or_default()
}

/// Renders `/streams`: one JSON object per registered stream, hashes
/// ascending, plus the registry-wide degraded-stream count.
fn render_streams(_shared: &Shared) -> String {
    let snapshots = detdiv_flight::streams::snapshots();
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"registry_enabled\": {},\n",
        detdiv_flight::streams::enabled()
    ));
    out.push_str(&format!(
        "  \"degraded_streams\": {},\n",
        detdiv_flight::streams::degraded_streams()
    ));
    out.push_str("  \"streams\": [");
    for (i, snap) in snapshots.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    {{\"hash\":\"{:016x}\",", snap.stream_hash));
        out.push_str("\"label\":\"");
        detdiv_obs::push_json_escaped(&mut out, &snap.label);
        out.push('"');
        out.push_str(&format!(
            ",\"events\":{},\"emitted\":{},\"alarms\":{},\"degraded\":{}",
            snap.events, snap.emitted, snap.alarms, snap.degraded
        ));
        if snap.last_score.is_finite() {
            out.push_str(&format!(",\"last_score\":{:?}", snap.last_score));
        } else {
            out.push_str(",\"last_score\":null");
        }
        out.push_str(&format!(
            ",\"last_event_index\":{}}}",
            snap.last_event_index
        ));
    }
    if snapshots.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Renders `/servez` or `/guardz`: the introspection page registered
/// under `name`, as one line.
fn render_page(name: &str) -> String {
    let mut out = detdiv_obs::introspect::render(name);
    out.push('\n');
    out
}

/// Renders `/flightz`: recorder status header plus the crash ring's
/// most recent wide events, oldest first, as JSONL.
fn render_flightz(_shared: &Shared) -> String {
    let mut out = format!(
        "flight recorder: armed={} recorded={} dropped={} ring={}\n",
        detdiv_flight::armed(),
        detdiv_flight::recorded(),
        detdiv_flight::dropped(),
        detdiv_flight::blackbox::len(),
    );
    let tail = detdiv_flight::blackbox::tail(detdiv_flight::blackbox::BLACKBOX_CAPACITY);
    if tail.is_empty() {
        out.push_str("(no wide events recorded yet)\n");
    } else {
        for line in tail {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn render_profile(_shared: &Shared) -> String {
    let profile = detdiv_obs::snapshot().profile;
    let mut out = String::from("detdiv self-profile (live)\n");
    if profile.is_empty() {
        out.push_str("(no spans recorded yet)\n");
    } else {
        out.push_str(&profile.render_text(40));
    }
    out
}

fn respond(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

// ---------------------------------------------------------------------
// Minimal HTTP client (used by tests and the `scopecheck` checker)
// ---------------------------------------------------------------------

/// Performs one `GET` against a detdiv exposition server and returns
/// `(status, body)`.
///
/// # Errors
///
/// Connection, I/O, or response-parsing failures as readable messages.
pub fn http_get(addr: &SocketAddr, path: &str, timeout: Duration) -> Result<(u16, String), String> {
    http_get_typed(addr, path, timeout).map(|(status, _, body)| (status, body))
}

/// [`http_get`], also returning the response's `Content-Type` (empty
/// when the response has none): `(status, content_type, body)`.
///
/// # Errors
///
/// Connection, I/O, or response-parsing failures as readable messages.
pub fn http_get_typed(
    addr: &SocketAddr,
    path: &str,
    timeout: Duration,
) -> Result<(u16, String, String), String> {
    let mut stream =
        TcpStream::connect_timeout(addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send request to {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read response from {addr}: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in response from {addr}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .unwrap_or((raw.as_str(), ""));
    let content_type = head
        .lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-type"))
        .map(|(_, value)| value.trim().to_owned())
        .unwrap_or_default();
    Ok((status, content_type, body.to_owned()))
}

/// Splits a scrape URL (`http://127.0.0.1:9184/metrics` or bare
/// `127.0.0.1:9184`) into its socket address and path (`/metrics`
/// when absent).
///
/// # Errors
///
/// A diagnostic when the host:port part does not resolve.
pub fn parse_scrape_url(url: &str) -> Result<(SocketAddr, String), String> {
    use std::net::ToSocketAddrs;
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].to_owned()),
        None => (rest, "/metrics".to_owned()),
    };
    let addr = host
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {host}: {e}"))?
        .next()
        .ok_or_else(|| format!("{host} resolves to no address"))?;
    Ok((addr, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_rejects_taken_and_invalid_addresses() {
        let first = bind("127.0.0.1:0").expect("ephemeral bind works");
        let taken = first.local_addr().to_string();
        let err = bind(&taken).expect_err("double bind fails");
        assert!(
            err.contains("cannot bind"),
            "diagnostic names the failure: {err}"
        );
        assert!(err.contains(&taken), "diagnostic names the address: {err}");
        assert!(bind("not-an-address").is_err());
    }

    #[test]
    fn parse_scrape_url_accepts_all_supported_shapes() {
        let (addr, path) = parse_scrape_url("http://127.0.0.1:9184/metrics").unwrap();
        assert_eq!(addr.port(), 9184);
        assert_eq!(path, "/metrics");
        let (_, path) = parse_scrape_url("127.0.0.1:9184").unwrap();
        assert_eq!(path, "/metrics");
        let (_, path) = parse_scrape_url("127.0.0.1:9184/healthz").unwrap();
        assert_eq!(path, "/healthz");
        assert!(parse_scrape_url("http:///nope").is_err());
    }

    #[test]
    fn responses_carry_status_and_content_length() {
        let r = respond(200, "text/plain", "body\n");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 5\r\n"));
        assert!(r.ends_with("body\n"));
        assert!(respond(404, "text/plain", "x").contains("Not Found"));
    }
}
