//! End-to-end tests of the exposition server: routes, error paths,
//! sampler wiring into snapshots, and the shutdown dump.
//!
//! `Scope::start` installs the process-global obs timeseries source,
//! so tests that construct a `Scope` serialize on one mutex.

use detdiv_obs as obs;
use detdiv_scope::{expo, sampler, server, SamplerConfig, Scope, ScopeConfig};
use std::io::{Read as _, Write as _};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SCOPE_LOCK: Mutex<()> = Mutex::new(());

fn fast_config() -> ScopeConfig {
    ScopeConfig {
        sampler: SamplerConfig {
            interval: Duration::from_millis(10),
            ..SamplerConfig::default()
        },
        dump_path: None,
    }
}

#[test]
fn all_routes_answer_with_their_content_types() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::incr_counter("srvtest/requests", 3);
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let timeout = Duration::from_secs(2);

    let (status, metrics) = server::http_get(&addr, "/metrics", timeout).unwrap();
    assert_eq!(status, 200);
    let parsed = expo::validate(&metrics).expect("metrics page validates");
    assert!(parsed.value_u64("detdiv_srvtest_requests_total").unwrap() >= 3);
    assert!(parsed.value_of("scope_uptime_seconds").is_some());
    assert!(parsed.value_of("scope_telemetry_enabled").is_some());

    let (status, health) = server::http_get(&addr, "/healthz", timeout).unwrap();
    assert_eq!(status, 200);
    let value = serde_json::from_str_value(&health).expect("healthz is JSON");
    assert_eq!(
        value.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "healthz reports ok: {health}"
    );
    assert!(value.get("uptime_seconds").is_some());
    assert!(value.get("scrapes_total").is_some());

    let (status, snapshot) = server::http_get(&addr, "/snapshot.json", timeout).unwrap();
    assert_eq!(status, 200);
    let snap: obs::TelemetrySnapshot =
        serde_json::from_str(&snapshot).expect("snapshot.json deserializes");
    assert!(snap.counter("srvtest/requests") >= 3);

    let (status, profile) = server::http_get(&addr, "/profilez", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(profile.starts_with("detdiv self-profile"));

    let (status, _) = server::http_get(&addr, "/nope", timeout).unwrap();
    assert_eq!(status, 404);
    // Query strings are ignored for routing.
    let (status, _) = server::http_get(&addr, "/metrics?format=raw", timeout).unwrap();
    assert_eq!(status, 200);

    scope.shutdown().expect("clean shutdown");
}

#[test]
fn non_get_methods_are_rejected() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let mut stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
    stream
        .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 405"),
        "POST rejected: {response}"
    );
    scope.shutdown().unwrap();
}

#[test]
fn sampler_feeds_rates_and_snapshot_timeseries_while_armed() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();

    // Generate load the sampler can see across several ticks.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut sampled = false;
    while Instant::now() < deadline {
        obs::incr_counter("detector/srvtest/windows_scored", 500);
        std::thread::sleep(Duration::from_millis(15));
        if scope.sampler_state().ticks() >= 4 {
            sampled = true;
            break;
        }
    }
    assert!(sampled, "sampler ticked while load ran");

    // While armed, snapshots embed the sampled series.
    let snap = obs::snapshot();
    assert!(
        !snap.timeseries.is_empty(),
        "armed scope feeds the snapshot timeseries section"
    );
    assert!(
        snap.timeseries
            .iter()
            .any(|s| s.name == sampler::EVENTS_SERIES),
        "aggregate events series present"
    );
    let series = snap
        .timeseries
        .iter()
        .find(|s| s.name == "detector/srvtest/windows_scored")
        .expect("sampled detector counter present");
    assert!(!series.samples.is_empty());
    assert_eq!(series.interval_ms, 10);

    // And /metrics carries the rate gauges.
    let (_, metrics) = server::http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
    let parsed = expo::validate(&metrics).unwrap();
    assert!(parsed.value_of("detdiv_events_per_sec").is_some());
    assert!(
        metrics.contains("detdiv_rate_per_sec{series=\"detector/srvtest/windows_scored\"}"),
        "per-series rate gauge exposed"
    );

    scope.shutdown().expect("clean shutdown");
    // Disarmed: the timeseries section is empty again.
    assert!(
        obs::snapshot().timeseries.is_empty(),
        "shutdown uninstalls the snapshot source"
    );
}

#[test]
fn shutdown_dump_persists_sampled_series_as_json() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("detdiv-scope-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("timeseries.json");
    let config = ScopeConfig {
        dump_path: Some(path.to_string_lossy().into_owned()),
        ..fast_config()
    };
    let scope = Scope::start("127.0.0.1:0", config).expect("scope starts");
    obs::incr_counter("detector/dumptest/windows_scored", 7);
    let deadline = Instant::now() + Duration::from_secs(5);
    while scope.sampler_state().ticks() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    scope.shutdown().expect("shutdown writes the dump");
    let raw = std::fs::read_to_string(&path).expect("dump file exists");
    let series: Vec<obs::SeriesSummary> =
        serde_json::from_str(&raw).expect("dump deserializes as series list");
    assert!(
        series.iter().any(|s| s.name == sampler::EVENTS_SERIES),
        "dump includes the aggregate series"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flight_routes_serve_registry_and_recorder_views() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let timeout = Duration::from_secs(2);

    // Serving enables the flight stream registry.
    assert!(detdiv_flight::streams::enabled());
    let hash = 0x5eed_5eed_5eed_5eedu64;
    let stats = detdiv_flight::streams::handle(hash).expect("registry admits streams");
    detdiv_flight::streams::label(hash, "login-node");
    stats.on_event(0);
    stats.on_emit(2.5); // >= ALARM_SCORE: counts as an alarm

    let (status, body) = server::http_get(&addr, "/streams", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"label\":\"login-node\""), "labeled: {body}");
    assert!(body.contains("\"alarms\":1"), "alarm counted: {body}");
    assert!(body.contains(&format!("\"hash\":\"{hash:016x}\"")));
    assert!(body.contains("\"degraded_streams\": 0"));

    let (status, body) = server::http_get(&addr, "/flightz", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(
        body.starts_with("flight recorder: armed="),
        "status header: {body}"
    );

    // /healthz reports the armed-subsystem block; "serve" is on while
    // this scope runs.
    let (status, health) = server::http_get(&addr, "/healthz", timeout).unwrap();
    assert_eq!(status, 200);
    let value = serde_json::from_str_value(&health).expect("healthz is JSON");
    let subsystems = value.get("subsystems").expect("subsystems block present");
    assert_eq!(
        subsystems.get("serve"),
        Some(&serde_json::Value::Bool(true)),
        "serve armed while scope runs: {health}"
    );
    assert!(value.get("degraded_streams").is_some());

    scope.shutdown().expect("clean shutdown");
    detdiv_flight::streams::reset();
}

#[test]
fn not_found_hint_lists_every_endpoint() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let (status, body) = server::http_get(&addr, "/nope", Duration::from_secs(2)).unwrap();
    assert_eq!(status, 404);
    assert!(
        body.contains("no route for /nope"),
        "names the miss: {body}"
    );
    for path in [
        "/metrics",
        "/healthz",
        "/snapshot.json",
        "/profilez",
        "/streams",
        "/flightz",
        "/servez",
        "/guardz",
    ] {
        assert!(body.contains(path), "404 hint lists {path}: {body}");
    }
    scope.shutdown().unwrap();
}

#[test]
fn servez_reports_the_registered_ingest_service() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let timeout = Duration::from_secs(2);

    // No service registered yet.
    let (status, body) = server::http_get(&addr, "/servez", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"registered\":false"), "{body}");

    // Register a live service, push some traffic, and scrape again.
    let service = detdiv_serve::IngestService::new(detdiv_serve::ServeConfig::new(2, 8), || {
        vec![Box::new(detdiv_stream::Ewma::new(0.2, 2)) as Box<dyn detdiv_stream::StreamDetector>]
    });
    service.register_introspection();
    for i in 0..8u64 {
        service
            .enqueue(detdiv_stream::SignalContext::new(
                i,
                detdiv_stream::hash_stream_id("scoped"),
                detdiv_sequence::Symbol::new(0),
                1.0,
            ))
            .unwrap();
    }
    service.drain(&detdiv_serve::NullSink);
    let (status, body) = server::http_get(&addr, "/servez", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"registered\":true"), "{body}");
    assert!(body.contains("\"shards\":2"), "{body}");
    assert!(body.contains("\"processed\":8"), "{body}");

    // Dropping the service clears the registration.
    drop(service);
    let (_, body) = server::http_get(&addr, "/servez", timeout).unwrap();
    assert!(body.contains("\"registered\":false"), "{body}");
    scope.shutdown().unwrap();
}

#[test]
fn guardz_reports_the_registered_guard() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let timeout = Duration::from_secs(2);

    // No guarded service registered yet.
    let (status, body) = server::http_get(&addr, "/guardz", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"registered\":false"), "{body}");

    let service = detdiv_serve::IngestService::with_guard(
        detdiv_serve::ServeConfig::new(2, 8).gated(detdiv_serve::Tier1Config::default()),
        detdiv_guard::GuardConfig::default(),
        || {
            vec![Box::new(detdiv_stream::Ewma::new(0.2, 2))
                as Box<dyn detdiv_stream::StreamDetector>]
        },
    )
    .expect("guarded service builds");
    service.register_introspection();
    service.drain(&detdiv_serve::NullSink);
    let (status, body) = server::http_get(&addr, "/guardz", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"registered\":true"), "{body}");
    assert!(body.contains("\"level\":\"full\""), "{body}");

    // Dropping the service clears the registration.
    drop(service);
    let (_, body) = server::http_get(&addr, "/guardz", timeout).unwrap();
    assert!(body.contains("\"registered\":false"), "{body}");
    scope.shutdown().unwrap();
}

/// `/servez` and `/guardz` byte for byte: unregistered, then a
/// registered 2-shard guarded service with fixed counters and one
/// shard shedding, then unregistered again once the service drops.
#[test]
fn servez_and_guardz_bodies_are_pinned() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let get = |path: &str| {
        let (status, body) = server::http_get(&addr, path, Duration::from_secs(2)).unwrap();
        assert_eq!(status, 200, "{path}");
        body
    };
    const UNREGISTERED: &str = "{\"registered\":false}\n";
    assert_eq!(get("/servez"), UNREGISTERED);
    assert_eq!(get("/guardz"), UNREGISTERED);

    let service = detdiv_serve::IngestService::with_guard(
        detdiv_serve::ServeConfig::new(2, 8).gated(detdiv_serve::Tier1Config::default()),
        detdiv_guard::GuardConfig::default(),
        || {
            vec![Box::new(detdiv_stream::Ewma::new(0.2, 2))
                as Box<dyn detdiv_stream::StreamDetector>]
        },
    )
    .expect("guarded service builds");
    service.register_introspection();
    let set = |counter: &std::sync::atomic::AtomicU64, value: u64| {
        counter.store(value, std::sync::atomic::Ordering::Relaxed);
    };
    let stats = service.stats();
    for (i, shard) in stats.shards.iter().enumerate() {
        let base = 100 * (i as u64 + 1);
        set(&shard.depth, base + 1);
        set(&shard.streams, base + 2);
        set(&shard.enqueued, base + 3);
        set(&shard.rejected, base + 4);
        set(&shard.processed, base + 5);
        set(&shard.emitted, base + 6);
        set(&shard.escalated, base + 7);
        set(&shard.degraded, base + 8);
        set(&shard.deferred, base + 9);
    }
    set(&stats.snapshots, 3);
    set(&stats.recovered_streams, 2);
    let guard = service.guard_stats().expect("guarded service");
    for (i, shard) in guard.shards.iter().enumerate() {
        let base = 1000 * (i as u64 + 1);
        set(&shard.breaker_state, i as u64);
        set(&shard.resident_bytes, base + 1);
        set(&shard.shed, base + 2);
        set(&shard.ladder_transitions, base + 3);
        set(&shard.breaker_opens, base + 4);
        set(&shard.hibernated, base + 5);
        set(&shard.rehydrated, base + 6);
    }
    set(
        &guard.shards[1].level,
        detdiv_guard::DegradationLevel::Shedding.index(),
    );
    set(&guard.resident_peak, 4096);

    assert_eq!(
        get("/servez"),
        concat!(
            r#"{"registered":true,"shards":2,"totals":{"depth":302,"streams":304,"enqueued":306,"rejected":308,"processed":310,"emitted":312,"escalated":314,"degraded":316,"deferred":318},"snapshots":3,"recovered_streams":2,"per_shard":[{"shard":0,"depth":101,"streams":102,"enqueued":103,"rejected":104,"processed":105,"emitted":106,"escalated":107,"degraded":108,"deferred":109},{"shard":1,"depth":201,"streams":202,"enqueued":203,"rejected":204,"processed":205,"emitted":206,"escalated":207,"degraded":208,"deferred":209}]}"#,
            "\n"
        )
    );
    assert_eq!(
        get("/guardz"),
        concat!(
            r#"{"registered":true,"shards":2,"totals":{"resident_bytes":3002,"resident_peak":4096,"shed":3004,"ladder_transitions":3006,"breaker_opens":3008,"hibernated":3010,"rehydrated":3012},"per_shard":[{"shard":0,"level":"full","breaker":0,"resident_bytes":1001,"shed":1002,"ladder_transitions":1003,"breaker_opens":1004,"hibernated":1005,"rehydrated":1006},{"shard":1,"level":"shedding","breaker":1,"resident_bytes":2001,"shed":2002,"ladder_transitions":2003,"breaker_opens":2004,"hibernated":2005,"rehydrated":2006}]}"#,
            "\n"
        )
    );

    drop(service);
    assert_eq!(get("/servez"), UNREGISTERED);
    assert_eq!(get("/guardz"), UNREGISTERED);
    scope.shutdown().unwrap();
}

#[test]
fn oversized_request_heads_answer_400() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let mut stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
    // A single request line far past MAX_REQUEST_BYTES, never
    // terminated by a blank line.
    let huge = format!("GET /{} HTTP/1.1\r\n", "x".repeat(10 * 1024));
    stream.write_all(huge.as_bytes()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "oversized head rejected: {response}"
    );
    scope.shutdown().unwrap();
}

#[test]
fn unknown_methods_are_rejected_with_405() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    let mut stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
    stream
        .write_all(b"BREW /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 405"),
        "unknown method rejected: {response}"
    );
    scope.shutdown().unwrap();
}

#[test]
fn slowloris_connections_time_out_without_wedging_the_server() {
    let _guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scope = Scope::start("127.0.0.1:0", fast_config()).expect("scope starts");
    let addr = scope.local_addr();
    // Trickle a few bytes and stall: the server's read timeout must
    // end the connection rather than block the accept loop forever.
    let mut stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
    stream.write_all(b"GET /hea").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response); // server closes after IO_TIMEOUT
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "stalled connection released within the I/O timeout"
    );
    // The accept loop survived: a well-formed request still answers.
    let (status, _) = server::http_get(&addr, "/healthz", Duration::from_secs(2)).unwrap();
    assert_eq!(status, 200);
    scope.shutdown().unwrap();
}
