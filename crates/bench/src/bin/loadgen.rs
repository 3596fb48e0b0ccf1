//! Load generator for the sharded ingest service: drives millions of
//! distinct synthetic keyed streams through one [`IngestService`] in a
//! single process and prints what happened to every event — the
//! deterministic digest and accounting lines CI compares across worker
//! widths. It takes no timings; the serve path is measured by
//! `perfbench`.
//!
//! ```text
//! loadgen [--streams N] [--events-per-stream N] [--shards N]
//!         [--queue-cap N] [--threads N] [--overload]
//!         [--guard-bytes N] [--flight PATH] [--fault SPEC]
//!         [--snapshot PATH] [--resume PATH]
//! ```
//!
//! Events are synthesized deterministically (a splitmix64 mix of the
//! stream index seeds ids, symbols, and values), so two runs with the
//! same knobs ingest the identical event set. Every verdict folds into
//! a per-shard FNV-1a digest — per-shard drain order is deterministic
//! at every worker count, so the combined digest printed on stdout is
//! the cross-width determinism check CI diffs (`--fault` runs are
//! exempt: chaos changes which slots die, and with it the digest).
//!
//! The service runs in its deployment shape: a cheap EWMA gate fronts
//! every stream and roughly one stream in 257 carries a planted spike
//! that escalates it to the trained tier-2 bank. Only escalated
//! streams ever instantiate model state, which is what lets one
//! process hold millions of streams.
//!
//! `--snapshot` writes a crash-safe shard-state snapshot after the
//! run; `--resume` recovers one before ingesting (a discarded snapshot
//! is reported, never fatal) — together they exercise the recovery
//! path under load: run A snapshots, run B resumes and continues.
//!
//! `--overload` attaches the `detdiv-guard` overload protection and
//! switches the producer to an open-loop arrival pattern at twice the
//! service's drain capacity: between drains it offers two full queue
//! generations, so queues overflow, the degradation ladder climbs to
//! shedding, and rejected events are *dropped* (typed-counted, never
//! retried) instead of absorbed. After the offered load ends, a
//! recovery phase drains until every queue is empty and every ladder is
//! back at `Full`, counting the cycles that took. The run asserts the
//! no-silent-drop invariant `offered == delivered + shed` and that the
//! resident-bytes peak stayed within `--guard-bytes` (default 1 MiB,
//! env `DETDIV_GUARD_BYTES`); shed counts, recovery cycles, and the
//! verdict digest all land on stdout because the guard's decisions are
//! pure functions of observed counters — identical at every width.
//! `--guard-bytes` or `DETDIV_GUARD_BYTES` without `--overload` is an
//! argument error: no guard would read it.
//!
//! `--flight PATH` arms the flight recorder for the run and exports
//! the audit log — under `--overload` every guard transition (ladder,
//! breaker, hibernate/rehydrate) lands in the dump for
//! `flightcheck --guard`.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use detdiv_core::SequenceAnomalyDetector;
use detdiv_detectors::Stide;
use detdiv_guard::{BreakerConfig, DegradationLevel, GuardConfig};
use detdiv_resil::Fnv1a;
use detdiv_sequence::{symbols, StreamProfile, Symbol};
use detdiv_serve::{
    IngestService, RecoverOutcome, RejectReason, ServeConfig, Tier1Config, VerdictEvent,
    VerdictSink,
};
use detdiv_stream::{ModelAdapter, SignalContext, StreamDetector};

/// One spike stream per this many streams escalates to tier-2.
const SPIKE_PERIOD: u64 = 257;

struct Args {
    streams: u64,
    events_per_stream: u64,
    shards: usize,
    queue_cap: usize,
    threads: Option<usize>,
    overload: bool,
    guard_bytes: Option<u64>,
    flight: Option<String>,
    fault: Option<String>,
    snapshot: Option<String>,
    resume: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        streams: 1_000_000,
        events_per_stream: 6,
        shards: 64,
        queue_cap: 4096,
        threads: None,
        overload: false,
        guard_bytes: None,
        flight: None,
        fault: None,
        snapshot: None,
        resume: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--streams" => {
                args.streams = value("--streams")?
                    .parse()
                    .map_err(|e| format!("--streams: {e}"))?;
            }
            "--events-per-stream" => {
                args.events_per_stream = value("--events-per-stream")?
                    .parse()
                    .map_err(|e| format!("--events-per-stream: {e}"))?;
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--queue-cap" => {
                args.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads: must be at least 1".to_owned());
                }
                args.threads = Some(n);
            }
            "--overload" => args.overload = true,
            "--guard-bytes" => {
                let n: u64 = value("--guard-bytes")?
                    .parse()
                    .map_err(|e| format!("--guard-bytes: {e}"))?;
                if n == 0 {
                    return Err("--guard-bytes: must be at least 1".to_owned());
                }
                args.guard_bytes = Some(n);
            }
            "--flight" => args.flight = Some(value("--flight")?),
            "--fault" => args.fault = Some(value("--fault")?),
            "--snapshot" => args.snapshot = Some(value("--snapshot")?),
            "--resume" => args.resume = Some(value("--resume")?),
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--streams N] [--events-per-stream N] [--shards N]\n\
                     \x20       [--queue-cap N] [--threads N] [--overload]\n\
                     \x20       [--guard-bytes N] [--flight PATH] [--fault SPEC]\n\
                     \x20       [--snapshot PATH] [--resume PATH]\n\
                     Drives N synthetic keyed streams through a sharded ingest service and\n\
                     prints a deterministic verdict digest.\n\
                     --overload attaches the guard and offers load at 2x drain capacity,\n\
                     shedding (never silently dropping) the overflow."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        if args.streams == 0 || args.events_per_stream == 0 || args.shards == 0 {
            return Err("streams, events-per-stream, and shards must be positive".to_owned());
        }
    }
    let budget_set = args.guard_bytes.is_some() || GuardConfig::from_env().budget_bytes.is_some();
    if budget_set && !args.overload {
        return Err(
            "--guard-bytes (or DETDIV_GUARD_BYTES) needs --overload (no guard is attached without it)"
                .to_owned(),
        );
    }
    Ok(args)
}

/// splitmix64: the per-stream deterministic seed mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The synthetic event for stream index `i` at position `seq`.
///
/// Each stream holds a per-stream-constant quiet value (symbols still
/// vary per event for tier-2), so the gate's deviation is exactly zero
/// and quiet streams never escalate. Every [`SPIKE_PERIOD`]th stream
/// carries one planted spike (at the third event, so the gate is past
/// warmup and tier-2 still sees the tail): against zero variance any
/// deviation is an infinite z-score, so escalation is deterministic.
fn event(i: u64, seq: u64) -> SignalContext {
    let id = mix(i.wrapping_mul(0x1000_0000_01b3) ^ 0x5ee5_0bad_c0de);
    let bits = mix(id ^ seq);
    let symbol = Symbol::new((bits % 4) as u32 + 1);
    let spike = i.is_multiple_of(SPIKE_PERIOD) && seq == 2;
    let value = if spike {
        1000.0
    } else {
        1.0 + (id % 8) as f64 * 0.125
    };
    SignalContext::new(seq, id, symbol, value)
}

/// Per-shard FNV-1a verdict digests. Per-shard folding is what makes
/// the combined digest width-independent: one worker drains a shard at
/// a time, so each shard's verdict order is deterministic even when
/// shards interleave freely.
struct LoadSink {
    digests: Vec<Mutex<Fnv1a>>,
}

impl LoadSink {
    fn new(shards: usize) -> LoadSink {
        LoadSink {
            digests: (0..shards).map(|_| Mutex::new(Fnv1a::new())).collect(),
        }
    }

    /// Folds the per-shard digests, in shard order, into one value.
    fn combined(&self) -> u64 {
        let mut h = Fnv1a::new();
        for d in &self.digests {
            h.write(&d.lock().unwrap().finish().to_le_bytes());
        }
        h.finish()
    }
}

impl VerdictSink for LoadSink {
    fn on_verdict(&self, event: &VerdictEvent) {
        let mut digest = self.digests[event.shard].lock().unwrap();
        for word in [
            event.stream_hash,
            event.seq,
            event.slot as u64,
            event.result.score.to_bits(),
        ] {
            digest.write(&word.to_le_bytes());
        }
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(threads) = args.threads {
        detdiv_par::global().set_threads(Some(threads));
    }
    let threads = detdiv_par::global().threads();
    if let Some(spec) = &args.fault {
        detdiv_resil::arm(detdiv_resil::FaultPlan::parse(spec)?);
    }
    if let Some(path) = &args.flight {
        detdiv_flight::arm(path);
    }
    eprintln!(
        "loadgen: streams={} events/stream={} shards={} queue-cap={} threads={threads}{}{}",
        args.streams,
        args.events_per_stream,
        args.shards,
        args.queue_cap,
        if args.overload { " (overload)" } else { "" },
        if args.fault.is_some() {
            " (chaos armed)"
        } else {
            ""
        },
    );

    // The tier-2 bank: one trained sliding-window model per stream.
    // Training happens once, before ingest starts; escalated
    // streams share the model through the Arc and keep only their own
    // window state.
    let mut stide = Stide::new(3);
    let mut train = Vec::new();
    for _ in 0..64 {
        train.extend(symbols(&[1, 2, 3, 4, 2, 3, 1, 4]));
    }
    stide.train(&StreamProfile::new(&train));
    let model: Arc<dyn detdiv_core::TrainedModel> = Arc::new(stide);

    // Warmup 2 so short per-stream feeds still clear the gate, and the
    // planted spike at seq 2 is the first escalatable event.
    let config = ServeConfig::new(args.shards, args.queue_cap).gated(Tier1Config {
        alpha: 0.3,
        warmup: 2,
        escalate_score: 0.5,
    });
    let factory =
        move || vec![Box::new(ModelAdapter::new(Arc::clone(&model))) as Box<dyn StreamDetector>];
    // Overload runs attach the guard: resident-byte budget from
    // --guard-bytes (or DETDIV_GUARD_BYTES, default 1 MiB), hibernation
    // segments in DETDIV_GUARD_DIR or a per-process temp directory
    // (only the latter is removed on exit), and a hair-trigger breaker
    // so a single tier-2 failure (chaos runs) opens it.
    let env_guard = GuardConfig::from_env();
    let temp_spill = env_guard.spill_dir.is_none();
    let spill_dir = args.overload.then(|| {
        env_guard.spill_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("detdiv-loadgen-guard-{}", std::process::id()))
        })
    });
    let guard_budget = args
        .guard_bytes
        .or(env_guard.budget_bytes)
        .unwrap_or(1 << 20);
    let service = if args.overload {
        let guard_config = GuardConfig {
            budget_bytes: Some(guard_budget),
            spill_dir: spill_dir.clone(),
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_cycles: 2,
            },
        };
        IngestService::with_guard(config, guard_config, factory)?
    } else {
        IngestService::new(config, factory)
    };
    service.register_introspection();

    if let Some(path) = &args.resume {
        match service.recover(path) {
            RecoverOutcome::Recovered { streams, skipped } => {
                eprintln!("loadgen: resumed {streams} stream(s) from {path} ({skipped} skipped)");
            }
            RecoverOutcome::Discarded { reason } => {
                eprintln!("loadgen: snapshot {path} discarded ({reason}); cold start");
            }
        }
    }

    let sink = LoadSink::new(args.shards);
    let mut processed = 0u64;
    let mut emitted = 0u64;
    let mut escalated = 0u64;
    let mut degraded = 0u64;
    let mut rejections = 0u64;
    let mut offered = 0u64;
    let mut shed_guard = 0u64;
    let mut shed_queue = 0u64;
    let mut recovery_cycles = 0u64;
    if args.overload {
        // Open-loop overload in alternating waves. A *burst* wave
        // offers two full queue generations back to back with a single
        // drain between them: the first generation overfills every
        // queue (half of it drops on QueueFull), the drain sees 100%
        // fill and jumps the ladder to Shedding, and the second
        // generation is then shed by the guard at the door — arrival at
        // ~4x what the service delivers. Cool-down drains walk the
        // ladder back to Full, then a short *paced* wave (quarter-fill,
        // drained immediately) delivers traffic normally so gates warm
        // up, spike streams escalate, and tier-2 banks engage — which
        // is what gives the chaos variant a breaker to trip. Every
        // decision is a pure function of per-shard queue depths at
        // drain boundaries, and the single-threaded producer makes
        // those identical at every worker width, so shed counts and the
        // verdict digest are width-invariant.
        let total = args.streams * args.events_per_stream;
        let capacity = (args.shards * args.queue_cap) as u64;
        let offer = |k: u64,
                     service: &IngestService,
                     offered: &mut u64,
                     shed_guard: &mut u64,
                     shed_queue: &mut u64| {
            let (seq, i) = (k / args.streams, k % args.streams);
            *offered += 1;
            match service.enqueue(event(i, seq)) {
                Ok(()) => {}
                Err(RejectReason::Shedding { .. }) => *shed_guard += 1,
                Err(_) => *shed_queue += 1,
            }
        };
        let mut k = 0u64;
        let mut wave = 0u64;
        let paced_rounds = [capacity / 4; 8];
        let burst_rounds = [2 * capacity, 2 * capacity];
        while k < total {
            // Paced first: the early seqs (where the planted spikes
            // live) are delivered at Full so tier-2 actually engages
            // before the first burst slams the ladder shut.
            let burst = !wave.is_multiple_of(2);
            let rounds: &[u64] = if burst { &burst_rounds } else { &paced_rounds };
            for &round in rounds {
                let end = (k + round).min(total);
                while k < end {
                    offer(k, &service, &mut offered, &mut shed_guard, &mut shed_queue);
                    k += 1;
                }
                let summary = service.drain(&sink);
                processed += summary.processed;
                emitted += summary.emitted;
                escalated += summary.escalated;
                degraded += summary.degraded;
            }
            if burst {
                // Cool down: drain (offering nothing) until every
                // ladder is back at Full, so the next wave starts from
                // a healthy service. These cycles are the recovery-time
                // metric: how long the ladder takes to walk back down
                // once the overload stops.
                let mut cool = 0u32;
                while !service
                    .guard_levels()
                    .iter()
                    .all(|level| *level == DegradationLevel::Full)
                {
                    let summary = service.drain(&sink);
                    processed += summary.processed;
                    emitted += summary.emitted;
                    escalated += summary.escalated;
                    degraded += summary.degraded;
                    recovery_cycles += 1;
                    cool += 1;
                    if cool > 64 {
                        return Err("ladder failed to cool down after a burst".into());
                    }
                }
            }
            wave += 1;
        }
        // Recovery: the offered load has ended; drain until every queue
        // is empty and every ladder has cooled back to Full, counting
        // the cycles that takes (the recovery-time metric).
        loop {
            let recovered = service.pending() == 0
                && service
                    .guard_levels()
                    .iter()
                    .all(|level| *level == DegradationLevel::Full);
            if recovered {
                break;
            }
            let summary = service.drain(&sink);
            processed += summary.processed;
            emitted += summary.emitted;
            escalated += summary.escalated;
            degraded += summary.degraded;
            recovery_cycles += 1;
            if recovery_cycles > 4096 {
                return Err("overload recovery made no progress".into());
            }
        }
    } else {
        for seq in 0..args.events_per_stream {
            for i in 0..args.streams {
                let ctx = event(i, seq);
                while let Err(_reject) = service.enqueue(ctx) {
                    // Backpressure: the queue is full, so drain the service
                    // and retry — the producer absorbs the pushback instead
                    // of the service buffering without bound.
                    rejections += 1;
                    let summary = service.drain(&sink);
                    processed += summary.processed;
                    emitted += summary.emitted;
                    escalated += summary.escalated;
                    degraded += summary.degraded;
                }
            }
        }
        offered = args.streams * args.events_per_stream;
        // Final drains: under --fault a shard batch may defer, so spin
        // until every queue is empty (the fault plan's hit index advances,
        // so progress is guaranteed).
        let mut spins = 0u32;
        while service.pending() > 0 {
            let summary = service.drain(&sink);
            processed += summary.processed;
            emitted += summary.emitted;
            escalated += summary.escalated;
            degraded += summary.degraded;
            spins += 1;
            if spins > 4096 {
                return Err("drain made no progress".into());
            }
        }
    }
    if args.fault.is_some() {
        detdiv_resil::disarm();
    }

    // No silent drops: every offered event was either delivered through
    // detection or typed-counted as shed.
    let shed = shed_guard + shed_queue;
    if processed + shed != offered {
        return Err(format!(
            "accounting hole: offered {offered} != delivered {processed} + shed {shed}"
        )
        .into());
    }
    let resident_peak = service
        .guard_stats()
        .map(|stats| {
            stats
                .resident_peak
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .unwrap_or(0);
    if args.overload && resident_peak > guard_budget {
        return Err(format!(
            "resident bytes peaked at {resident_peak}, over the {guard_budget} budget"
        )
        .into());
    }

    if let Some(path) = &args.snapshot {
        let stats = service.snapshot(path)?;
        eprintln!(
            "loadgen: snapshot {} stream(s), {} bytes -> {path}",
            stats.streams, stats.bytes
        );
    }

    eprintln!(
        "loadgen: {processed} events over {} stream(s), {emitted} verdicts, \
         {escalated} escalated, {degraded} degraded, {rejections} backpressure rejections",
        service.stream_count(),
    );
    if args.overload {
        eprintln!(
            "loadgen: overload offered={offered} delivered={processed} shed={shed} \
             (guard {shed_guard}, queue {shed_queue}), recovered to Full in \
             {recovery_cycles} cycle(s), resident peak {resident_peak} bytes \
             (budget {guard_budget})"
        );
    }
    // stdout carries only the deterministic facts CI diffs across
    // worker counts. (resident peak is *not* printed here: per-shard
    // cycles overlap freely, so the instant the peak is sampled at
    // differs across widths.)
    if args.overload {
        println!(
            "loadgen: overload streams={} offered={offered} delivered={processed} \
             shed={shed} shed_guard={shed_guard} shed_queue={shed_queue} \
             recovery_cycles={recovery_cycles} digest={:016x}",
            args.streams,
            sink.combined()
        );
    } else {
        println!(
            "loadgen: streams={} events={processed} digest={:016x}",
            args.streams,
            sink.combined()
        );
    }

    if let Some(path) = &args.flight {
        detdiv_flight::disarm();
        match detdiv_flight::export(path) {
            Ok(records) => eprintln!("loadgen: exported {records} flight record(s) -> {path}"),
            Err(e) => return Err(format!("flight export to {path} failed: {e}").into()),
        }
    }

    if let Some(dir) = &spill_dir {
        drop(service);
        // Hibernation segments are scratch state; drop them with the
        // run — but never delete a user-chosen DETDIV_GUARD_DIR.
        if temp_spill {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: argument error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = detdiv_bench::preflight_env() {
        eprintln!("loadgen: environment error: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("DETDIV_LOG").is_none() {
        detdiv_obs::set_max_level(detdiv_obs::Level::Warn);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
