//! The serve path: per-event verdicts from a sharded `IngestService`.
//!
//! Set-up (repeated [`SETUPS`] times) synthesizes a seeded corpus,
//! trains the tier-2 bank — the paper's four families at DW 6 — from a
//! cold model cache, derives the stream table from the seed and builds
//! the service. A pass then offers every stream's events through a
//! fresh service; only the calls into `enqueue` and `drain` are timed,
//! and the events of each batch are materialized before its timer
//! starts.
//!
//! * `serve-gated` is a closed loop: one producer enqueues one
//!   generation (one event per stream) per batch, drains on `QueueFull`
//!   and retries, and drains at the end of each batch.
//! * `serve-overload` is an open loop in drain-cycle time through a
//!   guarded service: paced waves (a quarter of queue capacity per
//!   drain) alternate with bursts (two full queue generations per
//!   drain); a rejected event is dropped and counted, never retried;
//!   after each burst and at the end, drains run until every ladder is
//!   back at `Full`.
//!
//! Latency is timed by the benchmark: from just before the first
//! `enqueue` of a sampled event to the arrival of its first verdict at
//! the benchmark's sink.

use std::collections::HashMap;
use std::error::Error;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use detdiv_core::TrainedModel;
use detdiv_eval::{trained_model, DetectorKind};
use detdiv_guard::{DegradationLevel, GuardConfig, HibernationStore};
use detdiv_sequence::Symbol;
use detdiv_serve::{
    DrainSummary, IngestService, RejectReason, ServeConfig, Tier, Tier1Config, VerdictEvent,
    VerdictSink,
};
use detdiv_stream::{Ewma, ModelAdapter, SignalContext, StreamDetector, StreamEngine};
use detdiv_synth::{Corpus, SynthesisConfig};

use crate::alloc::LiveBytes;
use crate::grid::label;
use crate::host::Reference;
use crate::report::{
    beyond, cpu_ns, cpu_since, json_list, json_num, median, peak_rss_mb, percentile, timed, Budget,
};
use crate::spans::Tracer;
use crate::{per_layer_metrics, scratch_dir, Args, Outcome, Shape, SETUPS};

/// Resident detector-state budget of `serve-overload`, bytes.
pub const GUARD_BUDGET: u64 = 256 * 1024;
/// One stream in this many carries a planted spike.
const SPIKE_PERIOD: u64 = 257;
/// Window of the tier-2 bank's detectors.
const BANK_WINDOW: usize = 6;
/// The tier-1 gate: EWMA warmup 2, so the spike at seq 2 is the first
/// event that can escalate.
const TIER1: Tier1Config = Tier1Config {
    alpha: 0.3,
    warmup: 2,
    escalate_score: 0.5,
};
/// Passes a run makes at least, whatever its budget.
const MIN_PASSES: usize = 3;
/// Host-speed reference samples taken after each set-up.
const REFERENCE_PER_SETUP: usize = 3;
/// Every this-many-th stream is replayed through the stream layer.
const REPLAY_EVERY: usize = 64;
/// Hibernation records the spill/recall replay writes and reads back.
const REPLAY_RECORDS: usize = 4096;

struct ServeShape {
    streams: usize,
    events_per_stream: u64,
    shards: usize,
    queue_cap: usize,
    budget: u64,
    corpus: SynthesisConfig,
}

/// The tier-2 bank is a fixed asset of the deployment: its corpus keeps
/// the synthesizer's default seed, so set-up does the same training work
/// at every seed (the NN's training set is the corpus's distinct
/// contexts, whose number varies with the corpus). The run's seed drives
/// the traffic: stream ids, spike placement and symbol offsets.
fn shape(args: &Args, overload: bool) -> Result<ServeShape, Box<dyn Error>> {
    let corpus = SynthesisConfig::builder();
    Ok(match args.shape {
        Shape::Full => ServeShape {
            streams: 20_000,
            events_per_stream: if overload { 40 } else { 100 },
            shards: 16,
            queue_cap: 1024,
            budget: GUARD_BUDGET,
            corpus: corpus
                .training_len(20_000)
                .anomaly_sizes(2..=6)
                .windows(2..=8)
                .build()?,
        },
        Shape::Tiny => ServeShape {
            streams: 600,
            events_per_stream: 12,
            shards: 4,
            queue_cap: 64,
            budget: 8 * 1024,
            corpus: corpus
                .training_len(10_000)
                .anomaly_sizes(2..=3)
                .windows(2..=4)
                .background_len(512)
                .build()?,
        },
    })
}

/// splitmix64.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Whether the event (`stream hash`, `seq`) is a latency sample: about
/// one event in 128 past the gate's warmup, chosen by hash so producer
/// and sink agree.
fn sampled(hash: u64, seq: u64) -> bool {
    seq >= TIER1.warmup as u64 && mix(hash ^ seq.rotate_left(32)) >> 57 == 0
}

/// A latency timestamp on both clocks: thread CPU nanoseconds (the
/// reported latency, free of hypervisor steal) and the wall clock.
type Stamp = (u64, Instant);

fn stamp() -> Stamp {
    (cpu_ns(), Instant::now())
}

/// The seeded stream table every pass draws its events from.
struct Streams {
    ids: Vec<u64>,
    spiky: Vec<bool>,
    symbols: Vec<Symbol>,
    planted: u64,
}

impl Streams {
    fn new(seed: u64, n: usize, training: &[Symbol]) -> Streams {
        let ids: Vec<u64> = (0..n as u64)
            .map(|i| mix(seed ^ mix(i.wrapping_mul(0x1000_0000_01b3))))
            .collect();
        let spiky: Vec<bool> = (0..n as u64)
            .map(|i| i.wrapping_add(seed).is_multiple_of(SPIKE_PERIOD))
            .collect();
        Streams {
            planted: spiky.iter().filter(|&&s| s).count() as u64,
            ids,
            spiky,
            symbols: training.to_vec(),
        }
    }

    /// Stream `i`'s event `seq`. Quiet values are constant per stream,
    /// so the gate's deviation is zero and only the planted spike (at
    /// seq 2) escalates; symbols walk the training stream, so tier 2
    /// sees normal sequences.
    fn event(&self, i: usize, seq: u64) -> SignalContext {
        let id = self.ids[i];
        let symbol = self.symbols[(id.wrapping_add(seq) % self.symbols.len() as u64) as usize];
        let value = if self.spiky[i] && seq == 2 {
            1000.0
        } else {
            1.0 + (id % 8) as f64 * 0.125
        };
        SignalContext::new(seq, id, symbol, value)
    }
}

/// The benchmark's verdict sink: a per-shard digest of every verdict
/// and the arrival time of sampled events' verdicts.
struct Sink {
    digests: Vec<AtomicU64>,
    arrivals: Mutex<Vec<(u64, u64, Stamp)>>,
    log: bool,
}

impl Sink {
    fn new(shards: usize, log: bool) -> Sink {
        Sink {
            digests: (0..shards)
                .map(|_| AtomicU64::new(0xcbf2_9ce4_8422_2325))
                .collect(),
            arrivals: Mutex::new(Vec::new()),
            log,
        }
    }

    /// The per-shard digests folded in shard order.
    fn digest(&self) -> u64 {
        self.digests
            .iter()
            .fold(0, |h, d| mix(h ^ d.load(Ordering::Relaxed)))
    }
}

impl VerdictSink for Sink {
    fn on_verdict(&self, event: &VerdictEvent) {
        // Each shard is drained by one worker at a time, so the
        // load-fold-store on its digest never races.
        let digest = &self.digests[event.shard];
        let mut h = digest.load(Ordering::Relaxed);
        let slot = event.slot as u64 | u64::from(event.tier == Tier::Model) << 32;
        for word in [
            event.stream_hash,
            event.seq,
            slot,
            event.result.score.to_bits(),
        ] {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        digest.store(h, Ordering::Relaxed);
        if self.log && sampled(event.stream_hash, event.seq) {
            let now = stamp();
            self.arrivals
                .lock()
                .expect("sink log poisoned by a panicking drain")
                .push((event.stream_hash, event.seq, now));
        }
    }
}

/// What one pass did and measured.
#[derive(Debug, Default)]
struct Pass {
    /// On-CPU seconds spent inside `enqueue` and `drain`.
    timed_s: f64,
    /// The same span of calls on the wall clock.
    wall_s: f64,
    offered: u64,
    enqueues: u64,
    /// `QueueFull` rejections (retried on serve-gated, dropped on
    /// serve-overload).
    queue_full: u64,
    /// `Shedding` rejections (serve-overload only).
    shed: u64,
    recovery_cycles: u64,
    summary: DrainSummary,
    drains: u64,
    drain_s: Vec<f64>,
    enqueue_ns: u64,
    /// p50 and p99 enqueue-to-verdict latency, thread CPU clock.
    latency_us: [f64; 2],
    /// The same on the wall clock.
    wall_latency_us: [f64; 2],
    samples: usize,
    beyond_p99: usize,
    unmatched: usize,
    digest: u64,
    streams: usize,
    pending: usize,
    all_full: bool,
    resident_peak: u64,
    hibernated: u64,
    rehydrated: u64,
    ladder_transitions: u64,
    segment_bytes: u64,
}

impl Pass {
    fn events_per_s(&self) -> f64 {
        self.summary.processed as f64 / self.timed_s
    }

    fn enqueue_ns_mean(&self) -> f64 {
        self.enqueue_ns as f64 / self.enqueues.max(1) as f64
    }
}

/// The producer: drives one service through one pass. With a tracer,
/// every `enqueue` is timed on its own and every batch and `drain` gets
/// a span.
struct Producer<'a> {
    service: &'a IngestService,
    sink: &'a Sink,
    tracer: Option<&'a mut Tracer>,
    host: Option<&'a mut Reference>,
    enqueued_at: Vec<(u64, u64, Stamp)>,
    pass: Pass,
}

impl Producer<'_> {
    fn offer(&mut self, ctx: SignalContext) -> Result<(), RejectReason> {
        self.pass.enqueues += 1;
        if self.tracer.is_some() {
            let started = Instant::now();
            let result = self.service.enqueue(ctx);
            self.pass.enqueue_ns += started.elapsed().as_nanos() as u64;
            result
        } else {
            self.service.enqueue(ctx)
        }
    }

    /// Notes the enqueue time of a sampled event (before its first
    /// attempt, so a retry's wait counts).
    fn stamp(&mut self, ctx: &SignalContext) {
        if self.sink.log && sampled(ctx.stream_id_hash, ctx.seq) {
            self.enqueued_at
                .push((ctx.stream_id_hash, ctx.seq, stamp()));
        }
    }

    fn drain(&mut self) {
        let (cpu, started) = (cpu_ns(), Instant::now());
        let s = self.service.drain(self.sink);
        let (seconds, ended) = (cpu_since(cpu), Instant::now());
        self.pass.drains += 1;
        let sum = &mut self.pass.summary;
        sum.processed += s.processed;
        sum.emitted += s.emitted;
        sum.escalated += s.escalated;
        sum.degraded += s.degraded;
        sum.deferred_shards += s.deferred_shards;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(
                "serve.drain",
                started,
                ended,
                &[("processed", s.processed), ("emitted", s.emitted)],
            );
            self.pass.drain_s.push(seconds);
        }
    }

    /// Offers `batch` and drains, timing the calls; `open` drops
    /// rejected events (counting them), otherwise a rejection drains
    /// and retries.
    fn batch(&mut self, batch: &[SignalContext], open: bool) {
        let span = self.tracer.as_deref_mut().map(|t| t.begin("serve.batch"));
        let (enqueues, enqueue_ns) = (self.pass.enqueues, self.pass.enqueue_ns);
        let (cpu, wall) = (cpu_ns(), Instant::now());
        for &ctx in batch {
            self.stamp(&ctx);
            self.pass.offered += 1;
            loop {
                match self.offer(ctx) {
                    Ok(()) => break,
                    Err(RejectReason::Shedding { .. }) => self.pass.shed += 1,
                    Err(RejectReason::QueueFull { .. }) => self.pass.queue_full += 1,
                }
                if open {
                    break;
                }
                self.drain();
            }
        }
        self.drain();
        let seconds = cpu_since(cpu);
        self.pass.timed_s += seconds;
        self.pass.wall_s += wall.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), span) {
            t.end(
                id,
                &[
                    ("enqueues", self.pass.enqueues - enqueues),
                    ("enqueue_ns", self.pass.enqueue_ns - enqueue_ns),
                ],
            );
        }
        self.pace(seconds);
    }

    /// Paces the host-speed reference by `seconds` of timed work, while
    /// no event waits for a verdict (a sample then lengthens no
    /// latency).
    fn pace(&mut self, seconds: f64) {
        if let Some(host) = self.host.as_deref_mut() {
            if self.service.pending() == 0 {
                host.pace(seconds);
            } else {
                host.owe(seconds);
            }
        }
    }

    /// Drains (timed) until every ladder is back at `Full` — and, with
    /// `empty`, every queue is empty — counting the cycles.
    fn recover(&mut self, empty: bool, limit: u64) -> Result<(), Box<dyn Error>> {
        let mut cycles = 0;
        loop {
            let full = self
                .service
                .guard_levels()
                .iter()
                .all(|l| *l == DegradationLevel::Full);
            if full && (!empty || self.service.pending() == 0) {
                return Ok(());
            }
            let (cpu, wall) = (cpu_ns(), Instant::now());
            self.drain();
            let seconds = cpu_since(cpu);
            self.pass.timed_s += seconds;
            self.pass.wall_s += wall.elapsed().as_secs_f64();
            self.pace(seconds);
            self.pass.recovery_cycles += 1;
            cycles += 1;
            if cycles > limit {
                return Err("the guard did not recover within its drain limit".into());
            }
        }
    }
}

/// Everything set-up produces.
struct Setup {
    streams: Streams,
    models: Vec<Arc<dyn TrainedModel>>,
    service: IngestService,
}

fn bank_factory(
    models: &[Arc<dyn TrainedModel>],
) -> impl Fn() -> Vec<Box<dyn StreamDetector>> + Send + Sync + 'static {
    let models = models.to_vec();
    move || {
        models
            .iter()
            .map(|m| Box::new(ModelAdapter::new(Arc::clone(m))) as Box<dyn StreamDetector>)
            .collect()
    }
}

fn build_service(
    shape: &ServeShape,
    overload: bool,
    models: &[Arc<dyn TrainedModel>],
    spill_dir: &Path,
) -> std::io::Result<IngestService> {
    let config = ServeConfig::new(shape.shards, shape.queue_cap).gated(TIER1);
    if overload {
        let guard = GuardConfig {
            budget_bytes: Some(shape.budget),
            spill_dir: Some(spill_dir.to_path_buf()),
            ..GuardConfig::default()
        };
        IngestService::with_guard(config, guard, bank_factory(models))
    } else {
        Ok(IngestService::new(config, bank_factory(models)))
    }
}

/// Runs one pass through `service`, offering every event once, and
/// paces `host` by the pass's timed work.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    service: &IngestService,
    shape: &ServeShape,
    streams: &Streams,
    overload: bool,
    log: bool,
    tracer: Option<&mut Tracer>,
    host: Option<&mut Reference>,
    batch: &mut Vec<SignalContext>,
) -> Result<Pass, Box<dyn Error>> {
    let sink = Sink::new(shape.shards, log);
    let mut d = Producer {
        service,
        sink: &sink,
        tracer,
        host,
        enqueued_at: Vec::new(),
        pass: Pass::default(),
    };
    let pass_span = d.tracer.as_deref_mut().map(|t| t.begin("serve.pass"));
    let n = shape.streams;
    if overload {
        let total = n as u64 * shape.events_per_stream;
        let capacity = (shape.shards * shape.queue_cap) as u64;
        let paced = [capacity / 4; 8];
        let burst = [2 * capacity; 2];
        let (mut k, mut wave) = (0u64, 0u64);
        while k < total {
            let bursting = wave % 2 == 1;
            for &round in if bursting { &burst[..] } else { &paced[..] } {
                let end = (k + round).min(total);
                batch.clear();
                batch
                    .extend((k..end).map(|k| streams.event((k % n as u64) as usize, k / n as u64)));
                d.batch(batch, true);
                k = end;
            }
            if bursting {
                d.recover(false, 64)?;
            }
            wave += 1;
        }
        d.recover(true, 4096)?;
    } else {
        for seq in 0..shape.events_per_stream {
            batch.clear();
            batch.extend((0..n).map(|i| streams.event(i, seq)));
            d.batch(batch, false);
        }
    }
    if let (Some(t), Some(id)) = (d.tracer.as_deref_mut(), pass_span) {
        t.end(id, &[("offered", d.pass.offered)]);
    }

    let mut pass = std::mem::take(&mut d.pass);
    let mut waiting: HashMap<(u64, u64), Stamp> = d
        .enqueued_at
        .drain(..)
        .map(|(h, s, t)| ((h, s), t))
        .collect();
    let (mut cpu_us, mut wall_us) = (Vec::new(), Vec::new());
    for (h, s, arrived) in sink
        .arrivals
        .lock()
        .expect("sink log poisoned by a panicking drain")
        .drain(..)
    {
        if let Some(sent) = waiting.remove(&(h, s)) {
            cpu_us.push((arrived.0 - sent.0) as f64 / 1000.0);
            wall_us.push((arrived.1 - sent.1).as_nanos() as f64 / 1000.0);
        }
    }
    cpu_us.sort_by(f64::total_cmp);
    wall_us.sort_by(f64::total_cmp);
    pass.latency_us = [percentile(&cpu_us, 50.0), percentile(&cpu_us, 99.0)];
    pass.wall_latency_us = [percentile(&wall_us, 50.0), percentile(&wall_us, 99.0)];
    pass.samples = cpu_us.len();
    pass.beyond_p99 = beyond(&cpu_us, 99.0);
    pass.unmatched = waiting.len();
    pass.digest = sink.digest();
    pass.streams = service.stream_count();
    pass.pending = service.pending();
    pass.all_full = service
        .guard_levels()
        .iter()
        .all(|l| *l == DegradationLevel::Full);
    if let Some(g) = service.guard_stats() {
        pass.resident_peak = g.resident_peak.load(Ordering::Relaxed);
        for s in &g.shards {
            pass.hibernated += s.hibernated.load(Ordering::Relaxed);
            pass.rehydrated += s.rehydrated.load(Ordering::Relaxed);
            pass.ladder_transitions += s.ladder_transitions.load(Ordering::Relaxed);
        }
    }
    Ok(pass)
}

/// Mean on-CPU nanoseconds per call of `f` over `items`.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = cpu_ns();
    for item in items {
        f(item);
    }
    (cpu_ns() - started) as f64 / items.len().max(1) as f64
}

pub fn run(args: &Args, overload: bool) -> Result<Outcome, Box<dyn Error>> {
    let shape = shape(args, overload)?;
    let mut out = Outcome::default();
    let mut tracer = args.trace.then(Tracer::new);
    let spill_dir = scratch_dir(args).join("spill");
    let cache = detdiv_cache::global();
    let bank = DetectorKind::paper_four();

    // Set-up, repeated: corpus, tier-2 training from a cold cache, the
    // stream table and the first pass's service.
    let (mut setup_s, mut synth_s) = (Vec::new(), Vec::new());
    let mut setup_host = Reference::new();
    let mut train_s: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
    let mut setup: Option<Setup> = None;
    let mut cache_after = cache.stats();
    for _ in 0..SETUPS {
        drop(setup.take());
        let started = cpu_ns();
        let (corpus, seconds) = match tracer.as_mut() {
            Some(t) => t.span("synth.corpus", &[], |_| Corpus::synthesize(&shape.corpus)),
            None => timed(|| Corpus::synthesize(&shape.corpus)),
        };
        let corpus = corpus?;
        synth_s.push(seconds);
        cache.clear();
        cache.reset_stats();
        let mut models = Vec::new();
        for (k, kind) in bank.iter().enumerate() {
            let train = || trained_model(corpus.training(), kind, BANK_WINDOW);
            let (model, seconds) = match tracer.as_mut() {
                Some(t) => t.span("detectors.train", &[("dw", BANK_WINDOW as u64)], |_| {
                    train()
                }),
                None => timed(train),
            };
            train_s[k].push(seconds);
            models.push(model);
        }
        cache_after = cache.stats();
        let streams = Streams::new(args.seed, shape.streams, corpus.training());
        let service = build_service(&shape, overload, &models, &spill_dir)?;
        setup_s.push(cpu_since(started));
        setup_host.take(REFERENCE_PER_SETUP);
        setup = Some(Setup {
            streams,
            models,
            service,
        });
    }
    let Setup {
        streams,
        models,
        service,
    } = setup.expect("SETUPS is at least 1");
    let mut ids = streams.ids.clone();
    ids.sort_unstable();
    ids.dedup();
    out.check(
        "stream ids distinct",
        ids.len() == shape.streams,
        format!("{} of {}", ids.len(), shape.streams),
    );

    // Passes, each through a fresh service (the first is set-up's).
    // The traced run spends 40 % of its budget untraced, then traces
    // passes until 75 %, then replays single layers.
    let budget = Budget::new();
    let untraced_until = if args.trace { 0.4 } else { 1.0 } * args.seconds;
    let mut batch = Vec::with_capacity(shape.streams.max(4 * shape.shards * shape.queue_cap));
    let mut service = Some(service);
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut units = Vec::new();
    let mut host = Reference::new();
    loop {
        let started = budget.elapsed();
        let svc = match service.take() {
            Some(s) => s,
            None => build_service(&shape, overload, &models, &spill_dir)?,
        };
        let tracing = args.trace && budget.elapsed() >= untraced_until;
        let pass = run_pass(
            &svc,
            &shape,
            &streams,
            overload,
            true,
            if tracing { tracer.as_mut() } else { None },
            Some(&mut host),
            &mut batch,
        )?;
        if tracing {
            let segments: u64 = std::fs::read_dir(&spill_dir)
                .map(|dir| {
                    dir.filter_map(|e| e.ok()?.metadata().ok())
                        .map(|m| m.len())
                        .sum()
                })
                .unwrap_or(0);
            traced.push(Pass {
                segment_bytes: segments,
                ..pass
            });
        } else {
            passes.push(pass);
        }
        drop(svc);
        units.push(budget.elapsed() - started);
        // The untraced part of a traced run ends when the budget says so.
        if tracing || !args.trace {
            let (done, until) = if tracing {
                (traced.len(), 0.75 * args.seconds)
            } else {
                (passes.len(), args.seconds)
            };
            if !budget.another(done, MIN_PASSES, median(&units), until) {
                break;
            }
        }
    }

    // Output checks over every pass.
    let all: Vec<&Pass> = passes.iter().chain(&traced).collect();
    let first = all[0];
    out.attempted = all.iter().map(|p| p.offered).sum();
    let lost: u64 = all
        .iter()
        .map(|p| p.offered - p.summary.processed - p.shed - if overload { p.queue_full } else { 0 })
        .sum();
    let degraded: u64 = all.iter().map(|p| p.summary.degraded).sum();
    out.failed += lost + degraded;
    out.check(
        "verdict digest identical across passes",
        all.iter().all(|p| p.digest == first.digest),
        format!("{:016x} over {} passes", first.digest, all.len()),
    );
    out.check(
        "no event lost or slot degraded",
        lost == 0 && degraded == 0 && all.iter().all(|p| p.pending == 0),
        format!("{lost} lost, {degraded} degraded"),
    );
    if overload {
        out.check(
            "offered == delivered + shed",
            all.iter()
                .all(|p| p.offered == p.summary.processed + p.shed + p.queue_full),
            format!(
                "{} = {} + {} + {}",
                first.offered, first.summary.processed, first.shed, first.queue_full
            ),
        );
        out.check(
            "shed counts identical across passes",
            all.iter()
                .all(|p| (p.shed, p.queue_full) == (first.shed, first.queue_full)),
            format!("{} guard, {} queue", first.shed, first.queue_full),
        );
        out.check(
            "resident peak within budget",
            all.iter().all(|p| p.resident_peak <= shape.budget),
            format!("{} <= {}", first.resident_peak, shape.budget),
        );
        out.check(
            "every ladder ends at Full",
            all.iter().all(|p| p.all_full),
            "",
        );
    } else {
        out.check(
            "escalations equal planted spikes",
            all.iter().all(|p| p.summary.escalated == streams.planted),
            format!("{} of {}", first.summary.escalated, streams.planted),
        );
        out.check(
            "every stream resident",
            all.iter().all(|p| p.streams == shape.streams),
            format!("{} of {}", first.streams, shape.streams),
        );
    }
    let times: Vec<f64> = passes.iter().map(|p| p.timed_s).collect();
    let shed_frac =
        (first.shed + if overload { first.queue_full } else { 0 }) as f64 / first.offered as f64;
    out.context("shed_frac", json_num(shed_frac));
    out.context("repeats", passes.len().to_string());
    out.context("repeat_s", json_list(&times));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    out.context("repeat_wall_s", json_list(&walls));
    out.context("digest", format!("\"{:016x}\"", first.digest));
    out.context("host_ref_setup", setup_host.to_json());
    out.context("host_ref", host.to_json());

    let mut metrics = if args.trace {
        per_layer_metrics()
    } else {
        Default::default()
    };
    let over = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = passes.iter().map(Pass::events_per_s).collect();
    if let Some(t) = tracer.as_mut() {
        layer_metrics(
            &mut metrics,
            t,
            &traced,
            &shape,
            &streams,
            &models,
            overload,
            &mut batch,
            &spill_dir,
        )?;
        metrics.set("synth.corpus_s", median(&synth_s), "s");
        for (k, kind) in bank.iter().enumerate() {
            metrics.set(
                format!("detectors.train_s.{}", label(kind)),
                median(&train_s[k]),
                "s",
            );
        }
        metrics.set("cache.misses", cache_after.misses as f64, "count");
        metrics.set("cache.hits", cache_after.hits as f64, "count");
        metrics.set(
            "cache.resident_bytes",
            cache_after.resident_bytes as f64,
            "bytes",
        );
        metrics.set(
            "guard.shed_frac",
            if overload { shed_frac } else { 0.0 },
            "ratio",
        );
        let traced_rates: Vec<f64> = traced.iter().map(Pass::events_per_s).collect();
        let traced_times: Vec<f64> = traced.iter().map(|p| p.timed_s).collect();
        let (sweep, untraced) = (median(&traced_times), median(&times));
        out.context("traced_repeats", traced.len().to_string());
        out.context(
            "trace_overhead",
            format!(
                "{{\"sweep_s\": {}, \"sweep_frac\": {}, \"events_per_s\": {}}}",
                json_num(sweep - untraced),
                json_num((sweep - untraced) / untraced),
                json_num(median(&traced_rates) - median(&rates))
            ),
        );
        crate::export_trace(args, t, &mut out)?;
    } else {
        let factor = host.factor();
        let measured = [
            ("setup_s", median(&setup_s), "s", setup_host.factor()),
            ("sweep_s", median(&times), "s", factor),
            ("events_per_s", median(&rates), "ev/s", factor),
            ("verdict_p50_us", over(&|p| p.latency_us[0]), "us", factor),
            ("verdict_p99_us", over(&|p| p.latency_us[1]), "us", factor),
        ];
        let unadjusted = crate::host::set_adjusted(&mut metrics, &measured);
        metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        out.context("unadjusted", unadjusted);
        out.context(
            "wall_latency_us",
            format!(
                "{{\"p50\": {}, \"p99\": {}}}",
                json_num(over(&|p| p.wall_latency_us[0])),
                json_num(over(&|p| p.wall_latency_us[1]))
            ),
        );
        out.context(
            "samples",
            format!(
                "{{\"setup_s\": {SETUPS}, \"passes\": {}, \"verdicts_per_pass_min\": {}, \
                 \"beyond_p99_per_pass_min\": {}, \"sampled_without_verdict_per_pass\": {}}}",
                passes.len(),
                passes.iter().map(|p| p.samples).min().unwrap_or(0),
                passes.iter().map(|p| p.beyond_p99).min().unwrap_or(0),
                first.unmatched,
            ),
        );
    }
    out.metrics = metrics;
    Ok(out)
}

/// The traced run's per-layer numbers: serve and guard from the traced
/// passes; service heap bytes from one pass under the counting
/// allocator; the stream layer and hibernation store replayed alone.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    metrics: &mut crate::report::Metrics,
    t: &mut Tracer,
    traced: &[Pass],
    shape: &ServeShape,
    streams: &Streams,
    models: &[Arc<dyn TrainedModel>],
    overload: bool,
    batch: &mut Vec<SignalContext>,
    spill_dir: &Path,
) -> Result<(), Box<dyn Error>> {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    metrics.set("serve.enqueue_ns", med(&Pass::enqueue_ns_mean), "ns");
    metrics.set("serve.enqueues", med(&|p| p.enqueues as f64), "count");
    metrics.set(
        "serve.rejected",
        med(&|p| (p.queue_full + p.shed) as f64),
        "count",
    );
    metrics.set("serve.drain_s", med(&|p| p.drain_s.iter().sum()), "s");
    metrics.set("serve.drains", med(&|p| p.drains as f64), "count");
    let mut drains: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.drain_s.iter().copied())
        .collect();
    drains.sort_by(f64::total_cmp);
    metrics.set("serve.drain_p99_us", percentile(&drains, 99.0) * 1e6, "us");
    metrics.set(
        "serve.processed",
        med(&|p| p.summary.processed as f64),
        "count",
    );
    metrics.set("serve.emitted", med(&|p| p.summary.emitted as f64), "count");
    metrics.set(
        "serve.escalated",
        med(&|p| p.summary.escalated as f64),
        "count",
    );
    metrics.set("serve.streams", med(&|p| p.streams as f64), "count");

    // Heap bytes one service holds after a full pass, per stream offered.
    let probe = LiveBytes::start();
    let service = build_service(shape, overload, models, spill_dir)?;
    let (pass, _) = t.span("serve.memory_pass", &[], |_| {
        run_pass(&service, shape, streams, overload, false, None, None, batch)
    });
    pass?;
    let bytes = probe.stop();
    drop(service);
    metrics.set(
        "serve.bytes_per_stream",
        bytes as f64 / shape.streams as f64,
        "bytes",
    );

    // The stream layer alone: sampled streams' events through a fresh
    // tier-1 gate per stream, then through a tier-2 engine with the bank.
    let replay: Vec<SignalContext> = (0..shape.streams)
        .step_by(REPLAY_EVERY)
        .flat_map(|i| (0..shape.events_per_stream).map(move |seq| (i, seq)))
        .map(|(i, seq)| streams.event(i, seq))
        .collect();
    let (gate_ns, _) = t.span("stream.gate", &[("events", replay.len() as u64)], |_| {
        let mut gate = Ewma::new(TIER1.alpha, TIER1.warmup);
        ns_per(&replay, |ctx| {
            if ctx.seq == 0 {
                gate = Ewma::new(TIER1.alpha, TIER1.warmup);
            }
            black_box(gate.update(ctx));
        })
    });
    let factory = bank_factory(models);
    let (tier2_ns, _) = t.span("stream.tier2", &[("events", replay.len() as u64)], |_| {
        let mut engine = StreamEngine::new(&factory);
        let mut out = Vec::new();
        ns_per(&replay, |ctx| {
            out.clear();
            engine.push(ctx, &mut out);
            black_box(&out);
        })
    });
    metrics.set("stream.gate_ns", gate_ns, "ns");
    metrics.set("stream.tier2_ns", tier2_ns, "ns");

    if overload {
        metrics.set("guard.shed", med(&|p| p.shed as f64), "count");
        metrics.set("guard.queue_shed", med(&|p| p.queue_full as f64), "count");
        metrics.set(
            "guard.recovery_cycles",
            med(&|p| p.recovery_cycles as f64),
            "count",
        );
        metrics.set(
            "guard.resident_peak_bytes",
            med(&|p| p.resident_peak as f64),
            "bytes",
        );
        metrics.set("guard.hibernated", med(&|p| p.hibernated as f64), "count");
        metrics.set("guard.rehydrated", med(&|p| p.rehydrated as f64), "count");
        metrics.set(
            "guard.ladder_transitions",
            med(&|p| p.ladder_transitions as f64),
            "count",
        );
        // The hibernation store alone, with the pass's mean record size.
        let last = traced.last().expect("at least one traced pass");
        let overhead = detdiv_resil::checksum_line("").len() as u64 + 1;
        let record = last.segment_bytes / last.hibernated.max(1);
        let payload = "s".repeat(record.saturating_sub(overhead).max(1) as usize);
        let hashes: Vec<u64> = (0..REPLAY_RECORDS as u64).map(mix).collect();
        let mut store = HibernationStore::create(spill_dir.join("replay.seg"))?;
        let (spill_ns, _) = t.span("guard.spill", &[("records", hashes.len() as u64)], |_| {
            ns_per(&hashes, |&h| {
                store
                    .spill(h, &payload)
                    .expect("spill to the replay segment");
            })
        });
        let (recall_ns, _) = t.span("guard.recall", &[("records", hashes.len() as u64)], |_| {
            ns_per(&hashes, |&h| {
                black_box(store.recall(h).expect("recall from the replay segment"));
            })
        });
        metrics.set("guard.spill_ns", spill_ns, "ns");
        metrics.set("guard.recall_ns", recall_ns, "ns");
    }
    Ok(())
}
