//! The batch path: cold-cache (AS × DW) coverage sweeps through
//! `detdiv_eval::coverage_maps_for`, the paper's unit of work.
//!
//! A run synthesizes the corpus [`GRID_SETUPS`] times (`setup_s`), then
//! repeats cold sweeps — the model cache cleared before each — for the
//! run's budget. One sweep in, it also scores every cell against the
//! trained models once per latency pass (`Corpus::case` +
//! `evaluate_case`), which gives the per-verdict latency of the batch
//! path. The traced run adds spans around each of these calls and
//! replays training per (family, DW) from a cold cache.

use std::error::Error;

use detdiv_core::{evaluate_case, CellStatus, CoverageMap, LabeledCase};
use detdiv_eval::{coverage_maps_for, expected_stide_map, trained_model, DetectorKind};
use detdiv_synth::{Corpus, SynthesisConfig};

use crate::host::Reference;
use crate::report::{
    beyond, cpu_ns, cpu_since, json_num, median, peak_rss_mb, percentile, timed, Budget,
};
use crate::spans::Tracer;
use crate::{per_layer_metrics, Args, Outcome, Shape};

/// Metric label of a detector family.
pub fn label(kind: &DetectorKind) -> &'static str {
    match kind {
        DetectorKind::Stide => "stide",
        DetectorKind::TStide => "tstide",
        DetectorKind::Markov => "markov",
        DetectorKind::LaneBrodley => "lane_brodley",
        DetectorKind::NeuralNetwork { .. } => "neural",
        other => other.name(),
    }
}

/// Set-ups a run makes; `setup_s` is their median. Synthesis takes
/// under 0.1 s, so a run affords more of them than the serve workloads'
/// [`crate::SETUPS`].
const GRID_SETUPS: usize = 15;
/// Sweeps a run makes at least, whatever its budget.
const MIN_SWEEPS: usize = 3;
/// Host-speed reference samples taken after each set-up.
const REFERENCE_PER_SETUP: usize = 3;
/// Sweeps each phase of the traced run makes at least.
const MIN_TRACED: usize = 2;

struct GridShape {
    config: SynthesisConfig,
    kinds: Vec<DetectorKind>,
    /// Scoring passes over every cell in the traced run.
    score_passes: usize,
}

/// The sweep: the four n-gram counting families over AS 2–9 × DW 2–15
/// of a 100,000-symbol corpus (the paper's grid; 56 models, 448 cells).
fn shape(args: &Args) -> Result<GridShape, Box<dyn Error>> {
    let synth = SynthesisConfig::builder().seed(args.seed);
    let (synth, score_passes) = match args.shape {
        Shape::Full => (
            synth
                .training_len(100_000)
                .anomaly_sizes(2..=9)
                .windows(2..=15),
            3,
        ),
        Shape::Tiny => (
            synth
                .training_len(10_000)
                .anomaly_sizes(2..=3)
                .windows(2..=4)
                .background_len(512),
            2,
        ),
    };
    Ok(GridShape {
        config: synth.build()?,
        kinds: vec![
            DetectorKind::Stide,
            DetectorKind::TStide,
            DetectorKind::Markov,
            DetectorKind::LaneBrodley,
        ],
        score_passes,
    })
}

/// One pass scoring every cell against the cached models: per-verdict
/// latencies (µs), per-family score time (s), the cells whose verdict
/// differs from the sweep's map, and a digest of every cell's verdict,
/// maximal response and its position.
struct ScorePass {
    latencies_us: Vec<f64>,
    per_kind_s: Vec<f64>,
    mismatches: usize,
    digest: u64,
}

fn score_pass(
    corpus: &Corpus,
    kinds: &[DetectorKind],
    maps: &[CoverageMap],
    mut tracer: Option<&mut Tracer>,
) -> Result<ScorePass, Box<dyn Error>> {
    let config = corpus.config();
    let mut pass = ScorePass {
        latencies_us: Vec::new(),
        per_kind_s: vec![0.0; kinds.len()],
        mismatches: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for (k, kind) in kinds.iter().enumerate() {
        for window in config.windows() {
            let model = trained_model(corpus.training(), kind, window);
            for anomaly_size in config.anomaly_sizes() {
                let score = || -> Result<_, Box<dyn Error>> {
                    let case = corpus.case(anomaly_size, window)?;
                    Ok(evaluate_case(model.as_ref(), &case)?)
                };
                let (outcome, seconds) = match tracer.as_deref_mut() {
                    Some(t) => t.span(
                        "core.score",
                        &[("as", anomaly_size as u64), ("dw", window as u64)],
                        |_| score(),
                    ),
                    None => timed(score),
                };
                let outcome = outcome?;
                let status = CellStatus::from(outcome.classification());
                if status != maps[k].get(anomaly_size, window)? {
                    pass.mismatches += 1;
                }
                for word in [
                    status as u64,
                    outcome.max_response().to_bits(),
                    outcome.max_position() as u64,
                ] {
                    pass.digest = (pass.digest ^ word).wrapping_mul(0x100_0000_01b3);
                }
                pass.latencies_us.push(seconds * 1e6);
                pass.per_kind_s[k] += seconds;
            }
        }
    }
    Ok(pass)
}

/// Runs cold sweeps and accumulates their checks.
struct Sweeper<'a> {
    corpus: &'a Corpus,
    kinds: &'a [DetectorKind],
    cells: u64,
    /// The first sweep's maps; every later sweep must equal them.
    reference: Option<Vec<CoverageMap>>,
    maps_agree: bool,
    misses_ok: bool,
    attempted: u64,
    failed_cells: u64,
    cache_after: detdiv_cache::CacheStats,
}

impl Sweeper<'_> {
    /// One cold-cache sweep; returns its on-CPU seconds.
    fn sweep(&mut self, tracer: Option<&mut Tracer>) -> Result<f64, Box<dyn Error>> {
        let cache = detdiv_cache::global();
        cache.clear();
        cache.reset_stats();
        let started = cpu_ns();
        let maps = match tracer {
            Some(t) => {
                t.span("eval.coverage_maps_for", &[("cells", self.cells)], |_| {
                    coverage_maps_for(self.corpus, self.kinds)
                })
                .0
            }
            None => coverage_maps_for(self.corpus, self.kinds),
        };
        let seconds = cpu_since(started);
        let maps = maps?;
        self.cache_after = cache.stats();
        let windows = self.corpus.config().windows().count();
        self.misses_ok &= self.cache_after.misses == (self.kinds.len() * windows) as u64;
        self.attempted += self.cells;
        self.failed_cells += maps
            .iter()
            .flat_map(|m| m.iter())
            .filter(|(_, _, cell)| *cell == CellStatus::Failed)
            .count() as u64;
        match &self.reference {
            Some(first) => self.maps_agree &= *first == maps,
            None => self.reference = Some(maps),
        }
        Ok(seconds)
    }
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let GridShape {
        config,
        kinds,
        score_passes,
    } = shape(args)?;
    let mut out = Outcome::default();
    let mut tracer = args.trace.then(Tracer::new);

    // Set-up: corpus synthesis, repeated; every repeat must agree.
    let mut setup_s = Vec::new();
    let mut corpus: Option<Corpus> = None;
    let mut setups_agree = true;
    let mut setup_host = Reference::new();
    for _ in 0..GRID_SETUPS {
        let (built, seconds) = match tracer.as_mut() {
            Some(t) => t.span("synth.corpus", &[], |_| Corpus::synthesize(&config)),
            None => timed(|| Corpus::synthesize(&config)),
        };
        let built = built?;
        if let Some(first) = &corpus {
            setups_agree &= first.training() == built.training();
        }
        corpus.get_or_insert(built);
        setup_s.push(seconds);
        setup_host.take(REFERENCE_PER_SETUP);
    }
    let corpus = corpus.expect("GRID_SETUPS is at least 1");
    out.check(
        "setup corpora identical",
        setups_agree,
        format!("{GRID_SETUPS} syntheses"),
    );

    let windows = config.windows().count();
    let mut events_per_sweep = 0usize;
    for window in config.windows() {
        for anomaly_size in config.anomaly_sizes() {
            events_per_sweep += corpus.case(anomaly_size, window)?.test_stream().len();
        }
    }
    events_per_sweep *= kinds.len();
    let mut sweeper = Sweeper {
        corpus: &corpus,
        kinds: &kinds,
        cells: (kinds.len() * windows * config.anomaly_sizes().count()) as u64,
        reference: None,
        maps_agree: true,
        misses_ok: true,
        attempted: 0,
        failed_cells: 0,
        cache_after: Default::default(),
    };

    // Untraced sweeps fill the budget (the whole of it, or its first
    // 40 % in the traced run). In the untraced run each sweep is
    // followed by a latency pass, scoring every cell against the models
    // the sweep left cached, so the latency samples spread over the run
    // as the sweeps do.
    let mut host = Reference::new();
    let budget = Budget::new();
    let untraced_until = if args.trace { 0.4 } else { 1.0 } * args.seconds;
    let mut sweeps = Vec::new();
    let mut latencies_us = Vec::new();
    let mut mismatches = 0usize;
    let mut digests = Vec::new();
    let mut units = Vec::new();
    loop {
        let started = budget.elapsed();
        sweeps.push(sweeper.sweep(None)?);
        if !args.trace {
            let maps = sweeper.reference.as_deref().expect("one sweep ran");
            let pass = score_pass(&corpus, &kinds, maps, None)?;
            latencies_us.extend(pass.latencies_us);
            mismatches += pass.mismatches;
            digests.push(pass.digest);
        }
        let min = if args.trace { MIN_TRACED } else { MIN_SWEEPS };
        units.push(budget.elapsed() - started);
        host.pace(budget.elapsed() - started);
        if !budget.another(sweeps.len(), min, median(&units), untraced_until) {
            break;
        }
    }

    let mut metrics = if args.trace {
        per_layer_metrics()
    } else {
        Default::default()
    };
    if let Some(t) = tracer.as_mut() {
        // Until 80 % of the budget: a traced sweep (against the untraced
        // ones, the tracing overhead), then training per (family, DW)
        // from a cold cache, spanned call by call.
        let mut traced = Vec::new();
        let mut train_s: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
        loop {
            traced.push(sweeper.sweep(Some(&mut *t))?);
            detdiv_cache::global().clear();
            let started = budget.elapsed();
            for (k, kind) in kinds.iter().enumerate() {
                let mut total = 0.0;
                for window in config.windows() {
                    let (_, seconds) = t.span("detectors.train", &[("dw", window as u64)], |_| {
                        trained_model(corpus.training(), kind, window)
                    });
                    total += seconds;
                }
                train_s[k].push(total);
            }
            let unit = median(&traced) + budget.elapsed() - started;
            if !budget.another(traced.len(), MIN_TRACED, unit, 0.8 * args.seconds) {
                break;
            }
        }
        let train_s: Vec<f64> = train_s.iter().map(|v| median(v)).collect();
        let maps = sweeper.reference.as_deref().expect("one sweep ran");
        let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
        for _ in 0..score_passes {
            let id = t.begin("core.score_pass");
            let pass = score_pass(&corpus, &kinds, maps, Some(&mut *t))?;
            t.end(id, &[]);
            mismatches += pass.mismatches;
            digests.push(pass.digest);
            for (k, s) in pass.per_kind_s.into_iter().enumerate() {
                per_kind[k].push(s);
            }
        }
        let score_s: Vec<f64> = per_kind.iter().map(|v| median(v)).collect();
        for (k, kind) in kinds.iter().enumerate() {
            metrics.set(
                format!("detectors.train_s.{}", label(kind)),
                train_s[k],
                "s",
            );
            metrics.set(format!("core.score_s.{}", label(kind)), score_s[k], "s");
        }
        let sweep = median(&traced);
        let layers = train_s.iter().sum::<f64>() + score_s.iter().sum::<f64>();
        metrics.set("synth.corpus_s", median(&setup_s), "s");
        let cache_after = sweeper.cache_after;
        metrics.set("cache.misses", cache_after.misses as f64, "count");
        metrics.set("cache.hits", cache_after.hits as f64, "count");
        metrics.set(
            "cache.resident_bytes",
            cache_after.resident_bytes as f64,
            "bytes",
        );
        metrics.set("eval.self_s", sweep - layers, "s");
        metrics.set("eval.cells", sweeper.cells as f64, "count");
        metrics.set("eval.cells_failed", sweeper.failed_cells as f64, "count");
        let untraced = median(&sweeps);
        out.context("traced_repeats", traced.len().to_string());
        out.context(
            "trace_overhead",
            format!(
                "{{\"sweep_s\": {}, \"sweep_frac\": {}}}",
                json_num(sweep - untraced),
                json_num((sweep - untraced) / untraced)
            ),
        );
    }

    out.attempted = sweeper.attempted;
    out.failed += sweeper.failed_cells;
    out.check(
        "maps identical across repeats",
        sweeper.maps_agree,
        format!("{} sweeps", sweeper.attempted / sweeper.cells),
    );
    out.check(
        "no failed cells",
        sweeper.failed_cells == 0,
        format!("{} failed of {}", sweeper.failed_cells, sweeper.attempted),
    );
    out.check(
        "cache misses equal families x windows",
        sweeper.misses_ok,
        format!("{} x {windows}", kinds.len()),
    );
    out.check(
        "scored verdicts equal the sweep's",
        mismatches == 0,
        format!("{mismatches} mismatched cells"),
    );
    out.check(
        "score passes identical",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} passes", digests.len()),
    );

    // Stide's map must be exactly the analytic one (detect iff DW >= AS).
    let reference = sweeper.reference.expect("one sweep ran");
    let stide = &reference[0]; // kinds[0] is Stide
    let mut stide_ok = true;
    for (a, w, cell) in expected_stide_map(&corpus).iter() {
        if cell.is_defined() {
            stide_ok &= stide.get(a, w)?.is_detection() == cell.is_detection();
        }
    }
    out.check("stide map equals expected_stide_map", stide_ok, "");

    out.context("digest", format!("\"{:016x}\"", digests[0]));
    out.context("repeats", sweeps.len().to_string());
    out.context("repeat_s", crate::report::json_list(&sweeps));
    out.context("events_per_sweep", events_per_sweep.to_string());
    out.context("host_ref_setup", setup_host.to_json());
    out.context("host_ref", host.to_json());
    if !args.trace {
        latencies_us.sort_by(f64::total_cmp);
        let factor = host.factor();
        let measured = [
            ("setup_s", median(&setup_s), "s", setup_host.factor()),
            ("sweep_s", median(&sweeps), "s", factor),
            (
                "events_per_s",
                events_per_sweep as f64 / median(&sweeps),
                "ev/s",
                factor,
            ),
            (
                "verdict_p50_us",
                percentile(&latencies_us, 50.0),
                "us",
                factor,
            ),
            (
                "verdict_p99_us",
                percentile(&latencies_us, 99.0),
                "us",
                factor,
            ),
        ];
        let unadjusted = crate::host::set_adjusted(&mut metrics, &measured);
        metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        out.context("unadjusted", unadjusted);
        out.context(
            "samples",
            format!(
                "{{\"setup_s\": {GRID_SETUPS}, \"sweep_s\": {}, \"verdict_p50_us\": {n}, \
                 \"verdict_p99_us\": {n}, \"beyond_p99\": {}}}",
                sweeps.len(),
                beyond(&latencies_us, 99.0),
                n = latencies_us.len()
            ),
        );
    }
    if let Some(t) = &tracer {
        crate::export_trace(args, t, &mut out)?;
    }
    out.metrics = metrics;
    Ok(out)
}
