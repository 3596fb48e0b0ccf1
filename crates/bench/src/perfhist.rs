//! Perf-history analysis over the committed `BENCH_*.json` baselines.
//!
//! Every PR that touches performance commits a baseline written by
//! `perfbaseline` or `loadgen` (`BENCH_pr3.json`, `BENCH_pr9.json`,
//! ...). This module parses all of them, orders them by PR number,
//! renders a per-metric trajectory table, and gates each metric in
//! [`GATED_METRICS`] independently, direction-aware: for every gated
//! metric it finds the newest baseline *carrying* that metric and
//! compares it against the newest older carrier *measured at the same
//! sweep shape* (training length, stream count, and thread count).
//! When a wall time *grows* — or a throughput *drops* — beyond a noise
//! threshold, the `perfhist` binary exits non-zero so CI fails.
//!
//! Pair selection is per metric, not per file, so a baseline that
//! introduces a brand-new gauge (the first `loadgen` run bringing
//! `serve_events_per_sec`) abstains on the new metric instead of
//! failing — and, crucially, does *not* un-gate the established
//! metrics, which keep comparing their own newest carrier pair.
//!
//! Baselines from different PRs carry different field sets (`pr3` has
//! no cache statistics), so parsing goes through the generic JSON
//! value tree and every metric is optional.

use serde::Value;
use std::path::{Path, PathBuf};

/// The metrics the trajectory table tracks, in display order. The
/// first entry (`wall_ms_trace_off` — the default-configuration
/// full-report wall time) is the gated headline metric; the dotted
/// name walks nested objects.
pub const TRACKED_METRICS: &[&str] = &[
    "wall_ms_trace_off",
    "wall_ms_trace_on",
    "wall_ms_cache_off",
    "cache_speedup_percent",
    "cache.hit_rate_percent",
    "trace_overhead_percent",
    "trace_events",
    "trace_dropped",
    "stream_events_per_sec",
    "utilization_percent",
    "serve_events_per_sec",
    "serve_p50_us",
    "serve_p99_us",
    "guard_shed_rate",
    "serve_resident_bytes_peak",
];

/// Which way a gated metric is supposed to move: wall times regress
/// upward, throughputs regress downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (wall times): a regression is growth beyond
    /// the threshold.
    LowerIsBetter,
    /// Larger is better (throughputs): a regression is a drop beyond
    /// the threshold.
    HigherIsBetter,
}

/// One metric the regression gate enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatedMetric {
    /// Dotted metric name, looked up via [`BaselineFile::metric`].
    pub name: &'static str,
    /// Which way this metric regresses.
    pub direction: Direction,
}

/// The metrics the regression gate compares, each with its regression
/// direction. Each metric picks its own newest-carrier pair (see
/// [`gate`]); a metric first measured by the newest baseline abstains
/// until a second carrier exists.
pub const GATED_METRICS: &[GatedMetric] = &[
    GatedMetric {
        name: "wall_ms_trace_off",
        direction: Direction::LowerIsBetter,
    },
    GatedMetric {
        name: "stream_events_per_sec",
        direction: Direction::HigherIsBetter,
    },
    GatedMetric {
        name: "serve_events_per_sec",
        direction: Direction::HigherIsBetter,
    },
    GatedMetric {
        name: "serve_p99_us",
        direction: Direction::LowerIsBetter,
    },
    // Resident-state ceiling under overload (`loadgen --overload`): the
    // hibernation budget must keep working-set growth in check, so a
    // higher peak than the comparable baseline is a regression.
    GatedMetric {
        name: "serve_resident_bytes_peak",
        direction: Direction::LowerIsBetter,
    },
];

/// One parsed baseline file.
#[derive(Debug, Clone)]
pub struct BaselineFile {
    /// Source path, for diagnostics.
    pub path: PathBuf,
    /// The `bench` label (`pr4`), falling back to the file stem.
    pub label: String,
    /// PR number parsed from the label's trailing digits (ordering
    /// key; label text breaks ties).
    pub order: u64,
    /// Sweep shape: training length.
    pub training_len: Option<u64>,
    /// Sweep shape: distinct stream count (`loadgen` baselines).
    pub streams: Option<u64>,
    /// Sweep shape: thread count.
    pub threads: Option<u64>,
    /// The parsed value tree, for metric lookups.
    value: Value,
}

impl BaselineFile {
    /// Parses one baseline JSON file.
    ///
    /// # Errors
    ///
    /// Unreadable file or malformed JSON, with the path named.
    pub fn load(path: impl AsRef<Path>) -> Result<BaselineFile, String> {
        let path = path.as_ref();
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = serde_json::from_str_value(&raw)
            .map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let label = value
            .get("bench")
            .and_then(|v| v.as_str())
            .map(str::to_owned)
            .unwrap_or_else(|| stem.trim_start_matches("BENCH_").to_owned());
        let order = trailing_number(&label);
        let training_len = value.get("training_len").and_then(as_u64);
        let streams = value.get("streams").and_then(as_u64);
        let threads = value.get("threads").and_then(as_u64);
        Ok(BaselineFile {
            path: path.to_owned(),
            label,
            order,
            training_len,
            streams,
            threads,
            value,
        })
    }

    /// Looks up one (possibly dotted) metric as a float.
    pub fn metric(&self, name: &str) -> Option<f64> {
        let mut cursor = &self.value;
        for part in name.split('.') {
            cursor = cursor.get(part)?;
        }
        as_f64(cursor)
    }

    /// Whether two baselines measured the same sweep shape, making
    /// their wall times comparable. Shape is the full triple — an
    /// offline-eval baseline (`training_len`, no `streams`) is never
    /// comparable with a `loadgen` one (`streams`, no `training_len`),
    /// and two `loadgen` runs must agree on the stream count.
    pub fn comparable_with(&self, other: &BaselineFile) -> bool {
        self.training_len == other.training_len
            && self.streams == other.streams
            && self.threads == other.threads
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        _ => None,
    }
}

/// PR-number ordering key: the value of the label's trailing digit
/// run (`pr10` → 10), or 0 when there is none (sorts first).
fn trailing_number(label: &str) -> u64 {
    let digits: String = label
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().unwrap_or(0)
}

/// Finds every `BENCH_*.json` directly inside `dir`, sorted by PR
/// number then label.
///
/// # Errors
///
/// Unreadable directory, or any individual file failing to parse.
pub fn discover(dir: impl AsRef<Path>) -> Result<Vec<BaselineFile>, String> {
    let dir = dir.as_ref();
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            files.push(BaselineFile::load(entry.path())?);
        }
    }
    sort_baselines(&mut files);
    Ok(files)
}

/// Sorts baselines into trajectory order (PR number, then label).
pub fn sort_baselines(files: &mut [BaselineFile]) {
    files.sort_by(|a, b| a.order.cmp(&b.order).then_with(|| a.label.cmp(&b.label)));
}

/// Renders the per-metric trajectory table: one column per baseline in
/// PR order, one row per tracked metric, `-` where a baseline predates
/// the metric.
pub fn render_trajectory(files: &[BaselineFile]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if files.is_empty() {
        out.push_str("perfhist: no BENCH_*.json baselines found\n");
        return out;
    }
    let _ = write!(out, "{:<28}", "metric");
    for f in files {
        let _ = write!(out, " {:>14}", f.label);
    }
    out.push('\n');
    let _ = write!(out, "{:<28}", "  (sweep)");
    for f in files {
        let shape = match (f.training_len, f.streams, f.threads) {
            (Some(len), _, Some(t)) => format!("{}k/t{t}", len / 1000),
            (None, Some(s), Some(t)) => format!("{}ks/t{t}", s / 1000),
            _ => "?".to_owned(),
        };
        let _ = write!(out, " {shape:>14}");
    }
    out.push('\n');
    for metric in TRACKED_METRICS {
        let _ = write!(out, "{metric:<28}");
        for f in files {
            match f.metric(metric) {
                Some(v) => {
                    let _ = write!(out, " {v:>14.2}");
                }
                None => {
                    let _ = write!(out, " {:>14}", "-");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// The regression gate's verdict on one gated metric, over the pair of
/// baselines that metric selected for itself.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Fewer than two baselines: nothing to compare.
    TooFewBaselines,
    /// Older baselines carry this metric, but none of them measured
    /// the newest carrier's sweep shape; this metric abstains.
    NotComparable {
        /// The gated metric with no same-shape predecessor.
        metric: &'static str,
        /// The metric's newest carrier.
        newest: String,
        /// The newest older carrier (whose shape differs).
        previous: String,
    },
    /// Exactly one baseline carries this metric — it was introduced by
    /// that baseline and has nothing older to compare against, so it
    /// abstains until a second carrier is committed.
    Introduced {
        /// The freshly introduced gated metric.
        metric: &'static str,
        /// The introducing baseline's label.
        newest: String,
    },
    /// No committed baseline carries this metric at all; it abstains.
    NeverMeasured {
        /// The gated metric no baseline carries.
        metric: &'static str,
    },
    /// Newest is within the threshold of (or better than) its
    /// predecessor on this metric.
    Ok {
        /// The gated metric.
        metric: &'static str,
        /// Newest baseline's label.
        newest: String,
        /// Predecessor's label.
        previous: String,
        /// Newest-over-previous change, percent (sign is raw: a wall
        /// time improves negative, a throughput improves positive).
        change_percent: f64,
    },
    /// Newest regressed this metric beyond the threshold, in the
    /// metric's regression direction.
    Regression {
        /// The gated metric.
        metric: &'static str,
        /// Newest baseline's label.
        newest: String,
        /// Predecessor's label.
        previous: String,
        /// Newest-over-previous change, percent.
        change_percent: f64,
        /// The threshold that was exceeded, percent.
        threshold_percent: f64,
    },
}

impl Verdict {
    /// Whether CI should fail on this verdict.
    pub fn is_regression(&self) -> bool {
        matches!(self, Verdict::Regression { .. })
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self {
            Verdict::TooFewBaselines => {
                "perfhist: fewer than two baselines; nothing to gate".to_owned()
            }
            Verdict::NotComparable {
                metric,
                newest,
                previous,
            } => format!(
                "perfhist: {metric} carriers {newest} and {previous} measured \
                 different sweeps; this metric abstains"
            ),
            Verdict::Introduced { metric, newest } => format!(
                "perfhist: {metric} first measured by {newest}; nothing older to \
                 compare, so this metric abstains"
            ),
            Verdict::NeverMeasured { metric } => {
                format!("perfhist: {metric} not measured by any baseline; this metric abstains")
            }
            Verdict::Ok {
                metric,
                newest,
                previous,
                change_percent,
            } => {
                format!("perfhist: OK — {metric} {newest} vs {previous}: {change_percent:+.2}%")
            }
            Verdict::Regression {
                metric,
                newest,
                previous,
                change_percent,
                threshold_percent,
            } => format!(
                "perfhist: REGRESSION — {metric} {newest} vs {previous}: \
                 {change_percent:+.2}% exceeds the {threshold_percent:.1}% threshold"
            ),
        }
    }
}

/// Gates every metric in [`GATED_METRICS`] over its own
/// newest-carrier pair, direction-aware: a wall time regresses when it
/// *grew* by more than `threshold_percent`, a throughput when it
/// *dropped* by more than `threshold_percent`.
///
/// Pair selection, per metric: the newest baseline carrying the metric
/// is compared against the newest *older* carrier with the same sweep
/// shape ([`BaselineFile::comparable_with`]), skipping interlopers
/// that don't carry it. A metric carried by no baseline, or only by
/// its introducing baseline, abstains — so a freshly committed
/// `loadgen` baseline neither fails on its new gauges nor un-gates the
/// established ones. Returns one verdict per gated metric; CI fails
/// when any verdict [`is_regression`](Verdict::is_regression).
pub fn gate(files: &[BaselineFile], threshold_percent: f64) -> Vec<Verdict> {
    if files.len() < 2 {
        return vec![Verdict::TooFewBaselines];
    }
    GATED_METRICS
        .iter()
        .map(|gated| gate_metric(gated, files, threshold_percent))
        .collect()
}

/// Whether `file` carries a usable value for the metric: present and,
/// for the *older* side of a pair, positive (a zero denominator cannot
/// anchor a change percentage).
fn carries(file: &BaselineFile, name: &str) -> bool {
    file.metric(name).is_some_and(|v| v > 0.0)
}

fn gate_metric(gated: &GatedMetric, files: &[BaselineFile], threshold_percent: f64) -> Verdict {
    let Some(newest_idx) = files.iter().rposition(|f| f.metric(gated.name).is_some()) else {
        return Verdict::NeverMeasured { metric: gated.name };
    };
    let newest = &files[newest_idx];
    let older = &files[..newest_idx];
    let Some(latest_carrier) = older.iter().rev().find(|f| carries(f, gated.name)) else {
        return Verdict::Introduced {
            metric: gated.name,
            newest: newest.label.clone(),
        };
    };
    let Some(previous) = older
        .iter()
        .rev()
        .find(|f| carries(f, gated.name) && f.comparable_with(newest))
    else {
        return Verdict::NotComparable {
            metric: gated.name,
            newest: newest.label.clone(),
            previous: latest_carrier.label.clone(),
        };
    };
    let new_value = newest.metric(gated.name).unwrap_or(0.0);
    let old_value = previous.metric(gated.name).unwrap_or(f64::INFINITY);
    let change_percent = (new_value - old_value) / old_value * 100.0;
    let regressed = match gated.direction {
        Direction::LowerIsBetter => change_percent > threshold_percent,
        Direction::HigherIsBetter => change_percent < -threshold_percent,
    };
    if regressed {
        Verdict::Regression {
            metric: gated.name,
            newest: newest.label.clone(),
            previous: previous.label.clone(),
            change_percent,
            threshold_percent,
        }
    } else {
        Verdict::Ok {
            metric: gated.name,
            newest: newest.label.clone(),
            previous: previous.label.clone(),
            change_percent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `json` to a temp file no other test in the process uses,
    /// loads it as a baseline, and removes it.
    fn load_temp(name: &str, json: &str) -> BaselineFile {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "detdiv-perfhist-test-{}-{seq}-{name}.json",
            std::process::id()
        ));
        std::fs::write(&path, json).unwrap();
        let parsed = BaselineFile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        parsed
    }

    fn synthetic(label: &str, wall: f64, training_len: u64, threads: u64) -> BaselineFile {
        synthetic_with_stream(label, wall, None, training_len, threads)
    }

    fn synthetic_with_stream(
        label: &str,
        wall: f64,
        stream_eps: Option<f64>,
        training_len: u64,
        threads: u64,
    ) -> BaselineFile {
        let stream = match stream_eps {
            Some(eps) => format!(r#", "stream_events_per_sec": {eps}"#),
            None => String::new(),
        };
        let json = format!(
            r#"{{"bench": "{label}", "training_len": {training_len}, "threads": {threads},
                "wall_ms_trace_off": {wall}, "trace_dropped": 0{stream}}}"#
        );
        load_temp(&format!("BENCH_{label}"), &json)
    }

    /// A loadgen-shaped baseline: serve gauges plus the `streams`
    /// sweep field, no `training_len` and no wall time.
    fn synthetic_serve(
        label: &str,
        eps: f64,
        p50_us: f64,
        p99_us: f64,
        streams: u64,
        threads: u64,
    ) -> BaselineFile {
        let json = format!(
            r#"{{"bench": "{label}", "streams": {streams}, "threads": {threads},
                "serve_events_per_sec": {eps}, "serve_p50_us": {p50_us},
                "serve_p99_us": {p99_us}}}"#
        );
        load_temp(&format!("BENCH_{label}"), &json)
    }

    fn any_regression(verdicts: &[Verdict]) -> bool {
        verdicts.iter().any(Verdict::is_regression)
    }

    #[test]
    fn baselines_sort_by_pr_number_not_lexically() {
        let mut files = vec![
            synthetic("pr10", 100.0, 60_000, 1),
            synthetic("pr4", 100.0, 60_000, 1),
            synthetic("pr3", 100.0, 60_000, 1),
        ];
        sort_baselines(&mut files);
        let labels: Vec<_> = files.iter().map(|f| f.label.as_str()).collect();
        assert_eq!(labels, ["pr3", "pr4", "pr10"]);
    }

    #[test]
    fn committed_baselines_parse_and_carry_the_gated_metric() {
        // The real BENCH files at the repository root are test fixtures
        // for the parser: they must stay loadable forever.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = discover(&root).expect("repo root scans");
        assert!(
            files.len() >= 2,
            "at least pr3 and pr4 baselines are committed"
        );
        // Baselines come from different harnesses (`perfbaseline` vs
        // `loadgen`), so no single metric spans all of them — but every
        // committed file must carry at least one gated metric, and the
        // headline wall time must still have a carrier.
        let headline = GATED_METRICS[0].name;
        for f in &files {
            assert!(
                GATED_METRICS.iter().any(|g| f.metric(g.name).is_some()),
                "{} carries no gated metric",
                f.path.display()
            );
        }
        assert!(
            files.iter().any(|f| f.metric(headline).is_some()),
            "some baseline carries {headline}"
        );
        let table = render_trajectory(&files);
        assert!(table.contains("pr3"));
        assert!(table.contains("pr4"));
        assert!(table.contains(headline));
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond_it() {
        let files = vec![
            synthetic("pr1", 1000.0, 60_000, 1),
            synthetic("pr2", 1040.0, 60_000, 1),
        ];
        assert!(!any_regression(&gate(&files, 10.0)), "4% growth under 10%");
        let verdicts = gate(&files, 2.0);
        let regression = verdicts
            .iter()
            .find(|v| v.is_regression())
            .expect("4% growth over 2%");
        assert!(regression.render().contains("REGRESSION"));
        assert!(regression.render().contains("wall_ms_trace_off"));

        let improved = vec![
            synthetic("pr1", 1000.0, 60_000, 1),
            synthetic("pr2", 700.0, 60_000, 1),
        ];
        assert!(!any_regression(&gate(&improved, 10.0)), "speedups pass");
    }

    #[test]
    fn throughput_gates_in_the_opposite_direction() {
        // Wall time holds steady while streaming throughput collapses:
        // the HigherIsBetter direction must flag the *drop*.
        let dropped = vec![
            synthetic_with_stream("pr1", 1000.0, Some(2_000_000.0), 60_000, 1),
            synthetic_with_stream("pr2", 1000.0, Some(1_000_000.0), 60_000, 1),
        ];
        let verdicts = gate(&dropped, 25.0);
        let regression = verdicts
            .iter()
            .find(|v| v.is_regression())
            .expect("a 50% throughput drop trips the gate");
        assert!(
            regression.render().contains("stream_events_per_sec"),
            "{}",
            regression.render()
        );

        // A throughput *gain* of the same magnitude passes — the raw
        // change percent is large and positive, which LowerIsBetter
        // logic would misread as a regression.
        let gained = vec![
            synthetic_with_stream("pr1", 1000.0, Some(1_000_000.0), 60_000, 1),
            synthetic_with_stream("pr2", 1000.0, Some(2_000_000.0), 60_000, 1),
        ];
        assert!(!any_regression(&gate(&gained, 25.0)), "speedups pass");

        // A gauge first measured by the newest baseline abstains on
        // that metric only: it was introduced, nothing older carries it.
        let gap = vec![
            synthetic("pr1", 1000.0, 60_000, 1),
            synthetic_with_stream("pr2", 1000.0, Some(2_000_000.0), 60_000, 1),
        ];
        let verdicts = gate(&gap, 25.0);
        assert!(!any_regression(&verdicts));
        assert!(
            verdicts.iter().any(|v| matches!(
                v,
                Verdict::Introduced {
                    metric: "stream_events_per_sec",
                    ..
                }
            )),
            "{verdicts:?}"
        );
    }

    #[test]
    fn gate_abstains_on_shape_mismatch_and_missing_data() {
        // Shape mismatch is now per metric: the wall time abstains with
        // its own NotComparable verdict (naming the nearest carrier it
        // could not use), while metrics no file carries abstain as
        // NeverMeasured. Nothing fails.
        let files = vec![
            synthetic("pr1", 1000.0, 60_000, 1),
            synthetic("pr2", 9000.0, 120_000, 1),
        ];
        let verdicts = gate(&files, 10.0);
        assert!(!any_regression(&verdicts));
        assert_eq!(
            verdicts[0],
            Verdict::NotComparable {
                metric: "wall_ms_trace_off",
                newest: "pr2".to_owned(),
                previous: "pr1".to_owned(),
            },
            "different training lengths are not comparable"
        );
        for v in &verdicts[1..] {
            assert!(
                matches!(v, Verdict::NeverMeasured { .. }),
                "uncarried metrics abstain: {v:?}"
            );
        }
        assert_eq!(
            gate(&files[..1], 10.0),
            vec![Verdict::TooFewBaselines],
            "a single baseline gates nothing"
        );
        assert_eq!(gate(&[], 10.0), vec![Verdict::TooFewBaselines]);
    }

    #[test]
    fn introduced_metric_abstains_without_ungating_the_rest() {
        // The satellite fix in one scene: pr9 is a loadgen baseline
        // carrying only the serve gauges. The serve gauges abstain as
        // freshly introduced — and the wall-time gate must KEEP
        // comparing pr7 vs pr8 (its own newest carrier pair), catching
        // the regression pr9's arrival would previously have hidden.
        let files = vec![
            synthetic("pr7", 1000.0, 60_000, 1),
            synthetic("pr8", 2000.0, 60_000, 1),
            synthetic_serve("pr9", 1_500_000.0, 40.0, 900.0, 1_000_000, 1),
        ];
        let verdicts = gate(&files, 25.0);
        assert!(
            matches!(
                &verdicts[0],
                Verdict::Regression { metric: "wall_ms_trace_off", newest, previous, .. }
                    if newest == "pr8" && previous == "pr7"
            ),
            "the wall gate still fires on its own carrier pair: {verdicts:?}"
        );
        assert!(verdicts.iter().any(|v| matches!(
            v,
            Verdict::Introduced {
                metric: "serve_events_per_sec",
                ..
            }
        )));
        assert!(verdicts.iter().any(|v| matches!(
            v,
            Verdict::Introduced {
                metric: "serve_p99_us",
                ..
            }
        )));

        // A second loadgen baseline at the same shape arms the serve
        // gates for real: a throughput drop and a p99 growth both trip.
        let regressed = vec![
            synthetic_serve("pr9", 1_500_000.0, 40.0, 900.0, 1_000_000, 1),
            synthetic_serve("pr10", 700_000.0, 40.0, 2000.0, 1_000_000, 1),
        ];
        let verdicts = gate(&regressed, 25.0);
        assert!(verdicts.iter().any(|v| matches!(
            v,
            Verdict::Regression {
                metric: "serve_events_per_sec",
                ..
            }
        )));
        assert!(verdicts.iter().any(|v| matches!(
            v,
            Verdict::Regression {
                metric: "serve_p99_us",
                ..
            }
        )));
        // ...while a loadgen run at a different stream count abstains:
        // the sweep shapes are not comparable.
        let reshaped = vec![
            synthetic_serve("pr9", 1_500_000.0, 40.0, 900.0, 1_000_000, 1),
            synthetic_serve("pr10", 700_000.0, 40.0, 2000.0, 250_000, 1),
        ];
        assert!(!any_regression(&gate(&reshaped, 25.0)));
    }

    #[test]
    fn pair_selection_skips_non_carriers_and_incomparable_shapes() {
        // pr2 measured a different sweep; pr3's wall time compares
        // against pr1 (the newest older carrier at the same shape),
        // not against its incomparable neighbor.
        let files = vec![
            synthetic("pr1", 1000.0, 60_000, 1),
            synthetic("pr2", 9000.0, 120_000, 1),
            synthetic("pr3", 1050.0, 60_000, 1),
        ];
        let verdicts = gate(&files, 10.0);
        assert!(
            matches!(
                &verdicts[0],
                Verdict::Ok { metric: "wall_ms_trace_off", newest, previous, .. }
                    if newest == "pr3" && previous == "pr1"
            ),
            "{verdicts:?}"
        );
    }

    #[test]
    fn dotted_metrics_walk_nested_objects() {
        let json = r#"{"bench": "prX", "cache": {"hit_rate_percent": 60.25}}"#;
        let f = load_temp("dotted", json);
        assert_eq!(f.metric("cache.hit_rate_percent"), Some(60.25));
        assert_eq!(f.metric("cache.absent"), None);
        assert_eq!(f.metric("absent.whatever"), None);
    }
}
