//! The self-profile: inclusive/exclusive wall time per span path.
//!
//! Derived from the `span/<path>` histograms of a
//! [`crate::TelemetrySnapshot`]: a path's **inclusive** time is the sum
//! of its recorded span durations; its **exclusive** time subtracts the
//! inclusive time of its *direct* children, i.e. the time spent in the
//! span's own code rather than in instrumented sub-spans. Because the
//! evaluation grid fans children out over `detdiv-par` workers, a
//! parent's children can accumulate more summed wall time than the
//! parent itself spans; exclusive times therefore saturate at zero
//! rather than going negative.
//!
//! The profile also reports **worker utilization**: the pool's summed
//! per-worker busy time divided by `workers × report wall time`,
//! answering "how well did the sweep overlap" without opening the
//! exported trace.

use crate::snapshot::HistogramSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Inclusive/exclusive wall time of one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileRow {
    /// Slash-joined span path (e.g. `report/fig3_6_coverage`).
    pub path: String,
    /// Number of recorded spans at this path.
    pub count: u64,
    /// Summed wall time of the spans themselves, in nanoseconds.
    pub inclusive_ns: u64,
    /// Inclusive time minus the inclusive time of direct children,
    /// saturating at zero (parallel children can out-sum the parent).
    pub exclusive_ns: u64,
}

/// Per-span-path time table plus worker-overlap summary; attached to
/// [`crate::TelemetrySnapshot::profile`] and rendered by
/// `render_text`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SelfProfile {
    /// Every span path, sorted by descending exclusive time (ties
    /// break on the path so the order is deterministic).
    pub rows: Vec<ProfileRow>,
    /// Wall time of the run, in nanoseconds: the `report` span when
    /// present, otherwise the largest top-level inclusive time.
    pub wall_ns: u64,
    /// Pool worker count mirrored from `par/workers` (0 when the pool
    /// never ran or telemetry was disabled).
    pub workers: u64,
    /// Summed busy time across all pool workers, in nanoseconds
    /// (mirrored from the `par/worker<i>/busy_ns` counters).
    pub worker_busy_ns: u64,
    /// `worker_busy_ns / (workers × wall_ns)`, as a percentage; `None`
    /// when the pool or the wall time is unknown.
    pub utilization_percent: Option<f64>,
}

impl SelfProfile {
    /// Builds the profile from a snapshot's histogram and counter maps.
    pub fn from_maps(
        histograms: &BTreeMap<String, HistogramSummary>,
        counters: &BTreeMap<String, u64>,
    ) -> SelfProfile {
        // Collect span paths with their inclusive times.
        let spans: Vec<(&str, &HistogramSummary)> = histograms
            .iter()
            .filter_map(|(name, h)| name.strip_prefix("span/").map(|path| (path, h)))
            .collect();
        let mut rows: Vec<ProfileRow> = spans
            .iter()
            .map(|&(path, h)| {
                let prefix = format!("{path}/");
                let children_ns: u64 = spans
                    .iter()
                    .filter(|&&(other, _)| {
                        other
                            .strip_prefix(&prefix)
                            .is_some_and(|rest| !rest.contains('/'))
                    })
                    .map(|&(_, child)| child.sum_ns)
                    .sum();
                ProfileRow {
                    path: path.to_owned(),
                    count: h.count,
                    inclusive_ns: h.sum_ns,
                    exclusive_ns: h.sum_ns.saturating_sub(children_ns),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.exclusive_ns
                .cmp(&a.exclusive_ns)
                .then_with(|| a.path.cmp(&b.path))
        });

        let wall_ns = spans
            .iter()
            .find(|&&(path, _)| path == "report")
            .map(|&(_, h)| h.sum_ns)
            .or_else(|| {
                spans
                    .iter()
                    .filter(|&&(path, _)| !path.contains('/'))
                    .map(|&(_, h)| h.sum_ns)
                    .max()
            })
            .unwrap_or(0);

        let workers = counters.get("par/workers").copied().unwrap_or(0);
        let worker_busy_ns: u64 = counters
            .iter()
            .filter(|(name, _)| name.starts_with("par/worker") && name.ends_with("/busy_ns"))
            .map(|(_, &v)| v)
            .sum();
        let utilization_percent = if workers > 0 && wall_ns > 0 {
            Some(worker_busy_ns as f64 / (workers as f64 * wall_ns as f64) * 100.0)
        } else {
            None
        };

        SelfProfile {
            rows,
            wall_ns,
            workers,
            worker_busy_ns,
            utilization_percent,
        }
    }

    /// The top `n` rows by exclusive time.
    pub fn top(&self, n: usize) -> &[ProfileRow] {
        &self.rows[..self.rows.len().min(n)]
    }

    /// Whether the profile carries no rows (e.g. `DETDIV_LOG=off`).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the top-`n` table plus the utilization line, as embedded
    /// in `TelemetrySnapshot::render_text`.
    pub fn render_text(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "self-profile: top {} span paths by exclusive time (wall {:.1} ms)",
            self.top(n).len(),
            self.wall_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  {:<44} {:>6} {:>10} {:>10} {:>6}",
            "path", "count", "incl_ms", "excl_ms", "excl%"
        );
        for row in self.top(n) {
            let share = if self.wall_ns > 0 {
                row.exclusive_ns as f64 / self.wall_ns as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<44} {:>6} {:>10.1} {:>10.1} {:>5.1}%",
                row.path,
                row.count,
                row.inclusive_ns as f64 / 1e6,
                row.exclusive_ns as f64 / 1e6,
                share
            );
        }
        match self.utilization_percent {
            Some(pct) => {
                let _ = writeln!(
                    out,
                    "worker utilization: {:.1}% ({} workers, busy {:.1} ms / wall {:.1} ms)",
                    pct,
                    self.workers,
                    self.worker_busy_ns as f64 / 1e6,
                    self.wall_ns as f64 / 1e6
                );
            }
            None => {
                let _ = writeln!(out, "worker utilization: n/a (pool counters not recorded)");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(count: u64, sum_ns: u64) -> HistogramSummary {
        HistogramSummary {
            count,
            sum_ns,
            min_ns: sum_ns / count.max(1),
            max_ns: sum_ns,
            mean_ns: sum_ns / count.max(1),
            p50_ns: sum_ns / count.max(1),
            p90_ns: sum_ns,
            p99_ns: sum_ns,
        }
    }

    fn maps() -> (BTreeMap<String, HistogramSummary>, BTreeMap<String, u64>) {
        let mut h = BTreeMap::new();
        h.insert("span/report".to_owned(), hist(1, 100_000));
        h.insert("span/report/fig3_6_coverage".to_owned(), hist(1, 60_000));
        h.insert(
            "span/report/fig3_6_coverage/train".to_owned(),
            hist(8, 45_000),
        );
        h.insert("span/report/comb1_subset".to_owned(), hist(1, 30_000));
        // A non-span histogram must be ignored.
        h.insert("detector/stide/train_ns".to_owned(), hist(8, 999_999));
        let mut c = BTreeMap::new();
        c.insert("par/workers".to_owned(), 2);
        c.insert("par/worker0/busy_ns".to_owned(), 80_000);
        c.insert("par/worker1/busy_ns".to_owned(), 60_000);
        c.insert("par/worker0/idle_parks".to_owned(), 3);
        (h, c)
    }

    #[test]
    fn exclusive_subtracts_direct_children_only() {
        let (h, c) = maps();
        let profile = SelfProfile::from_maps(&h, &c);
        let row = |path: &str| {
            profile
                .rows
                .iter()
                .find(|r| r.path == path)
                .unwrap_or_else(|| panic!("missing row {path}"))
        };
        // report: 100k - (60k + 30k direct children) = 10k; the
        // grandchild train span must NOT be subtracted again.
        assert_eq!(row("report").exclusive_ns, 10_000);
        assert_eq!(row("report/fig3_6_coverage").exclusive_ns, 15_000);
        assert_eq!(row("report/fig3_6_coverage/train").exclusive_ns, 45_000);
        assert_eq!(row("report/comb1_subset").exclusive_ns, 30_000);
        assert_eq!(profile.rows.len(), 4, "non-span histograms excluded");
    }

    #[test]
    fn rows_sort_by_descending_exclusive_time() {
        let (h, c) = maps();
        let profile = SelfProfile::from_maps(&h, &c);
        let exclusives: Vec<u64> = profile.rows.iter().map(|r| r.exclusive_ns).collect();
        let mut sorted = exclusives.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(exclusives, sorted);
        assert_eq!(profile.rows[0].path, "report/fig3_6_coverage/train");
        assert_eq!(profile.top(2).len(), 2);
        assert_eq!(profile.top(99).len(), 4);
    }

    #[test]
    fn parallel_children_saturate_exclusive_at_zero() {
        let mut h = BTreeMap::new();
        h.insert("span/outer".to_owned(), hist(1, 10_000));
        // Four workers' children out-sum the parent's wall time.
        h.insert("span/outer/child".to_owned(), hist(4, 36_000));
        let profile = SelfProfile::from_maps(&h, &BTreeMap::new());
        let outer = profile.rows.iter().find(|r| r.path == "outer").unwrap();
        assert_eq!(outer.exclusive_ns, 0);
    }

    #[test]
    fn utilization_uses_workers_times_wall() {
        let (h, c) = maps();
        let profile = SelfProfile::from_maps(&h, &c);
        assert_eq!(profile.wall_ns, 100_000);
        assert_eq!(profile.workers, 2);
        assert_eq!(profile.worker_busy_ns, 140_000);
        let pct = profile.utilization_percent.expect("utilization computed");
        assert!((pct - 70.0).abs() < 1e-9, "got {pct}");
    }

    #[test]
    fn wall_falls_back_to_largest_top_level_span() {
        let mut h = BTreeMap::new();
        h.insert("span/alpha".to_owned(), hist(1, 5_000));
        h.insert("span/beta".to_owned(), hist(1, 9_000));
        let profile = SelfProfile::from_maps(&h, &BTreeMap::new());
        assert_eq!(profile.wall_ns, 9_000);
        assert_eq!(profile.utilization_percent, None);
    }

    #[test]
    fn empty_maps_yield_an_empty_profile() {
        let profile = SelfProfile::from_maps(&BTreeMap::new(), &BTreeMap::new());
        assert!(profile.is_empty());
        assert_eq!(profile, SelfProfile::default());
        let text = profile.render_text(10);
        assert!(text.contains("worker utilization: n/a"));
    }

    #[test]
    fn render_text_shows_paths_and_utilization() {
        let (h, c) = maps();
        let profile = SelfProfile::from_maps(&h, &c);
        let text = profile.render_text(3);
        assert!(text.contains("self-profile: top 3"));
        assert!(text.contains("report/fig3_6_coverage/train"));
        assert!(text.contains("worker utilization: 70.0%"));
        // Top-3 renders train, comb1_subset, fig3_6_coverage and cuts
        // the 4th row (`report`, the smallest exclusive time).
        assert_eq!(
            text.matches("\n  report").count(),
            3,
            "exactly three profile rows rendered: {text}"
        );
        assert!(!text.contains("\n  report  "), "the `report` row is cut");
    }

    #[test]
    fn json_round_trip() {
        let (h, c) = maps();
        let profile = SelfProfile::from_maps(&h, &c);
        let json = serde_json::to_string(&profile).unwrap();
        let back: SelfProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(profile, back);
    }
}
