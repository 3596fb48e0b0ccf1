//! The full experiment report: every figure and analysis of the paper,
//! regenerated in one pass.

use std::fmt::Write as _;

use detdiv_core::CoverageMap;
use detdiv_obs::TelemetrySnapshot;
use detdiv_synth::{Corpus, SynthesisConfig};
use serde::{Deserialize, Serialize};

use crate::ablation::{
    abl1_maximal_response_semantics, abl2_locality_frame_count, abl3_nn_sensitivity, LfcRow,
    NnSensitivityRow, SemanticsAblation,
};
use crate::analysis::{ana1_response_map, fn1_threshold_sweeps, ResponseMap, SweepResult};
use crate::census::{nat1_census, CensusResult};
use crate::combination::{
    comb1_stide_markov_subset, comb2_stide_lb_union, comb3_suppression, render_suppression_table,
    SubsetResult, SuppressionConfig, SuppressionRow, UnionGainResult,
};
use crate::coverage::paper_coverage_maps;
use crate::diversity::{div1_diversity_matrix, DiversityResult};
use crate::error::HarnessError;
use crate::extension::{ext1_extended_families, ExtensionResult};
use crate::figures::{fig2_incident_span, fig7_similarity, Fig2Result, Fig7Result};
use crate::kinds::DetectorKind;
use crate::masquerade::{masq1_lane_brodley_masquerade, MasqueradeResult};

/// Everything the paper's evaluation section reports, regenerated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullReport {
    /// The synthesis configuration the corpus was built from.
    pub config: SynthesisConfig,
    /// The synthesized anomalies, `(size, rendering)`.
    pub anomalies: Vec<(usize, String)>,
    /// Figure 2: incident-span worked example.
    pub fig2: Fig2Result,
    /// Figure 3: Lane & Brodley coverage map.
    pub fig3: CoverageMap,
    /// Figure 4: Markov coverage map.
    pub fig4: CoverageMap,
    /// Figure 5: Stide coverage map.
    pub fig5: CoverageMap,
    /// Figure 6: neural-network coverage map.
    pub fig6: CoverageMap,
    /// Figure 7: L&B similarity worked example.
    pub fig7: Fig7Result,
    /// COMB1: Stide ⊆ Markov.
    pub comb1: SubsetResult,
    /// COMB2: Stide ∪ L&B affords no gain.
    pub comb2: UnionGainResult,
    /// COMB3: suppression table.
    pub comb3: Vec<SuppressionRow>,
    /// ABL1: maximal-response semantics.
    pub abl1: SemanticsAblation,
    /// ABL2: locality frame count.
    pub abl2: Vec<LfcRow>,
    /// ABL3: neural-network parameter sensitivity.
    pub abl3: Vec<NnSensitivityRow>,
    /// NAT1: MFS census over synthetic traces.
    pub nat1: CensusResult,
    /// EXT1: extension families (t-stide, HMM).
    pub ext1: ExtensionResult,
    /// DIV1: the pairwise diversity matrix over all families.
    pub div1: DiversityResult,
    /// MASQ1: Lane & Brodley on its home turf (masquerade detection).
    pub masq1: MasqueradeResult,
    /// FN1: footnote-1 threshold sweeps.
    pub fn1: Vec<SweepResult>,
    /// ANA1: the Lane & Brodley maximum-response map (the analogue
    /// signal under Figure 3).
    pub ana1_lb: ResponseMap,
    /// Run telemetry: per-detector timing histograms, counters, and
    /// per-(AS × DW) cell wall times recorded while this report was
    /// generated. Empty when telemetry is disabled (`DETDIV_LOG=off`)
    /// or when deserializing reports written before this field existed.
    #[serde(default)]
    pub telemetry: TelemetrySnapshot,
}

/// Runs one named experiment under a telemetry span and logs its
/// completion at info level.
fn step<T>(
    name: &'static str,
    f: impl FnOnce() -> Result<T, HarnessError>,
) -> Result<T, HarnessError> {
    let span = detdiv_obs::span!(name);
    let result = f();
    detdiv_obs::info!(
        "experiment finished",
        experiment = name,
        elapsed_ms = span.elapsed().as_millis(),
        ok = result.is_ok(),
    );
    if result.is_ok() {
        // Coarse progress counter: the live scope sampler graphs it as
        // a rate, and a stalled run shows up as a flat line.
        detdiv_obs::incr_counter("eval/experiments_completed", 1);
    }
    if detdiv_obs::trace::armed() {
        // Periodic counter samples: one point per experiment step, so
        // the exported trace graphs pool progress as a time series.
        let stats = detdiv_par::global().stats();
        detdiv_obs::trace::counter("par/jobs_executed", stats.total_jobs());
        detdiv_obs::trace::counter("par/steals", stats.total_steals());
    }
    result
}

impl FullReport {
    /// Synthesizes a corpus for `config` and runs every experiment.
    ///
    /// # Errors
    ///
    /// Propagates the first failing synthesis or experiment.
    pub fn generate(config: &SynthesisConfig) -> Result<FullReport, HarnessError> {
        detdiv_obs::reset();
        detdiv_par::global().reset_stats();
        let corpus = {
            let _span = detdiv_obs::span!("synthesize");
            Corpus::synthesize(config)?
        };
        Self::experiments(&corpus)
    }

    /// Runs every experiment on an existing corpus.
    ///
    /// Telemetry is reset on entry, so the attached
    /// [`FullReport::telemetry`] snapshot covers exactly this run (it
    /// excludes corpus synthesis, which the caller performed; use
    /// [`FullReport::generate`] to include it).
    ///
    /// # Errors
    ///
    /// Propagates the first failing experiment.
    pub fn generate_on(corpus: &Corpus) -> Result<FullReport, HarnessError> {
        detdiv_obs::reset();
        detdiv_par::global().reset_stats();
        Self::experiments(corpus)
    }

    /// Runs every experiment without resetting telemetry, then attaches
    /// the accumulated snapshot.
    fn experiments(corpus: &Corpus) -> Result<FullReport, HarnessError> {
        // The audit log's run identity: every cell record that follows
        // carries this corpus fingerprint, and `flightcheck` filters on
        // it before reconstructing the paper maps.
        if detdiv_flight::armed() {
            detdiv_flight::record(
                detdiv_flight::HeaderRecord {
                    corpus: detdiv_cache::fingerprint_stream(corpus.training()),
                    training_len: corpus.training().len(),
                }
                .render(),
            );
        }
        let config = corpus.config().clone();
        let mid_anomaly = (config.min_anomaly() + config.max_anomaly()) / 2;
        let mid_window = mid_anomaly
            .max(config.min_window() + 1)
            .min(config.max_window());
        let suppression = SuppressionConfig {
            windows: vec![config.min_window(), mid_window],
            anomaly_sizes: vec![config.min_anomaly(), mid_anomaly],
            ..SuppressionConfig::default()
        };
        let mut report = {
            let _report_span = detdiv_obs::span!("report");
            let fig2 = step("fig2_incident_span", || fig2_incident_span(5, 8))?;
            // Figures 3–6 share one parallel fan-out over every
            // (detector, DW) grid row; `paper_four()` order is figure
            // order (L&B, Markov, Stide, neural network).
            let mut paper_maps = step("fig3_6_coverage", || paper_coverage_maps(corpus))?;
            let fig6 = paper_maps.pop().expect("four paper maps");
            let fig5 = paper_maps.pop().expect("four paper maps");
            let fig4 = paper_maps.pop().expect("four paper maps");
            let fig3 = paper_maps.pop().expect("four paper maps");
            FullReport {
                anomalies: corpus
                    .anomalies()
                    .map(|a| (a.len(), a.to_string()))
                    .collect(),
                fig2,
                fig3,
                fig4,
                fig5,
                fig6,
                fig7: step("fig7_similarity", || Ok(fig7_similarity()))?,
                comb1: step("comb1_subset", || comb1_stide_markov_subset(corpus))?,
                comb2: step("comb2_union", || comb2_stide_lb_union(corpus))?,
                comb3: step("comb3_suppression", || {
                    comb3_suppression(corpus, &suppression)
                })?,
                abl1: step("abl1_semantics", || abl1_maximal_response_semantics(corpus))?,
                abl2: step("abl2_lfc", || {
                    abl2_locality_frame_count(corpus, mid_window, mid_anomaly, 4096, 3)
                })?,
                abl3: step("abl3_nn_sensitivity", || {
                    abl3_nn_sensitivity(corpus, mid_window, mid_anomaly)
                })?,
                nat1: step("nat1_census", || {
                    nat1_census(100, 200, config.max_anomaly().min(8))
                })?,
                ext1: step("ext1_extensions", || ext1_extended_families(corpus))?,
                div1: step("div1_diversity", || div1_diversity_matrix(corpus))?,
                masq1: step("masq1_masquerade", || masq1_lane_brodley_masquerade(5, 11))?,
                fn1: step("fn1_sweeps", || {
                    fn1_threshold_sweeps(corpus, mid_anomaly, mid_window)
                })?,
                ana1_lb: step("ana1_response_map", || {
                    ana1_response_map(corpus, &DetectorKind::LaneBrodley)
                })?,
                telemetry: TelemetrySnapshot::default(),
                config,
            }
        };
        // Mirror the pool's accumulated per-worker counters into the
        // run telemetry, so the snapshot records how the grid work was
        // executed (worker count, job distribution, steals, parks) —
        // not just how long it took.
        let pool_stats = detdiv_par::global().stats();
        detdiv_obs::set_counter("par/maps_run", pool_stats.maps_run);
        detdiv_obs::set_counter("par/workers", pool_stats.workers.len() as u64);
        detdiv_obs::set_counter("par/jobs_executed", pool_stats.total_jobs());
        detdiv_obs::set_counter("par/steals", pool_stats.total_steals());
        detdiv_obs::set_counter("par/idle_parks", pool_stats.total_idle_parks());
        detdiv_obs::set_counter("par/busy_ns", pool_stats.total_busy_nanos());
        for (id, worker) in pool_stats.workers.iter().enumerate() {
            detdiv_obs::set_counter(
                &format!("par/worker{id}/jobs_executed"),
                worker.jobs_executed,
            );
            detdiv_obs::set_counter(&format!("par/worker{id}/steals"), worker.steals);
            detdiv_obs::set_counter(&format!("par/worker{id}/idle_parks"), worker.idle_parks);
            detdiv_obs::set_counter(&format!("par/worker{id}/busy_ns"), worker.busy_nanos);
        }
        // Mirror the model cache's live occupancy (the hit/miss/wait
        // event counters were already incremented by `detdiv-cache` as
        // they happened, so they are in the snapshot via the ordinary
        // counter path).
        if detdiv_cache::enabled() {
            let cache_stats = detdiv_cache::global().stats();
            detdiv_obs::set_counter("cache/resident_bytes", cache_stats.resident_bytes);
            detdiv_obs::set_counter("cache/resident_entries", cache_stats.entries as u64);
        }
        // Mirror the fault-injection and supervision counters. The
        // resil crate sits below obs and keeps its own atomics; this is
        // the layer that depends on both, so the snapshot records what
        // the supervised sweep absorbed (all zero on fault-free runs).
        let resil_stats = detdiv_resil::stats();
        detdiv_obs::set_counter("resil/injected_panics", resil_stats.injected_panics);
        detdiv_obs::set_counter("resil/injected_io_errors", resil_stats.injected_io_errors);
        detdiv_obs::set_counter("resil/injected_stalls", resil_stats.injected_stalls);
        detdiv_obs::set_counter("resil/supervised_cells", resil_stats.supervised_cells);
        detdiv_obs::set_counter("resil/retries", resil_stats.retries);
        detdiv_obs::set_counter("resil/degraded_cells", resil_stats.degraded_cells);
        // Snapshot after the report span closes, so `span/report`
        // itself is part of the attached telemetry.
        report.telemetry = detdiv_obs::snapshot();
        Ok(report)
    }

    /// Renders the whole report as the text the `regenerate` binary
    /// prints and `EXPERIMENTS.md` quotes.
    pub fn render_text(&self) -> String {
        let mut out = String::new();

        let _ = writeln!(out, "\n=== Corpus ===");
        let _ = writeln!(
            out,
            "training: ~{} elements, alphabet {}, noise {:.3}, rare threshold {:.4}",
            self.config.training_len(),
            self.config.alphabet_size(),
            self.config.noise(),
            self.config.rare_threshold()
        );
        for (size, a) in &self.anomalies {
            let _ = writeln!(out, "  MFS size {size}: {a}");
        }

        let _ = writeln!(
            out,
            "\n=== FIG2 — boundary sequences and the incident span (DW 5, AS 8) ==="
        );
        let _ = writeln!(
            out,
            "{}\nboundary sequences per side: {}; span length: {}",
            self.fig2.rendering, self.fig2.boundary_sequences_per_side, self.fig2.span_len
        );

        let _ = writeln!(
            out,
            "\n=== FIG3 — detection coverage, Lane & Brodley (paper: blind everywhere) ==="
        );
        let _ = writeln!(out, "{}", self.fig3.render());
        let _ = writeln!(
            out,
            "\n=== FIG4 — detection coverage, Markov (paper: detects everywhere) ==="
        );
        let _ = writeln!(out, "{}", self.fig4.render());
        let _ = writeln!(
            out,
            "\n=== FIG5 — detection coverage, Stide (paper: detects iff DW >= AS) ==="
        );
        let _ = writeln!(out, "{}", self.fig5.render());
        let _ = writeln!(
            out,
            "\n=== FIG6 — detection coverage, neural network (paper: mimics Markov) ==="
        );
        let _ = writeln!(out, "{}", self.fig6.render());

        let _ = writeln!(out, "\n=== FIG7 — L&B similarity worked example ===");
        let _ = writeln!(
            out,
            "identical size-5 sequences:     Sim = {} (max {})\nfinal-element mismatch:         Sim = {} -> response {:.3} (\"close to normal\")",
            self.fig7.sim_identical, self.fig7.sim_max, self.fig7.sim_final_mismatch,
            self.fig7.response_final_mismatch
        );

        let _ = writeln!(
            out,
            "\n=== COMB1 — Stide coverage is a subset of Markov coverage ==="
        );
        let _ = writeln!(
            out,
            "subset holds: {}; detections stide={} markov={}; jaccard {:.3}",
            self.comb1.stide_subset_of_markov,
            self.comb1.stide_detections,
            self.comb1.markov_detections,
            self.comb1.jaccard
        );

        let _ = writeln!(
            out,
            "\n=== COMB2 — Stide ∪ L&B affords no detection gain ==="
        );
        let _ = writeln!(
            out,
            "L&B detections: {}; gain over Stide: {}; union equals Stide: {}",
            self.comb2.lb_detections, self.comb2.lb_gain_over_stide, self.comb2.union_equals_stide
        );

        let _ = writeln!(
            out,
            "\n=== COMB3 — Markov detects, Stide suppresses false alarms ==="
        );
        let _ = writeln!(out, "{}", render_suppression_table(&self.comb3));

        let _ = writeln!(
            out,
            "\n=== ABL1 — maximal-response semantics (DESIGN.md §2.3) ==="
        );
        let _ = writeln!(
            out,
            "tolerant detections: {}; strict detections: {}; strict region equals Stide's: {}",
            self.abl1.detections.0, self.abl1.detections.1, self.abl1.strict_equals_stide
        );

        let _ = writeln!(
            out,
            "\n=== ABL2 — Stide's locality frame count (suppressed by the paper's §5.5) ==="
        );
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>5} {:>13}",
            "frame", "threshold", "hit", "false alarms"
        );
        for r in &self.abl2 {
            let _ = writeln!(
                out,
                "{:>6} {:>10.2} {:>5} {:>13}",
                r.frame,
                r.threshold,
                if r.hit { "yes" } else { "no" },
                r.false_alarms
            );
        }

        let _ = writeln!(
            out,
            "\n=== ABL3 — neural-network parameter sensitivity (§7 caveat) ==="
        );
        let _ = writeln!(
            out,
            "{:>7} {:>6} {:>9} {:>7} {:>13} {:>8}",
            "hidden", "lr", "momentum", "epochs", "max response", "capable"
        );
        for r in &self.abl3 {
            let _ = writeln!(
                out,
                "{:>7} {:>6.3} {:>9.2} {:>7} {:>13.4} {:>8}",
                r.hidden,
                r.learning_rate,
                r.momentum,
                r.epochs,
                r.max_response,
                if r.capable { "yes" } else { "no" }
            );
        }

        let _ = writeln!(
            out,
            "\n=== NAT1 — minimal foreign sequences in natural(-looking) traces (§4.1) ==="
        );
        let _ = writeln!(
            out,
            "training events: {}\n{}",
            self.nat1.training_events, self.nat1.report
        );

        let _ = writeln!(
            out,
            "\n=== EXT1 — extension families: t-stide and the HMM (Warrender et al. 1999) ==="
        );
        let _ = writeln!(out, "{}", self.ext1.tstide_map.render());
        let _ = writeln!(out, "{}", self.ext1.hmm_map.render());
        let _ = writeln!(out, "{}", self.ext1.ripper_map.render());
        let _ = writeln!(
            out,
            "t-stide contains Stide: {}; t-stide equals Markov: {}; HMM equals Markov: {}; RIPPER equals Markov: {}",
            self.ext1.tstide_contains_stide,
            self.ext1.tstide_equals_markov,
            self.ext1.hmm_equals_markov,
            self.ext1.ripper_equals_markov
        );

        let _ = writeln!(
            out,
            "\n=== DIV1 — pairwise diversity matrix over all families ==="
        );
        let _ = writeln!(out, "{}", self.div1.matrix.render());
        let _ = writeln!(out, "no-coverage-gain pairs: {:?}", self.div1.no_gain_pairs);
        let _ = writeln!(
            out,
            "subset pairs (smaller ⊂ larger): {:?}",
            self.div1.subset_pairs
        );
        let _ = writeln!(
            out,
            "complementary pairs: {:?}",
            self.div1.complementary_pairs
        );

        let _ = writeln!(
            out,
            "\n=== MASQ1 — Lane & Brodley on its home turf (masquerade detection) ==="
        );
        let _ = writeln!(
            out,
            "mean profile similarity at DW {}: self {:.3}, masquerader {:.3} (margin {:.3}); segment-separable: {}",
            self.masq1.window,
            self.masq1.self_similarity,
            self.masq1.masquerader_similarity,
            self.masq1.margin,
            self.masq1.separable
        );

        let _ = writeln!(
            out,
            "\n=== FN1 — footnote 1: the maximum response always registers ==="
        );
        for sweep in &self.fn1 {
            let _ = writeln!(
                out,
                "{:<16} in-span max {:.4}; hit survives every threshold <= max: {}",
                sweep.detector, sweep.in_span_max, sweep.hit_never_lost_below_max
            );
        }

        let _ = writeln!(
            out,
            "\n=== ANA1 — max in-span responses under Figure 3 (Lane & Brodley) ==="
        );
        let _ = writeln!(out, "{}", self.ana1_lb.render());

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end smoke test of the full report on a reduced grid.
    /// (The paper-scale run lives in the `regenerate` binary.)
    #[test]
    fn full_report_generates_and_renders() {
        let config = SynthesisConfig::builder()
            .training_len(60_000)
            .anomaly_sizes(2..=4)
            .windows(2..=5)
            .background_len(512)
            .plant_repeats(4)
            .seed(3)
            .build()
            .unwrap();
        let report = FullReport::generate(&config).unwrap();

        // Headline shapes.
        assert_eq!(report.fig3.detection_count(), 0);
        assert_eq!(report.fig4.detection_count(), 3 * 4);
        assert!(report.comb1.stide_subset_of_markov);
        assert_eq!(report.comb2.lb_gain_over_stide, 0);
        assert!(report.abl1.strict_equals_stide);

        let text = report.render_text();
        for needle in [
            "FIG3", "FIG4", "FIG5", "FIG6", "FIG7", "COMB1", "COMB2", "COMB3", "ABL1", "ABL2",
            "ABL3", "NAT1", "EXT1", "DIV1", "MASQ1", "FN1", "ANA1",
        ] {
            assert!(text.contains(needle), "missing section {needle}");
        }

        // JSON round-trip.
        let json = serde_json::to_string(&report).unwrap();
        let back: FullReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fig7.sim_final_mismatch, 10);
    }
}
