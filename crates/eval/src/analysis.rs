//! Quantitative side-analyses: FN1 (the paper's footnote 1) and ANA1
//! (maximum-response maps underneath the binary coverage maps).

use detdiv_core::{evaluate_case, threshold_sweep, IncidentSpan, LabeledCase, RocPoint};
use detdiv_synth::Corpus;
use serde::{Deserialize, Serialize};

use crate::cached::trained_model;
use crate::error::HarnessError;
use crate::kinds::DetectorKind;

/// FN1 result: one detector's threshold sweep at one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Detector name.
    pub detector: String,
    /// Grid cell (AS, DW).
    pub anomaly_size: usize,
    /// Detector window.
    pub window: usize,
    /// The in-span maximum response.
    pub in_span_max: f64,
    /// Sweep points over thresholds `0.1, 0.2, .., 1.0` of the in-span
    /// maximum.
    pub points: Vec<RocPoint>,
    /// Footnote 1's claim: the hit survives at every threshold at or
    /// below the in-span maximum.
    pub hit_never_lost_below_max: bool,
}

/// FN1: "The maximum anomalous response will always register as an alarm
/// regardless of where the detection threshold is set." Sweeps the
/// detection threshold across the unit interval (scaled to the in-span
/// maximum) for each paper detector at one grid cell.
///
/// # Errors
///
/// Propagates synthesis and evaluation failures.
pub fn fn1_threshold_sweeps(
    corpus: &Corpus,
    anomaly_size: usize,
    window: usize,
) -> Result<Vec<SweepResult>, HarnessError> {
    let case = corpus.case(anomaly_size, window)?;
    let test = case.test_stream();
    let span = IncidentSpan::compute(
        test.len(),
        window,
        case.injection_position(),
        case.anomaly_len(),
    )?;
    // Each paper detector sweeps independently: fan the four out;
    // results come back in `paper_four()` order. Models come from the
    // single-flight cache (the coverage grid usually trained them
    // already).
    let kinds = DetectorKind::paper_four();
    detdiv_par::global().try_map(&kinds, |kind| {
        let det = trained_model(case.training(), kind, window);
        let scores = det.scores(test);
        let in_span_max = span
            .slice(&scores)?
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let thresholds: Vec<f64> = (1..=10)
            .map(|i| in_span_max * i as f64 / 10.0)
            .filter(|&t| t > 0.0)
            .collect();
        let points = threshold_sweep(&scores, span, &thresholds)?;
        let hit_never_lost_below_max = points.iter().all(|p| p.hit);
        Ok(SweepResult {
            detector: det.name().to_owned(),
            anomaly_size,
            window,
            in_span_max,
            points,
            hit_never_lost_below_max,
        })
    })
}

/// ANA1 result: the maximum in-span response per grid cell, for one
/// detector — the analogue signal underneath the binary coverage map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseMap {
    /// Detector name.
    pub detector: String,
    /// Anomaly sizes, ascending.
    pub anomaly_sizes: Vec<usize>,
    /// Detector windows, ascending.
    pub windows: Vec<usize>,
    /// Row-major by window, then anomaly size.
    pub max_responses: Vec<f64>,
}

impl ResponseMap {
    /// The maximum response at cell (AS, DW), if on the grid.
    pub fn get(&self, anomaly_size: usize, window: usize) -> Option<f64> {
        let ai = self.anomaly_sizes.iter().position(|&a| a == anomaly_size)?;
        let wi = self.windows.iter().position(|&w| w == window)?;
        Some(self.max_responses[wi * self.anomaly_sizes.len() + ai])
    }

    /// Renders the map with two-digit percent cells (`..` for 0).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Max in-span response of {} (percent; y: DW, x: AS)\n",
            self.detector
        );
        for (wi, &w) in self.windows.iter().enumerate().rev() {
            out.push_str(&format!("{w:>4} |"));
            for ai in 0..self.anomaly_sizes.len() {
                let r = self.max_responses[wi * self.anomaly_sizes.len() + ai];
                if r <= 0.0 {
                    out.push_str("  ..");
                } else {
                    out.push_str(&format!(" {:>3.0}", r * 100.0));
                }
            }
            out.push('\n');
        }
        out.push_str("      ");
        for &a in &self.anomaly_sizes {
            out.push_str(&format!("{a:>4}"));
        }
        out.push('\n');
        out
    }
}

/// ANA1: computes the maximum in-span response for every grid cell —
/// where the coverage map says only star/no-star, this shows how close
/// each near-miss came (e.g. Lane & Brodley's `2/(DW+1)` weak-response
/// ridge along `DW = AS`).
///
/// # Errors
///
/// Propagates synthesis and evaluation failures.
pub fn ana1_response_map(
    corpus: &Corpus,
    kind: &DetectorKind,
) -> Result<ResponseMap, HarnessError> {
    let config = corpus.config();
    let anomaly_sizes: Vec<usize> = config.anomaly_sizes().collect();
    let windows: Vec<usize> = config.windows().collect();
    // One row per window, like the coverage grid: train once, score
    // every AS, then flatten the rows in window order (the map's
    // row-major layout).
    let rows = detdiv_par::global().try_map(&windows, |&window| {
        let det = trained_model(corpus.training(), kind, window);
        let mut row = Vec::with_capacity(anomaly_sizes.len());
        for &anomaly_size in &anomaly_sizes {
            let case = corpus.case(anomaly_size, window)?;
            let outcome = evaluate_case(det.as_ref(), &case)?;
            row.push(outcome.max_response());
        }
        Ok::<_, HarnessError>(row)
    })?;
    let max_responses = rows.into_iter().flatten().collect();
    Ok(ResponseMap {
        detector: kind.name().to_owned(),
        anomaly_sizes,
        windows,
        max_responses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_synth::SynthesisConfig;

    fn corpus() -> Corpus {
        let config = SynthesisConfig::builder()
            .training_len(60_000)
            .anomaly_sizes(2..=4)
            .windows(2..=6)
            .background_len(512)
            .plant_repeats(4)
            .seed(17)
            .build()
            .unwrap();
        Corpus::synthesize(&config).unwrap()
    }

    #[test]
    fn fn1_hits_survive_below_the_maximum() {
        let sweeps = fn1_threshold_sweeps(&corpus(), 3, 4).unwrap();
        assert_eq!(sweeps.len(), 4);
        for s in &sweeps {
            if s.in_span_max > 0.0 {
                assert!(s.hit_never_lost_below_max, "{}", s.detector);
            }
        }
        // Stide's in-span max is exactly 1 here (DW >= AS).
        let stide = sweeps.iter().find(|s| s.detector == "stide").unwrap();
        assert_eq!(stide.in_span_max, 1.0);
    }

    #[test]
    fn ana1_lane_brodley_weak_ridge() {
        let corpus = corpus();
        let map = ana1_response_map(&corpus, &DetectorKind::LaneBrodley).unwrap();
        // Below the diagonal (DW < AS): every in-span window is a known
        // sequence, response exactly 0.
        assert_eq!(map.get(4, 2).unwrap(), 0.0);
        assert_eq!(map.get(3, 2).unwrap(), 0.0);
        // At DW = AS the best normal match differs in one edge element:
        // response 2/(DW+1), strictly between 0 and 1.
        let at_diag = map.get(4, 4).unwrap();
        assert!((at_diag - 2.0 / 5.0).abs() < 1e-9, "got {at_diag}");
        let at_diag3 = map.get(3, 3).unwrap();
        assert!((at_diag3 - 2.0 / 4.0).abs() < 1e-9, "got {at_diag3}");
        // Never maximal anywhere.
        assert!(map.max_responses.iter().all(|&r| r < 1.0));
        let text = map.render();
        assert!(text.contains("lane-brodley"));
        assert!(text.contains(".."));
    }

    #[test]
    fn ana1_stide_is_binary() {
        let corpus = corpus();
        let map = ana1_response_map(&corpus, &DetectorKind::Stide).unwrap();
        for &r in &map.max_responses {
            assert!(r == 0.0 || r == 1.0, "stide response {r}");
        }
        assert_eq!(map.get(2, 2).unwrap(), 1.0);
        assert_eq!(map.get(4, 3).unwrap(), 0.0);
    }
}
