//! The host-speed reference: a fixed kernel of the benchmark's own,
//! timed between repeats, that reads how fast the shared host runs
//! hash-table work at the moment.
//!
//! The kernel does what n-gram training and scoring do — count every
//! window of a symbol sequence in a `HashMap` keyed by the window, then
//! look every window up — on a fixed input. The program never runs it,
//! so a change to the program cannot move it; only the host can.
//! [`NOMINAL_S`] divided by its mean over a phase of a run is that
//! phase's host-speed factor (see `README.md`, "The host-speed
//! reference").

use std::collections::HashMap;
use std::hint::black_box;

use crate::report::{json_list, json_num, timed, Metrics};

/// The kernel's mean on-CPU time on the 2-vCPU x86-64 VM the bounds
/// were set on. Any fixed value would do: it only keeps adjusted times
/// near the seconds that VM reads.
pub const NOMINAL_S: f64 = 0.0050;
/// Symbols in the kernel's sequence.
const LEN: u64 = 60_000;
/// Symbols in the kernel's alphabet.
const ALPHABET: u64 = 8;
/// Width of the counted windows.
const WIDTH: usize = 8;
/// Seconds of measured work per sample in [`Reference::pace`]: the
/// reference then costs about 3 % of a run.
const PACE_S: f64 = 0.15;

/// Samples of the kernel taken through a run.
#[derive(Debug)]
pub struct Reference {
    sequence: Vec<u16>,
    samples: Vec<f64>,
    /// Measured seconds not yet matched by a sample.
    owed: f64,
}

impl Reference {
    pub fn new() -> Reference {
        // splitmix64 of the position over runs of three: repeated
        // windows, as in the synthesized training data.
        let sequence = (0..LEN)
            .map(|i| {
                let mut x = (i / 3).wrapping_add(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                ((x ^ (x >> 31)) % ALPHABET) as u16
            })
            .collect();
        Reference {
            sequence,
            samples: Vec::new(),
            owed: 0.0,
        }
    }

    /// Runs the kernel `n` times, recording each run's on-CPU seconds.
    pub fn take(&mut self, n: usize) {
        for _ in 0..n {
            let ((), seconds) = timed(|| {
                let mut counts: HashMap<Vec<u16>, u32> = HashMap::new();
                for window in self.sequence.windows(WIDTH) {
                    *counts.entry(window.to_vec()).or_default() += 1;
                }
                let mut seen = 0u64;
                for window in self.sequence.windows(WIDTH) {
                    seen += u64::from(counts.get(window).copied().unwrap_or(0));
                }
                black_box((counts.len(), seen));
            });
            self.samples.push(seconds);
        }
    }

    /// Notes `seconds` more of measured work and takes one sample for
    /// every [`PACE_S`] of it, so the samples follow the work through
    /// the run however long each repeat is.
    pub fn pace(&mut self, seconds: f64) {
        self.owe(seconds);
        while self.owed >= PACE_S {
            self.owed -= PACE_S;
            self.take(1);
        }
    }

    /// Notes `seconds` more of measured work, sampling for it at the
    /// next [`Reference::pace`].
    pub fn owe(&mut self, seconds: f64) {
        self.owed += seconds;
    }

    /// The kernel's mean time. The host switches between a fast and a
    /// slow mode every few seconds, so the samples are bimodal; their
    /// mean follows the share of time spent in each mode, where their
    /// median jumps from one mode to the other.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len().max(1) as f64
    }

    /// The host-speed factor: [`NOMINAL_S`] ÷ the kernel's mean. Above 1
    /// the host ran faster than nominal, below 1 slower.
    pub fn factor(&self) -> f64 {
        NOMINAL_S / self.mean()
    }

    /// The samples, their mean and the factor, as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nominal_s\": {}, \"mean_s\": {}, \"factor\": {}, \"samples\": {}}}",
            json_num(NOMINAL_S),
            json_num(self.mean()),
            json_num(self.factor()),
            json_list(&self.samples)
        )
    }
}

/// Sets each end-to-end timing metric at nominal host speed and returns
/// the figures as measured, as a JSON object for the run context. Each
/// entry is (name, measured value, unit, the factor of the phase it was
/// measured in); a rate (`ev/s`) is divided by the factor, a time
/// multiplied: a phase on a host running 1.2 times faster than nominal
/// took 1/1.2 of the nominal time.
pub fn set_adjusted(
    metrics: &mut Metrics,
    measured: &[(&'static str, f64, &'static str, f64)],
) -> String {
    let mut raw = Vec::new();
    for &(name, value, unit, factor) in measured {
        let adjusted = if unit == "ev/s" {
            value / factor
        } else {
            value * factor
        };
        metrics.set(name, adjusted, unit);
        raw.push((name, json_num(value)));
    }
    crate::json_object(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_takes_one_sample_per_pace_s_of_work() {
        let mut host = Reference::new();
        host.pace(2.5 * PACE_S);
        assert_eq!(host.samples.len(), 2);
        host.owe(PACE_S);
        assert_eq!(host.samples.len(), 2);
        host.pace(0.0);
        assert_eq!(host.samples.len(), 3);
        assert!(host.factor() > 0.0);
    }

    #[test]
    fn times_are_multiplied_and_rates_divided_by_the_factor() {
        let mut metrics = Metrics::default();
        let measured = set_adjusted(
            &mut metrics,
            &[("t", 2.0, "s", 0.5), ("r", 100.0, "ev/s", 0.5)],
        );
        assert_eq!(metrics.0[0].value, 1.0);
        assert_eq!(metrics.0[1].value, 200.0);
        assert_eq!(measured, r#"{"t": 2, "r": 100}"#);
    }
}
