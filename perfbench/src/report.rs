//! Metric collection, order statistics, `/proc` readings and the JSON
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

/// One named metric with its unit, in print order.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics; names are unique.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push('}');
        out
    }
}

/// This thread's on-CPU time in nanoseconds (`CLOCK_THREAD_CPUTIME_ID`,
/// the scheduler's runtime, which leaves out time the hypervisor stole
/// from the vCPU). Only differences are meaningful.
pub fn cpu_ns() -> u64 {
    // `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU seconds since `start`, a [`cpu_ns`] reading.
pub fn cpu_since(start: u64) -> f64 {
    (cpu_ns() - start) as f64 / 1e9
}

/// Runs `f`, returning its value and the on-CPU seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = cpu_ns();
    let value = f();
    (value, cpu_since(started))
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of already sorted values; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `pct` percentile: the tail a
/// percentile rests on.
pub fn beyond(sorted: &[f64], pct: f64) -> usize {
    let p = percentile(sorted, pct);
    sorted.len() - sorted.partition_point(|&v| v <= p)
}

/// The wall clock of one run's measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
}

impl Budget {
    pub fn new() -> Budget {
        Budget {
            started: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether fewer than `min` repeats have run, or another repeat of
    /// typical length `unit` still ends by `until` seconds.
    pub fn another(&self, done: usize, min: usize, unit: f64, until: f64) -> bool {
        done < min || self.elapsed() + unit <= until
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Host noise readings taken at the start and end of a run: steal time
/// (clock ticks, all CPUs) and the 1/5/15-minute load averages.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    pub steal_ticks: u64,
    pub loadavg: [f64; 3],
}

impl HostSample {
    pub fn now() -> HostSample {
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let cpu = stat.lines().next()?.to_owned();
                cpu.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        let mut loadavg = [0.0; 3];
        if let Ok(raw) = std::fs::read_to_string("/proc/loadavg") {
            for (slot, field) in loadavg.iter_mut().zip(raw.split_whitespace()) {
                *slot = field.parse().unwrap_or(0.0);
            }
        }
        HostSample {
            steal_ticks,
            loadavg,
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of numbers.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(", "))
}

/// A finite number in full (shortest round-trip) precision; non-finite
/// values, which JSON cannot carry, become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(beyond(&sorted, 99.0), 10);
    }

    #[test]
    fn metrics_render_in_order_with_units() {
        let mut m = Metrics::default();
        m.set("b", 1.5, "s");
        m.set("a", 2.0, "count");
        m.set("b", 0.25, "s");
        assert_eq!(
            m.to_json(),
            r#"{"b": {"value": 0.25, "unit": "s"}, "a": {"value": 2, "unit": "count"}}"#
        );
    }
}
