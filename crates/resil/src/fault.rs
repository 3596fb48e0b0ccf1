//! Deterministic, seeded fault injection at named sites.
//!
//! A [`FaultPlan`] is armed process-wide (from `DETDIV_FAULT` or
//! programmatically). Instrumented code marks *sites* — `point("train/
//! stide")` in a training loop, `io_point("io/atomic_write")` in a file
//! writer — and the plan decides, per hit, whether to inject a fault
//! and which kind. The decision is a pure function of
//! `(seed, site, hit-index)`: rerunning the same workload with the same
//! seed trips exactly the same hits, which is what makes chaos runs
//! debuggable and the CI chaos gate reproducible.
//!
//! Disarmed (the default), every site costs one relaxed atomic load.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cells;
use crate::fnv::fnv1a;

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` with a message naming the site and hit index.
    Panic,
    /// A synthetic [`io::Error`] (only at [`io_point`] sites; a plain
    /// [`point`] converts it into a panic carrying the same message, so
    /// non-I/O sites still exercise their unwind path).
    Io,
    /// An artificial stall of the plan's `stall` duration.
    Stall,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Stall => "stall",
        })
    }
}

/// A seeded, replayable fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-hit decision function.
    pub seed: u64,
    /// Per-hit injection probability in `[0, 1]`.
    pub rate: f64,
    /// Kinds to draw from (non-empty; drawn uniformly and
    /// deterministically per hit).
    pub kinds: Vec<FaultKind>,
    /// Duration of an injected [`FaultKind::Stall`].
    pub stall: Duration,
}

impl FaultPlan {
    /// A plan injecting `kinds` at `rate` under `seed`, with the
    /// default 2 ms stall.
    pub fn new(seed: u64, rate: f64, kinds: Vec<FaultKind>) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            kinds,
            stall: Duration::from_millis(2),
        }
    }

    /// Parses the `DETDIV_FAULT` / `--fault` specification
    /// `seed:rate:kinds[:stall_ms]`, where `kinds` is a comma-joined
    /// subset of `panic`, `io`, `stall`, or the word `all`.
    ///
    /// Examples: `42:0.01:panic`, `7:0.005:panic,stall:5`,
    /// `1:1%:all`.
    ///
    /// # Errors
    ///
    /// Returns a one-line human-readable description of the first
    /// malformed field.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split(':');
        let seed: u64 = parts
            .next()
            .filter(|s| !s.trim().is_empty())
            .ok_or("missing seed (expected seed:rate:kinds[:stall_ms])")?
            .trim()
            .parse()
            .map_err(|e| format!("bad seed: {e}"))?;
        let rate_raw = parts
            .next()
            .ok_or("missing rate (expected seed:rate:kinds[:stall_ms])")?
            .trim();
        let rate: f64 = if let Some(percent) = rate_raw.strip_suffix('%') {
            percent
                .trim()
                .parse::<f64>()
                .map(|p| p / 100.0)
                .map_err(|e| format!("bad rate: {e}"))?
        } else {
            rate_raw.parse().map_err(|e| format!("bad rate: {e}"))?
        };
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate {rate} outside [0, 1]"));
        }
        let kinds_raw = parts
            .next()
            .ok_or("missing kinds (expected seed:rate:kinds[:stall_ms])")?
            .trim();
        let mut kinds = Vec::new();
        for kind in kinds_raw.split(',') {
            match kind.trim() {
                "panic" => kinds.push(FaultKind::Panic),
                "io" => kinds.push(FaultKind::Io),
                "stall" => kinds.push(FaultKind::Stall),
                "all" => {
                    kinds.extend([FaultKind::Panic, FaultKind::Io, FaultKind::Stall]);
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        kinds.dedup();
        if kinds.is_empty() {
            return Err("no fault kinds given".to_owned());
        }
        let stall = match parts.next() {
            Some(ms) => Duration::from_millis(
                ms.trim()
                    .parse()
                    .map_err(|e| format!("bad stall_ms: {e}"))?,
            ),
            None => Duration::from_millis(2),
        };
        if parts.next().is_some() {
            return Err("trailing fields after stall_ms".to_owned());
        }
        Ok(FaultPlan {
            seed,
            rate,
            kinds,
            stall,
        })
    }

    /// The deterministic injection decision for the `index`-th hit of
    /// `site`: `None` (no fault) or the kind to inject. Pure — the same
    /// `(seed, site, index)` always yields the same answer.
    pub fn decide(&self, site: &str, index: u64) -> Option<FaultKind> {
        if self.kinds.is_empty() || self.rate <= 0.0 {
            return None;
        }
        let mixed = splitmix64(self.seed ^ fnv1a(site.as_bytes()) ^ splitmix64(index));
        // 53 uniform mantissa bits → u in [0, 1).
        let u = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        // An independent draw picks the kind, so the kind sequence does
        // not correlate with the hit/miss sequence.
        let pick = splitmix64(mixed) as usize % self.kinds.len();
        Some(self.kinds[pick])
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Process-global arming.

static ARMED: AtomicBool = AtomicBool::new(false);

struct Injector {
    plan: Option<FaultPlan>,
    /// Per-site hit counters; only touched while armed.
    hits: HashMap<String, u64>,
}

fn injector() -> &'static Mutex<Injector> {
    static INJECTOR: std::sync::OnceLock<Mutex<Injector>> = std::sync::OnceLock::new();
    INJECTOR.get_or_init(|| {
        Mutex::new(Injector {
            plan: None,
            hits: HashMap::new(),
        })
    })
}

fn lock_injector() -> std::sync::MutexGuard<'static, Injector> {
    // An injected panic unwinding through a site can poison this mutex;
    // the guarded state is always consistent at that point.
    injector()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms `plan` process-wide. Hit indices continue from where they were;
/// call [`crate::reset_all`] first for a replay from hit 0.
pub fn arm(plan: FaultPlan) {
    let mut inj = lock_injector();
    inj.plan = Some(plan);
    drop(inj);
    ARMED.store(true, Ordering::Release);
}

/// Disarms fault injection; sites return to a single relaxed load.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    lock_injector().plan = None;
}

/// Whether a fault plan is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms from the `DETDIV_FAULT` environment variable if it is set.
/// Returns `Ok(true)` when a plan was armed, `Ok(false)` when the
/// variable is unset or empty.
///
/// # Errors
///
/// Returns the parse error for a malformed specification (callers
/// should exit non-zero rather than silently run without chaos).
pub fn arm_from_env() -> Result<bool, String> {
    match std::env::var("DETDIV_FAULT") {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan =
                FaultPlan::parse(&spec).map_err(|e| format!("DETDIV_FAULT {spec:?}: {e}"))?;
            arm(plan);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Zeroes every per-site hit index (see [`crate::reset_all`]).
pub(crate) fn reset_hits() {
    lock_injector().hits.clear();
}

thread_local! {
    /// Nesting depth of [`suppress`] guards on this thread. While
    /// non-zero, every fault site is inert — used by last-resort
    /// diagnostic paths (the flight recorder's crash dump runs inside
    /// a panic hook, where an injected panic would be a double panic
    /// and abort the process).
    static SUPPRESS_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII guard making every fault site on the current thread inert for
/// its lifetime. Produced by [`suppress`].
#[derive(Debug)]
pub struct SuppressGuard {
    _private: (),
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Suppresses fault injection on the current thread until the returned
/// guard drops. Nests. For code that must not become a fault site even
/// under an armed chaos plan: crash-dump writers running inside panic
/// hooks, where an injected panic would abort the whole process.
pub fn suppress() -> SuppressGuard {
    SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
    SuppressGuard { _private: () }
}

/// Claims the next hit of `site` and returns the armed plan's decision
/// (with the plan's stall duration), or `None` when disarmed / no
/// injection.
fn next_decision(site: &str) -> Option<(FaultKind, Duration, u64)> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    if SUPPRESS_DEPTH.with(std::cell::Cell::get) > 0 {
        return None;
    }
    let mut inj = lock_injector();
    let plan = inj.plan.clone()?;
    let counter = inj.hits.entry(site.to_owned()).or_insert(0);
    let index = *counter;
    *counter += 1;
    drop(inj);
    plan.decide(site, index)
        .map(|kind| (kind, plan.stall, index))
}

/// Pure query: what the armed plan would decide for the `index`-th hit
/// of `site`, without claiming a hit. `None` when disarmed.
pub fn would_inject(site: &str, index: u64) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let plan = lock_injector().plan.clone()?;
    plan.decide(site, index)
}

/// A named fault-injection site for non-I/O code (detector training,
/// scoring, cache fill). May panic or stall according to the armed
/// plan; disarmed it costs one relaxed atomic load.
///
/// # Panics
///
/// Panics when the armed plan injects [`FaultKind::Panic`] — or
/// [`FaultKind::Io`], which a non-I/O site surfaces as a panic carrying
/// the same "synthetic I/O error" message.
pub fn point(site: &str) {
    let Some((kind, stall, index)) = next_decision(site) else {
        return;
    };
    match kind {
        FaultKind::Stall => {
            cells().injected_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(stall);
        }
        FaultKind::Panic => {
            cells().injected_panics.fetch_add(1, Ordering::Relaxed);
            panic!("detdiv-resil: injected panic at {site} (hit {index})");
        }
        FaultKind::Io => {
            cells().injected_panics.fetch_add(1, Ordering::Relaxed);
            panic!("detdiv-resil: synthetic I/O error at non-I/O site {site} (hit {index})");
        }
    }
}

/// A named fault-injection site for I/O code (artifact writers). May
/// return a synthetic error, panic, or stall according to the armed
/// plan; disarmed it costs one relaxed atomic load.
///
/// # Errors
///
/// Returns a synthetic [`io::Error`] (kind `Other`) when the armed plan
/// injects [`FaultKind::Io`].
///
/// # Panics
///
/// Panics when the armed plan injects [`FaultKind::Panic`].
pub fn io_point(site: &str) -> io::Result<()> {
    let Some((kind, stall, index)) = next_decision(site) else {
        return Ok(());
    };
    match kind {
        FaultKind::Stall => {
            cells().injected_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(stall);
            Ok(())
        }
        FaultKind::Io => {
            cells().injected_io_errors.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::other(format!(
                "detdiv-resil: synthetic I/O error at {site} (hit {index})"
            )))
        }
        FaultKind::Panic => {
            cells().injected_panics.fetch_add(1, Ordering::Relaxed);
            panic!("detdiv-resil: injected panic at {site} (hit {index})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_forms() {
        let p = FaultPlan::parse("42:0.01:panic").unwrap();
        assert_eq!(p.seed, 42);
        assert!((p.rate - 0.01).abs() < 1e-12);
        assert_eq!(p.kinds, vec![FaultKind::Panic]);
        assert_eq!(p.stall, Duration::from_millis(2));

        let p = FaultPlan::parse("7:1%:panic,io,stall:5").unwrap();
        assert!((p.rate - 0.01).abs() < 1e-12);
        assert_eq!(
            p.kinds,
            vec![FaultKind::Panic, FaultKind::Io, FaultKind::Stall]
        );
        assert_eq!(p.stall, Duration::from_millis(5));

        let p = FaultPlan::parse("0:1:all").unwrap();
        assert_eq!(p.kinds.len(), 3);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "x:0.1:panic",
            "1:lots:panic",
            "1:2.0:panic",
            "1:-0.5:panic",
            "1:0.5:explode",
            "1:0.5:",
            "1:0.5:panic:abc",
            "1:0.5:panic:3:extra",
            "5",
            "5:0.5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn decisions_are_pure_and_site_dependent() {
        let plan = FaultPlan::new(9, 0.5, vec![FaultKind::Panic, FaultKind::Stall]);
        let a: Vec<_> = (0..64).map(|i| plan.decide("train/stide", i)).collect();
        let b: Vec<_> = (0..64).map(|i| plan.decide("train/stide", i)).collect();
        assert_eq!(a, b, "same (seed, site, index) must replay exactly");
        let other: Vec<_> = (0..64).map(|i| plan.decide("train/markov", i)).collect();
        assert_ne!(a, other, "sites must decorrelate");
        let reseeded = FaultPlan::new(10, 0.5, plan.kinds.clone());
        let c: Vec<_> = (0..64).map(|i| reseeded.decide("train/stide", i)).collect();
        assert_ne!(a, c, "seeds must decorrelate");
    }

    #[test]
    fn rate_is_respected_in_the_large() {
        let plan = FaultPlan::new(3, 0.1, vec![FaultKind::Panic]);
        let hits = (0..10_000)
            .filter(|&i| plan.decide("rate/site", i).is_some())
            .count();
        assert!(
            (700..=1300).contains(&hits),
            "~10% of 10k hits expected, got {hits}"
        );
        let never = FaultPlan::new(3, 0.0, vec![FaultKind::Panic]);
        assert!((0..1000).all(|i| never.decide("rate/site", i).is_none()));
    }

    #[test]
    fn parse_display_kind_roundtrip() {
        for kind in [FaultKind::Panic, FaultKind::Io, FaultKind::Stall] {
            let p = FaultPlan::parse(&format!("1:0.5:{kind}")).unwrap();
            assert_eq!(p.kinds, vec![kind]);
        }
    }
}
