//! Shared helpers for the `detdiv` harness binaries: the `DETDIV_*`
//! environment preflight every binary runs first.

#![forbid(unsafe_code)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

/// Validates the `DETDIV_*` environment knobs the harness binaries
/// honour, so a typo (`DETDIV_THREADS=four`, `DETDIV_LOG=quiet`)
/// fails fast with a one-line diagnostic instead of being silently
/// replaced by a default deep inside the libraries.
///
/// `DETDIV_FAULT` is deliberately not checked here: arming it is the
/// caller's job ([`detdiv_resil::arm_from_env`] already returns a
/// typed parse error).
///
/// # Errors
///
/// Returns a human-readable description of the first malformed
/// variable; callers print it to stderr and exit nonzero.
pub fn preflight_env() -> Result<(), String> {
    for name in ["DETDIV_THREADS", "DETDIV_CACHE_CAP", "DETDIV_GUARD_BYTES"] {
        if let Some(value) = env_value(name)? {
            match value.trim().parse::<usize>() {
                Ok(n) if n > 0 => {}
                _ => {
                    return Err(format!("{name}: not a positive integer: {value:?}"));
                }
            }
        }
    }
    if let Some(value) = env_value("DETDIV_LOG")? {
        if detdiv_obs::Level::parse(&value).is_none() {
            return Err(format!(
                "DETDIV_LOG: unknown level {value:?} (expected off, error, warn, info, debug or trace)"
            ));
        }
    }
    if let Some(value) = env_value("DETDIV_SERVE")? {
        use std::net::ToSocketAddrs as _;
        let resolves = value
            .trim()
            .to_socket_addrs()
            .map(|mut addrs| addrs.next().is_some())
            .unwrap_or(false);
        if !resolves {
            return Err(format!(
                "DETDIV_SERVE: not a listen address: {value:?} (expected HOST:PORT, e.g. 127.0.0.1:9184)"
            ));
        }
    }
    if let Some(value) = env_value("DETDIV_SCOPE_INTERVAL_MS")? {
        match value.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => {}
            _ => {
                return Err(format!(
                    "DETDIV_SCOPE_INTERVAL_MS: not a positive integer: {value:?}"
                ));
            }
        }
    }
    if let Some(value) = env_value("DETDIV_FLIGHT")? {
        let path = value.trim();
        if path.ends_with('/') || std::path::Path::new(path).is_dir() {
            return Err(format!(
                "DETDIV_FLIGHT: expected a dump file path, got a directory: {value:?}"
            ));
        }
    }
    Ok(())
}

/// Reads one environment variable: `None` when unset or empty, an
/// error when not valid Unicode.
fn env_value(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(v) if v.trim().is_empty() => Ok(None),
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name}: not valid Unicode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test mutates all the inspected variables serially: separate
    /// tests would race each other through the process-global
    /// environment.
    #[test]
    fn env_preflight_accepts_good_and_rejects_bad() {
        for name in [
            "DETDIV_THREADS",
            "DETDIV_CACHE_CAP",
            "DETDIV_GUARD_BYTES",
            "DETDIV_LOG",
        ] {
            std::env::remove_var(name);
        }
        assert!(preflight_env().is_ok(), "unset environment is fine");

        std::env::set_var("DETDIV_THREADS", "4");
        std::env::set_var("DETDIV_CACHE_CAP", "128");
        std::env::set_var("DETDIV_LOG", "debug");
        assert!(preflight_env().is_ok(), "well-formed values pass");

        std::env::set_var("DETDIV_THREADS", "four");
        let err = preflight_env().unwrap_err();
        assert!(err.contains("DETDIV_THREADS"), "{err}");
        std::env::set_var("DETDIV_THREADS", "0");
        assert!(preflight_env().is_err(), "zero threads is rejected");
        std::env::remove_var("DETDIV_THREADS");

        std::env::set_var("DETDIV_CACHE_CAP", "-3");
        let err = preflight_env().unwrap_err();
        assert!(err.contains("DETDIV_CACHE_CAP"), "{err}");
        std::env::remove_var("DETDIV_CACHE_CAP");

        // A unit suffix is a typo, not a budget: `GuardConfig::from_env`
        // would drop it and fall back to a default.
        std::env::set_var("DETDIV_GUARD_BYTES", "65536");
        assert!(preflight_env().is_ok(), "a byte count passes");
        std::env::set_var("DETDIV_GUARD_BYTES", "64k");
        let err = preflight_env().unwrap_err();
        assert!(err.contains("DETDIV_GUARD_BYTES"), "{err}");
        std::env::remove_var("DETDIV_GUARD_BYTES");

        std::env::set_var("DETDIV_LOG", "quiet");
        let err = preflight_env().unwrap_err();
        assert!(err.contains("DETDIV_LOG"), "{err}");
        std::env::remove_var("DETDIV_LOG");

        std::env::set_var("DETDIV_SERVE", "127.0.0.1:9184");
        assert!(preflight_env().is_ok(), "valid serve address passes");
        std::env::set_var("DETDIV_SERVE", "localhost:0");
        assert!(preflight_env().is_ok(), "resolvable host with port passes");
        std::env::set_var("DETDIV_SERVE", "not a socket");
        let err = preflight_env().unwrap_err();
        assert!(err.contains("DETDIV_SERVE"), "{err}");
        std::env::remove_var("DETDIV_SERVE");

        std::env::set_var("DETDIV_SCOPE_INTERVAL_MS", "250");
        assert!(preflight_env().is_ok(), "positive interval passes");
        std::env::set_var("DETDIV_SCOPE_INTERVAL_MS", "0");
        let err = preflight_env().unwrap_err();
        assert!(err.contains("DETDIV_SCOPE_INTERVAL_MS"), "{err}");
        std::env::set_var("DETDIV_SCOPE_INTERVAL_MS", "fast");
        assert!(preflight_env().is_err(), "non-numeric interval rejected");
        std::env::remove_var("DETDIV_SCOPE_INTERVAL_MS");

        std::env::set_var("DETDIV_FLIGHT", "/tmp/detdiv-flight.jsonl");
        assert!(preflight_env().is_ok(), "file path passes");
        std::env::set_var("DETDIV_FLIGHT", "/tmp/");
        let err = preflight_env().unwrap_err();
        assert!(err.contains("DETDIV_FLIGHT"), "{err}");
        std::env::remove_var("DETDIV_FLIGHT");

        assert!(preflight_env().is_ok(), "clean again after the sweep");
    }
}
