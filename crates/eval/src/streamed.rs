//! Streaming scoring mode for the evaluation pipeline.
//!
//! When enabled (`regenerate --stream`, or `DETDIV_STREAM=on` in the
//! environment), every coverage cell scores its test stream through a
//! [`detdiv_stream::ModelAdapter`] — one event at a time through the
//! push API — instead of one batch [`detdiv_core::TrainedModel::scores`]
//! call. Streamed scores are bit-identical to batch scores (the
//! adapter's contract, enforced by `detdiv-stream`'s differential
//! suite), so every downstream verdict, report and artifact byte is
//! unchanged; the CI stream gate regenerates artifacts in this mode and
//! `cmp`s them against the batch run.
//!
//! The mode is a process-wide switch (like the model cache's
//! `DETDIV_CACHE`), not a per-call parameter: the point is to swap the
//! scoring engine under the *entire* unchanged experiment suite. The
//! switch itself is the flight layer's armed-subsystem flag, so
//! `/healthz` reports the mode the pipeline reads.

/// Enables or disables streaming scoring process-wide.
pub fn set_stream_scoring(on: bool) {
    detdiv_flight::flags::set_stream_scoring(on);
}

/// Whether coverage evaluation currently scores through the streaming
/// adapter.
pub fn stream_scoring() -> bool {
    detdiv_flight::flags::stream_scoring()
}

/// Applies the `DETDIV_STREAM` environment variable (`on`/`1` enables,
/// `off`/`0` disables, unset leaves the current setting); returns the
/// resulting mode.
pub fn apply_stream_env() -> bool {
    match std::env::var("DETDIV_STREAM") {
        Ok(v) if v == "on" || v == "1" => set_stream_scoring(true),
        Ok(v) if v == "off" || v == "0" => set_stream_scoring(false),
        _ => {}
    }
    stream_scoring()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_round_trips() {
        // Other tests share the process; restore the initial state.
        let initial = stream_scoring();
        set_stream_scoring(true);
        assert!(stream_scoring());
        set_stream_scoring(false);
        assert!(!stream_scoring());
        set_stream_scoring(initial);
    }
}
