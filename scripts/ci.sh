#!/usr/bin/env bash
# Local CI gate for the detdiv workspace.
#
# Runs the same checks a hosted pipeline would, in dependency order so
# the cheapest failures surface first:
#
#   1. cargo fmt --check      — formatting is canonical
#   2. cargo clippy, cargo doc — lints as errors across the workspace,
#                               rustdoc's included (every doc link
#                               resolves; RUSTDOCFLAGS="-D warnings"),
#                               and no member declares a dependency
#                               its src/ never names, or a
#                               dev-dependency its src/, tests/,
#                               examples/ and benches/ never name; and
#                               every HashMap<u64, …> in serve, guard
#                               and stream names BuildStreamHasher
#   3. cargo build --release  — the artifacts the paper run uses
#   4. cargo test -q          — every unit, integration, and doc test,
#                               then the benchmark's own smoke tests
#                               (perfbench/ is a package of its own,
#                               so the workspace run never builds it)
#   5. determinism gate       — the JSON report regenerated at
#                               DETDIV_THREADS=1 and =4 must be
#                               byte-identical (DETDIV_LOG=off so the
#                               telemetry snapshot is empty and carries
#                               no wall times). Both runs are executed
#                               with --trace armed: tracing must not
#                               perturb results (the trace files
#                               themselves carry wall times and are
#                               excluded from the comparison); the
#                               width-1 report and stdout must also
#                               match the sha256 pins in
#                               scripts/expected/regenerate_*.sha256
#   6. cache gate             — the report regenerated with the
#                               single-flight trained-model cache
#                               disabled (--no-cache) must be
#                               byte-identical to the cached run; the
#                               detector-contract conformance suite
#                               runs explicitly; and a telemetry-on
#                               cached run must record a non-zero
#                               cache/hits counter (a silent cache is
#                               a disabled cache)
#   7. stream gate            — the batch↔stream differential suite
#                               runs explicitly: streamed scores must
#                               be bit-identical to batch scores for
#                               every family at every window of the
#                               paper grid (DW 2-15), at the warmup
#                               boundary, and on interleaved and
#                               random streams
#   8. trace gate             — the exported Chrome trace files must be
#                               valid trace-event JSON with per-thread
#                               monotonic timestamps and balanced B/E
#                               stacks and must carry no dropped-events
#                               marker (`tracecheck`), and the 4-thread
#                               trace must name its pool workers
#   9. scope gate             — `regenerate --serve 127.0.0.1:0` runs
#                               with the live metrics server armed at
#                               widths 1 and 4; `scopecheck` scrapes
#                               /metrics, /healthz, /snapshot.json and
#                               /profilez mid-run and validates each
#                               (Prometheus text format included), and
#                               the served runs' artifacts must be
#                               byte-identical to the unserved
#                               determinism-gate runs — observation
#                               must not perturb results. A telemetry-
#                               on served run is additionally scraped
#                               with --expect-telemetry to prove live
#                               counters are actually visible mid-run
#  10. chaos gate             — the report regenerated under seeded
#                               ~1% training-panic injection
#                               (--fault 42:1%:panic) must be
#                               byte-identical to the fault-free runs
#                               at widths 1 and 4; the width-4 chaos
#                               run is additionally
#                               SIGKILLed mid-run and finished with
#                               --resume, and must still match
#                               byte-for-byte (exit 0, no wedged
#                               process — every run is under `timeout`)
#  11. flight gate            — flight-armed runs (--flight at width 1,
#                               DETDIV_FLIGHT at width 4) must produce
#                               artifacts byte-identical to the unarmed
#                               runs; `flightcheck` validates each
#                               dump's wire format and reconstructs
#                               every coverage-map alarm count from the
#                               audit log alone; a repeated width-1 run
#                               must produce a byte-identical dump; and
#                               a chaos variant (--fault + --flight)
#                               must still match the fault-free
#                               artifacts while the panic hook leaves a
#                               parseable crash dump
#  12. serve gate             — `loadgen`'s deterministic stdout and
#                               `--snapshot` file are identical at
#                               widths 1 and 4 and to the committed
#                               expected line and hash, a chaos
#                               run accounts for every event, a
#                               snapshot/resume chain recovers warm
#                               state, and the serve suites pass at
#                               both widths
#  13. overload gate          — `loadgen --overload`'s accounting line
#                               and every shard's hibernation segment
#                               are identical at widths 1 and 4 and to
#                               the committed expected line and
#                               segment sha256, sheds
#                               on both paths, and its guard audit
#                               trail matches the committed sha256
#                               and reconstructs under `flightcheck
#                               --guard`, chaos variant included (its
#                               degraded count must equal its
#                               "degraded" flight records)
#
# Performance is not measured here: `perfbench/` (see BENCHMARK.json)
# is the repository's one timing instrument; phase 4 runs its smoke
# tests.
#
# Usage: scripts/ci.sh
# The script is silent on success for each phase beyond a one-line
# banner, and exits non-zero at the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

banner() { printf '\n==> %s\n' "$*"; }

banner "cargo fmt --check"
cargo fmt --all --check

banner "cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

banner "cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

banner "unused dependency declarations"
# A package named under a member's [dependencies] must be used by that
# member's own code: its identifier (`-` -> `_`) appears in its src/.
# One named under [dev-dependencies] must appear in its src/, tests/,
# examples/ or benches/.
unused_deps=0
declared() { sed -n "/^\[$1\]/,/^\[/s/^\([A-Za-z0-9_-]\+\)[ .=].*/\1/p" "$2"; }
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    member="$(dirname "$manifest")"
    for dep in $(declared dependencies "$manifest"); do
        if ! grep -rqw -- "${dep//-/_}" "$member/src"; then
            echo "$manifest: [dependencies] names $dep, which $member/src never uses" >&2
            unused_deps=1
        fi
    done
    for dep in $(declared dev-dependencies "$manifest"); do
        if ! grep -rqsw -- "${dep//-/_}" "$member"/{src,tests,examples,benches}; then
            echo "$manifest: [dev-dependencies] names $dep, which $member/{src,tests,examples,benches} never use" >&2
            unused_deps=1
        fi
    done
done
[ "$unused_deps" -eq 0 ]

banner "stream-hash maps name the keyed hasher"
# A map keyed by stream hash in serve, guard or stream hashes with
# detdiv_resil::BuildStreamHasher: under std's SipHash the hash was a
# visible share of each event's cost, and an unkeyed hasher would let
# a sender who picks ids pile them into one probe chain. A
# `HashMap<u64, …>` there must name the builder on the same line.
if grep -rn 'HashMap<u64,' crates/{serve,guard,stream}/src | grep -v 'BuildStreamHasher'; then
    echo "the HashMap<u64, …> above does not name BuildStreamHasher" >&2
    exit 1
fi

banner "cargo build --release"
cargo build --release --workspace

banner "cargo test -q"
cargo test -q --workspace --release

banner "benchmark smoke tests (perfbench output checks)"
# A library change that breaks one of the benchmark's output checks
# fails here rather than only when the benchmark itself runs.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

banner "determinism gate (DETDIV_THREADS=1 vs 4)"
# Regenerate the full report twice at different pool widths and demand
# byte-identical artifacts. DETDIV_LOG=off keeps the telemetry
# snapshot empty, so no wall-clock field can differ; a reduced
# training stream keeps the gate fast (ABL4 shows map shapes are
# length-invariant, and the gate is about scheduling, not scale).
GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$GATE_DIR"' EXIT
mkdir -p "$GATE_DIR/t1" "$GATE_DIR/t4"
# Tracing is armed on both runs: an armed recorder must not perturb
# any output byte. The trace files carry wall times and thread counts,
# so they are validated (below) but never compared.
DETDIV_LOG=off DETDIV_THREADS=1 ./target/release/regenerate \
    --training-len 60000 --json "$GATE_DIR/t1/paper_report.json" \
    --trace "$GATE_DIR/t1/trace.json" \
    > "$GATE_DIR/t1/stdout.txt" 2> /dev/null
DETDIV_LOG=off DETDIV_THREADS=4 ./target/release/regenerate \
    --training-len 60000 --json "$GATE_DIR/t4/paper_report.json" \
    --trace "$GATE_DIR/t4/trace.json" \
    > "$GATE_DIR/t4/stdout.txt" 2> /dev/null
cmp "$GATE_DIR/t1/paper_report.json" "$GATE_DIR/t4/paper_report.json"
cmp "$GATE_DIR/t1/stdout.txt" "$GATE_DIR/t4/stdout.txt"
echo "report and stdout byte-identical at 1 and 4 threads (tracing armed)"
# Width agreement alone passes a wrong response that moves every
# width's bytes alike; pin the artifacts' bytes themselves.
for artifact in report:paper_report.json stdout:stdout.txt; do
    PIN="scripts/expected/regenerate_${artifact%%:*}.sha256"
    SHA=$(sha256sum < "$GATE_DIR/t1/${artifact#*:}" | cut -d' ' -f1)
    [ "$SHA" = "$(cat "$PIN")" ] || {
        echo "determinism gate: ${artifact#*:} sha256 $SHA differs from $PIN" >&2
        exit 1
    }
done
echo "report and stdout match the pinned sha256"

banner "cache gate (cached vs --no-cache byte identity + conformance + hit telemetry)"
# The determinism-gate runs above went through the single-flight
# trained-model cache (the default). Regenerate once more with the
# cache disabled and demand byte-identical artifacts: memoization may
# change when a model is trained, never what the report says.
mkdir -p "$GATE_DIR/nc"
DETDIV_LOG=off DETDIV_THREADS=4 ./target/release/regenerate \
    --training-len 60000 --no-cache \
    --json "$GATE_DIR/nc/paper_report.json" \
    > "$GATE_DIR/nc/stdout.txt" 2> /dev/null
cmp "$GATE_DIR/t1/paper_report.json" "$GATE_DIR/nc/paper_report.json"
cmp "$GATE_DIR/t1/stdout.txt" "$GATE_DIR/nc/stdout.txt"
echo "report and stdout byte-identical with cache on and off"
# The cache is only sound if every detector family honours the
# train-once/score-many contracts; run the conformance suite on its
# own so a violation is named here, not lost in the workspace run.
cargo test -q --release -p detdiv-core --test conformance
# A telemetry-on cached run must actually hit: the report's counter
# snapshot carries cache/hits, and zero hits would mean every eval
# path stopped sharing models (the gate that caught nothing).
DETDIV_THREADS=4 ./target/release/regenerate \
    --training-len 30000 --json "$GATE_DIR/telemetry_report.json" \
    > /dev/null 2> /dev/null
grep -q '"cache/hits": *[1-9]' "$GATE_DIR/telemetry_report.json" || {
    echo "cache gate: cache/hits is zero or missing in a cached telemetry-on report" >&2
    exit 1
}
echo "cache hit telemetry present ($(grep -o '"cache/hits": *[0-9]*' "$GATE_DIR/telemetry_report.json"))"

banner "stream gate (batch↔stream differential suite)"
# Event-by-event streaming claims bit-identity with batch scoring. The
# differential suite enforces it for every family at every window of
# the paper grid (DW 2-15) on a synthesized corpus's test streams, and
# covers the structural edges: warmup boundaries, empty/short/
# duplicate-run streams, interleaved multi-stream feeds, and randomized
# training/test pairs.
cargo test -q --release -p detdiv-stream --test differential

banner "trace gate (Chrome trace-event JSON validity + B/E balance + no dropped events)"
./target/release/tracecheck "$GATE_DIR/t1/trace.json"
./target/release/tracecheck "$GATE_DIR/t4/trace.json" \
    --expect-thread par-worker-1 --expect-thread par-worker-2

banner "scope gate (mid-run scrape + served-run byte identity)"
# A served run regenerates the same artifacts as the determinism-gate
# runs while exposing live metrics on an ephemeral port; scraping it
# mid-run must succeed, and the artifacts must still be byte-identical
# to the unserved runs — the introspection layer is read-only.
SCOPE_DIR="$GATE_DIR/scope"
mkdir -p "$SCOPE_DIR/t1" "$SCOPE_DIR/t4" "$SCOPE_DIR/tele"

# scope_serve_run THREADS DIR LOG [EXTRA_SCOPECHECK_FLAG]
# Launches a served regeneration in the background, waits for the
# "serving live metrics" stderr line to learn the ephemeral port, runs
# scopecheck against it mid-run, then waits for the run to finish.
scope_serve_run() {
    local threads="$1" dir="$2" log="$3" expect_flag="${4:-}"
    DETDIV_LOG="$log" DETDIV_THREADS="$threads" \
        timeout 900 ./target/release/regenerate \
        --training-len 60000 --serve 127.0.0.1:0 \
        --json "$dir/paper_report.json" --trace "$dir/trace.json" \
        > "$dir/stdout.txt" 2> "$dir/stderr.txt" &
    local pid=$!
    local addr=""
    for _ in $(seq 1 200); do
        addr="$(sed -n 's#.*serving live metrics on http://\([0-9.:]*\)/metrics.*#\1#p' \
            "$dir/stderr.txt" 2> /dev/null | head -n 1)"
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2> /dev/null; then break; fi
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "scope gate: served run never echoed its bound address" >&2
        cat "$dir/stderr.txt" >&2 || true
        kill "$pid" 2> /dev/null || true
        return 1
    fi
    # shellcheck disable=SC2086 — expect_flag is intentionally a word
    if ! ./target/release/scopecheck --addr "$addr" --retries 40 --delay-ms 50 \
        $expect_flag 2> "$dir/scopecheck.txt"; then
        cat "$dir/scopecheck.txt" >&2
        kill "$pid" 2> /dev/null || true
        return 1
    fi
    wait "$pid"
}

scope_serve_run 1 "$SCOPE_DIR/t1" off
cmp "$GATE_DIR/t1/paper_report.json" "$SCOPE_DIR/t1/paper_report.json"
cmp "$GATE_DIR/t1/stdout.txt" "$SCOPE_DIR/t1/stdout.txt"
scope_serve_run 4 "$SCOPE_DIR/t4" off
cmp "$GATE_DIR/t4/paper_report.json" "$SCOPE_DIR/t4/paper_report.json"
cmp "$GATE_DIR/t4/stdout.txt" "$SCOPE_DIR/t4/stdout.txt"
echo "served runs byte-identical to unserved runs at widths 1 and 4"
# Telemetry-on served run: the mid-run scrape must see live detdiv
# counters, a telemetry-enabled healthz, and a non-empty snapshot.
scope_serve_run 4 "$SCOPE_DIR/tele" warn --expect-telemetry
echo "telemetry-on served run scraped live counters mid-run"

banner "chaos gate (seeded fault injection + mid-run SIGKILL + --resume)"
# Injected panics are absorbed by supervised retry; `panic` kinds only,
# so artifact writes themselves cannot be failed and byte-identity is
# the honest expectation. DETDIV_LOG=off keeps the telemetry snapshot
# (which now carries resil/* injection counters) out of the report.
CHAOS_DIR="$GATE_DIR/chaos"
mkdir -p "$CHAOS_DIR"
FAULT_SPEC="42:1%:panic"
# Width 1: chaos run, uninterrupted; must match the fault-free t1 run.
DETDIV_LOG=off DETDIV_THREADS=1 timeout 900 ./target/release/regenerate \
    --training-len 60000 --fault "$FAULT_SPEC" \
    --json "$CHAOS_DIR/t1.json" \
    > "$CHAOS_DIR/t1_stdout.txt" 2> /dev/null
cmp "$GATE_DIR/t1/paper_report.json" "$CHAOS_DIR/t1.json"
cmp "$GATE_DIR/t1/stdout.txt" "$CHAOS_DIR/t1_stdout.txt"
echo "width-1 chaos run byte-identical to the fault-free run"
# Width 4: chaos run with a row journal, SIGKILLed once rows have
# committed, then finished with --resume; the resumed output must be
# byte-identical to the fault-free t4 run.
JOURNAL="$CHAOS_DIR/rows.journal"
rm -f "$JOURNAL"
DETDIV_LOG=off DETDIV_THREADS=4 timeout 900 ./target/release/regenerate \
    --training-len 60000 --fault "$FAULT_SPEC" --resume "$JOURNAL" \
    --json "$CHAOS_DIR/t4.json" \
    > "$CHAOS_DIR/t4_stdout.txt" 2> /dev/null &
CHAOS_PID=$!
# Kill only after real progress: a few coverage rows in the journal.
for _ in $(seq 1 600); do
    if [ -f "$JOURNAL" ] && [ "$(wc -l < "$JOURNAL")" -ge 5 ]; then break; fi
    if ! kill -0 "$CHAOS_PID" 2> /dev/null; then break; fi
    sleep 0.1
done
kill -9 "$CHAOS_PID" 2> /dev/null || true
wait "$CHAOS_PID" 2> /dev/null || true
if [ -f "$JOURNAL" ]; then
    # The expected path: the run died mid-sweep; resume it. Completed
    # rows are served from the journal, missing cells recomputed.
    DETDIV_LOG=off DETDIV_THREADS=4 timeout 900 ./target/release/regenerate \
        --training-len 60000 --fault "$FAULT_SPEC" --resume "$JOURNAL" \
        --json "$CHAOS_DIR/t4.json" \
        > "$CHAOS_DIR/t4_stdout.txt" 2> "$CHAOS_DIR/t4_resume_stderr.txt"
    echo "resumed after SIGKILL: $(grep -o 'resuming [0-9]* completed rows' \
        "$CHAOS_DIR/t4_resume_stderr.txt" || echo 'journal present, 0 rows')"
else
    # The run outpaced the kill (fast machine): it completed cleanly
    # and removed its journal, which is also a pass — just weaker.
    echo "chaos run finished before the kill landed; comparing its output directly"
fi
cmp "$GATE_DIR/t4/paper_report.json" "$CHAOS_DIR/t4.json"
cmp "$GATE_DIR/t4/stdout.txt" "$CHAOS_DIR/t4_stdout.txt"
[ ! -f "$JOURNAL" ] || { echo "chaos gate: journal survived a successful run" >&2; exit 1; }
echo "width-4 chaos+kill+resume run byte-identical to the fault-free run"

banner "flight gate (audit-log identity + flightcheck reconstruction + chaos crash dump)"
# The wide-event audit log is an observer: arming it must not perturb
# a single artifact byte, and the dump itself must be reconstructible
# evidence — every alarm the coverage maps count must be derivable
# from the log alone (`flightcheck --report`).
FLIGHT_DIR="$GATE_DIR/flight"
mkdir -p "$FLIGHT_DIR/t1" "$FLIGHT_DIR/t4" "$FLIGHT_DIR/chaos"
# Width 1, armed via the --flight flag.
DETDIV_LOG=off DETDIV_THREADS=1 timeout 900 ./target/release/regenerate \
    --training-len 60000 --flight "$FLIGHT_DIR/t1/audit.jsonl" \
    --json "$FLIGHT_DIR/t1/paper_report.json" \
    > "$FLIGHT_DIR/t1/stdout.txt" 2> /dev/null
cmp "$GATE_DIR/t1/paper_report.json" "$FLIGHT_DIR/t1/paper_report.json"
cmp "$GATE_DIR/t1/stdout.txt" "$FLIGHT_DIR/t1/stdout.txt"
# Width 4, armed via the DETDIV_FLIGHT environment variable.
DETDIV_LOG=off DETDIV_THREADS=4 DETDIV_FLIGHT="$FLIGHT_DIR/t4/audit.jsonl" \
    timeout 900 ./target/release/regenerate \
    --training-len 60000 \
    --json "$FLIGHT_DIR/t4/paper_report.json" \
    > "$FLIGHT_DIR/t4/stdout.txt" 2> /dev/null
cmp "$GATE_DIR/t4/paper_report.json" "$FLIGHT_DIR/t4/paper_report.json"
cmp "$GATE_DIR/t4/stdout.txt" "$FLIGHT_DIR/t4/stdout.txt"
echo "flight-armed runs byte-identical to unarmed runs at widths 1 and 4"
# Both dumps validate, and the width-1 log reconstructs every alarm the
# run's coverage maps counted.
./target/release/flightcheck --dump "$FLIGHT_DIR/t1/audit.jsonl" \
    --report "$FLIGHT_DIR/t1/paper_report.json"
./target/release/flightcheck --dump "$FLIGHT_DIR/t4/audit.jsonl" \
    --report "$FLIGHT_DIR/t4/paper_report.json"
# A repeated width-1 run must reproduce the dump byte-for-byte: the
# export sorts records, so flush interleaving can never leak in.
DETDIV_LOG=off DETDIV_THREADS=1 timeout 900 ./target/release/regenerate \
    --training-len 60000 --flight "$FLIGHT_DIR/t1/audit_repeat.jsonl" \
    --json "$FLIGHT_DIR/t1/repeat_report.json" \
    > /dev/null 2> /dev/null
cmp "$FLIGHT_DIR/t1/audit.jsonl" "$FLIGHT_DIR/t1/audit_repeat.jsonl"
echo "audit dump byte-deterministic across repeat runs ($(wc -l < "$FLIGHT_DIR/t1/audit.jsonl") lines)"
# Chaos + flight: seeded panic injection with the recorder armed. The
# artifacts must still match the fault-free runs (the recorder's own
# writes are exempt from injection and claim no fault-site hits), and
# every injected panic must have left a parseable crash dump via the
# panic hook.
DETDIV_LOG=off DETDIV_THREADS=4 timeout 900 ./target/release/regenerate \
    --training-len 60000 --fault "$FAULT_SPEC" \
    --flight "$FLIGHT_DIR/chaos/audit.jsonl" \
    --json "$FLIGHT_DIR/chaos/paper_report.json" \
    > "$FLIGHT_DIR/chaos/stdout.txt" 2> /dev/null
cmp "$GATE_DIR/t4/paper_report.json" "$FLIGHT_DIR/chaos/paper_report.json"
cmp "$GATE_DIR/t4/stdout.txt" "$FLIGHT_DIR/chaos/stdout.txt"
if [ ! -s "$FLIGHT_DIR/chaos/audit.jsonl.crash" ]; then
    echo "flight gate: chaos run left no crash dump from the panic hook" >&2
    exit 1
fi
./target/release/flightcheck --dump "$FLIGHT_DIR/chaos/audit.jsonl" \
    --crash "$FLIGHT_DIR/chaos/audit.jsonl.crash"
echo "chaos flight run byte-identical to fault-free, with a parseable crash dump"

banner "serve gate (loadgen determinism across widths + chaos + snapshot/resume)"
# The sharded ingest service: a loadgen smoke run's stdout (stream and
# event counts plus the per-shard verdict digest) must be identical at
# worker widths 1 and 4 — the cross-width determinism contract at the
# service layer. The chaos variant must survive injected panics with
# every event accounted for (its digest is legitimately different:
# which slots die depends on the fault plan's hit order, so it is not
# compared). A snapshot/resume chain must recover warm state.
SERVE_DIR="$GATE_DIR/serve"
mkdir -p "$SERVE_DIR"
LOADGEN_ARGS="--streams 20000 --events-per-stream 4 --shards 16 --queue-cap 1024"
DETDIV_LOG=off DETDIV_THREADS=1 timeout 300 ./target/release/loadgen \
    $LOADGEN_ARGS --threads 1 --snapshot "$SERVE_DIR/t1.snap" \
    > "$SERVE_DIR/t1_stdout.txt" 2> /dev/null
DETDIV_LOG=off DETDIV_THREADS=4 timeout 300 ./target/release/loadgen \
    $LOADGEN_ARGS --threads 4 --snapshot "$SERVE_DIR/t4.snap" \
    > "$SERVE_DIR/t4_stdout.txt" 2> /dev/null
cmp "$SERVE_DIR/t1_stdout.txt" "$SERVE_DIR/t4_stdout.txt"
cmp "$SERVE_DIR/t1.snap" "$SERVE_DIR/t4.snap"
# Width agreement alone passes a change that moves every width's bytes
# the same way; the committed line and hash pin them across commits.
# After an intentional digest or snapshot-format change, rewrite them
# from the width-1 run above.
cmp "$SERVE_DIR/t1_stdout.txt" scripts/expected/loadgen_serve.txt
SNAP_SHA=$(sha256sum < "$SERVE_DIR/t1.snap" | cut -d' ' -f1)
[ "$SNAP_SHA" = "$(cat scripts/expected/loadgen_snapshot.sha256)" ] || {
    echo "serve gate: snapshot sha256 $SNAP_SHA differs from scripts/expected/loadgen_snapshot.sha256" >&2
    exit 1
}
echo "loadgen verdict digest and snapshot identical at widths 1 and 4 and to the expected line and hash ($(cat "$SERVE_DIR/t1_stdout.txt"))"
DETDIV_LOG=off DETDIV_THREADS=4 timeout 300 ./target/release/loadgen \
    $LOADGEN_ARGS --threads 4 --fault "$FAULT_SPEC" \
    > "$SERVE_DIR/chaos_stdout.txt" 2> "$SERVE_DIR/chaos_stderr.txt"
grep -q "events=80000" "$SERVE_DIR/chaos_stdout.txt" || {
    echo "serve gate: chaos run lost events" >&2
    exit 1
}
echo "chaos loadgen survived injected panics with every event processed"
DETDIV_LOG=off DETDIV_THREADS=1 timeout 300 ./target/release/loadgen \
    $LOADGEN_ARGS --threads 1 --resume "$SERVE_DIR/t1.snap" \
    > /dev/null 2> "$SERVE_DIR/resume_stderr.txt"
grep -q "resumed 20000 stream(s)" "$SERVE_DIR/resume_stderr.txt" || {
    echo "serve gate: resume did not recover the snapshotted streams" >&2
    exit 1
}
echo "snapshot/resume chain recovered all 20000 streams warm"
# The serve test battery (differential, recovery, backpressure) must
# hold at both worker widths — the suites assert per-stream identity,
# which is the part width must never perturb.
DETDIV_THREADS=1 cargo test -q -p detdiv-serve > /dev/null
DETDIV_THREADS=4 cargo test -q -p detdiv-serve > /dev/null
echo "serve suites green at widths 1 and 4"

banner "overload gate (guard shedding determinism + accounting + flight reconstruction)"
# The overload-protection subsystem: loadgen --overload drives arrival
# far past drain capacity against a small resident-byte budget. The
# pinned properties: the overload stdout (offered/delivered/shed split,
# recovery cycles, verdict digest) is identical at worker widths 1 and
# 4; shed + delivered == offered (zero silent drops — loadgen itself
# exits non-zero on an accounting hole); shedding actually happened on
# both the queue-full and guard paths; the ladder returned to Full
# (loadgen refuses to print otherwise); and every ladder/breaker/
# hibernate move is reconstructable from the flight log. The chaos
# variant adds seeded tier-2 panics: the breaker must open and the
# guard audit trail must still chain cleanly.
OVERLOAD_DIR="$GATE_DIR/overload"
mkdir -p "$OVERLOAD_DIR"
OVERLOAD_ARGS="--streams 2000 --events-per-stream 40 --shards 16 --queue-cap 1024 \
    --overload --guard-bytes 65536"
# Both runs keep their hibernation segments in fresh directories, so
# the spilled bytes are pinned too: each shard's segment must match
# across widths, and their concatenation in shard order must match the
# committed sha256.
rm -rf "$OVERLOAD_DIR/seg_t1" "$OVERLOAD_DIR/seg_t4"
mkdir -p "$OVERLOAD_DIR/seg_t1" "$OVERLOAD_DIR/seg_t4"
DETDIV_LOG=off DETDIV_THREADS=1 DETDIV_GUARD_DIR="$OVERLOAD_DIR/seg_t1" timeout 300 \
    ./target/release/loadgen $OVERLOAD_ARGS --threads 1 > "$OVERLOAD_DIR/t1_stdout.txt" 2> /dev/null
DETDIV_LOG=off DETDIV_THREADS=4 DETDIV_GUARD_DIR="$OVERLOAD_DIR/seg_t4" timeout 300 \
    ./target/release/loadgen $OVERLOAD_ARGS --threads 4 > "$OVERLOAD_DIR/t4_stdout.txt" 2> /dev/null
cmp "$OVERLOAD_DIR/t1_stdout.txt" "$OVERLOAD_DIR/t4_stdout.txt"
cmp "$OVERLOAD_DIR/t1_stdout.txt" scripts/expected/loadgen_overload.txt
echo "overload stdout identical at widths 1 and 4 and to the expected line ($(cat "$OVERLOAD_DIR/t1_stdout.txt"))"
SEGMENTS=$(ls "$OVERLOAD_DIR/seg_t1" | sed -n 's/^shard-\([0-9][0-9]*\)\.seg$/\1/p' | sort -n)
[ "$(echo $SEGMENTS)" = "$(seq -s ' ' 0 15)" ] || {
    echo "overload gate: expected segments shard-0.seg … shard-15.seg, found: $(ls "$OVERLOAD_DIR/seg_t1")" >&2
    exit 1
}
for i in $SEGMENTS; do
    cmp "$OVERLOAD_DIR/seg_t1/shard-$i.seg" "$OVERLOAD_DIR/seg_t4/shard-$i.seg"
done
SEG_SHA=$(for i in $SEGMENTS; do cat "$OVERLOAD_DIR/seg_t1/shard-$i.seg"; done | sha256sum | cut -d' ' -f1)
[ "$SEG_SHA" = "$(cat scripts/expected/loadgen_overload_segments.sha256)" ] || {
    echo "overload gate: segment sha256 $SEG_SHA differs from scripts/expected/loadgen_overload_segments.sha256" >&2
    exit 1
}
echo "hibernation segments identical at widths 1 and 4 and to the expected hash"
grep -q "offered=80000" "$OVERLOAD_DIR/t1_stdout.txt" || {
    echo "overload gate: not every event was offered" >&2
    exit 1
}
grep -Eq "shed_guard=[1-9][0-9]* shed_queue=[1-9][0-9]*" "$OVERLOAD_DIR/t1_stdout.txt" || {
    echo "overload gate: shedding did not engage on both paths" >&2
    exit 1
}
DETDIV_LOG=off DETDIV_THREADS=4 timeout 300 ./target/release/loadgen \
    $OVERLOAD_ARGS --threads 4 --flight "$OVERLOAD_DIR/audit.jsonl" \
    > /dev/null 2> /dev/null
AUDIT_SHA=$(sha256sum < "$OVERLOAD_DIR/audit.jsonl" | cut -d' ' -f1)
[ "$AUDIT_SHA" = "$(cat scripts/expected/loadgen_overload_flight.sha256)" ] || {
    echo "overload gate: flight dump sha256 $AUDIT_SHA differs from scripts/expected/loadgen_overload_flight.sha256" >&2
    exit 1
}
./target/release/flightcheck --dump "$OVERLOAD_DIR/audit.jsonl" --guard \
    > "$OVERLOAD_DIR/flightcheck.txt"
grep -q "guard trail intact" "$OVERLOAD_DIR/flightcheck.txt"
echo "guard audit trail matches the expected hash and reconstructs ($(cat "$OVERLOAD_DIR/flightcheck.txt"))"
DETDIV_LOG=off DETDIV_THREADS=4 timeout 300 ./target/release/loadgen \
    $OVERLOAD_ARGS --threads 4 --fault "$FAULT_SPEC" \
    --flight "$OVERLOAD_DIR/chaos_audit.jsonl" \
    > "$OVERLOAD_DIR/chaos_stdout.txt" 2> "$OVERLOAD_DIR/chaos_stderr.txt"
grep -q "offered=80000" "$OVERLOAD_DIR/chaos_stdout.txt" || {
    echo "overload gate: chaos run lost events" >&2
    exit 1
}
# The chaos run's digest varies from run to run, but its count relation
# does not: every slot loadgen reports degraded is one caught panic,
# and each caught panic writes exactly one "degraded" flight record.
CHAOS_DEGRADED=$(sed -n 's/.* \([0-9][0-9]*\) degraded, .*/\1/p' "$OVERLOAD_DIR/chaos_stderr.txt")
CHAOS_RECORDS=$(grep -c '"t":"degraded"' "$OVERLOAD_DIR/chaos_audit.jsonl" || true)
[ -n "$CHAOS_DEGRADED" ] && [ "$CHAOS_DEGRADED" = "$CHAOS_RECORDS" ] || {
    echo "overload gate: loadgen reported ${CHAOS_DEGRADED:-no} degraded slot(s) against $CHAOS_RECORDS degraded flight record(s)" >&2
    exit 1
}
./target/release/flightcheck --dump "$OVERLOAD_DIR/chaos_audit.jsonl" --guard \
    > "$OVERLOAD_DIR/chaos_flightcheck.txt"
grep -Eq "[1-9][0-9]* breaker" "$OVERLOAD_DIR/chaos_flightcheck.txt" || {
    echo "overload gate: injected tier-2 panics never opened the breaker" >&2
    exit 1
}
echo "chaos overload run opened the breaker, its audit trail still chains, and its $CHAOS_DEGRADED degraded slot(s) match the flight log"

banner "CI green"
