#!/usr/bin/env bash
# Tier-1 CI for the workspace. Fully offline: the workspace has zero
# external dependencies by policy, so this script also *enforces* that no
# Cargo.toml sneaks a registry dependency back in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hermetic guard: no registry dependencies =="
# Any dependency in a [dependencies]/[dev-dependencies]/[workspace.dependencies]
# section must be a path (or workspace = true) entry. A bare version string or
# a { version = ... } without a path means a crates.io dependency — reject it.
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Extract dependency sections and drop blank/comment/section lines.
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) ; next }
        in_deps && NF && $0 !~ /^#/ { print }
    ' "$manifest")
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        case "$line" in
            *path*|*workspace*) ;;
            *)
                echo "error: non-path dependency in $manifest: $line" >&2
                fail=1
                ;;
        esac
    done <<< "$deps"
done
if [ "$fail" -ne 0 ]; then
    echo "hermetic guard FAILED: the workspace must not depend on registry crates" >&2
    exit 1
fi
echo "ok: all dependencies are path/workspace entries"

echo "== cargo tree: workspace crates only =="
if cargo tree --workspace --prefix none --offline 2>/dev/null | awk 'NF {print $1}' | sort -u | grep -vE '^(mg-|manet-guard$)'; then
    echo "error: cargo tree lists a non-workspace crate" >&2
    exit 1
fi
echo "ok: dependency tree is workspace-only"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== clippy: no warnings =="
cargo clippy --workspace --all-targets --offline -q -- -D warnings

echo "== tests (offline) =="
cargo test -q --workspace --offline

echo "== benchmark package: perfbench builds against the library and its tests pass =="
# perfbench is a workspace of its own over the library's public API, so a
# change to `Medium`, `DcfMac` or `NetObserver` that breaks it fails here
# rather than in a benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== examples: the detector examples run and their asserts hold =="
# Each example asserts its own outcome (attacker caught, clean node clean,
# samples collected, every big-world cheater flagged); a failed assert
# panics and fails this step.
for example in dos_attack multihop_aodv trace_timeline mobile_patrol big_world; do
    cargo run -q --release --offline --example "$example" >/dev/null
done
echo "ok: detector examples ran to completion"

echo "== trace determinism: equal seeds, byte-identical journals =="
cargo test -q --offline --test trace_determinism

echo "== differential index suite: naive vs grid medium, byte-identical =="
# Random event tapes drive both index strategies in lockstep (clean,
# shadowed, hotspot); the large-world cross-index gate above covers the
# end-to-end diagnosis, this covers the medium in isolation.
cargo test -q --offline -p mg-phy --test diff_index

echo "== world-scale smoke: bench_world_scale on a tiny grid =="
# One small cell end to end: asserts events-fired and flagged-diagnosis
# equality across index modes and exercises the JSON emitter. The real
# perf sweep (and its ≥10x pin) lives in BENCH_world_scale.json.
smokedir=$(mktemp -d)
MG_TRIALS=1 MG_SIM_SECS=1 MG_WORLD_NODES=64 MG_WORLD_ATTACKERS=1 \
MG_BENCH_OUT="$smokedir/world_scale.json" \
    cargo run -q --release --offline -p mg-bench --bin bench_world_scale
grep -q '"speedup_at_max_nodes"' "$smokedir/world_scale.json"
# An empty world axis is a usage error (exit 2 naming the variable), not a
# panic inside the runner.
set +e
MG_TRIALS=1 MG_SIM_SECS=1 MG_WORLD_NODES=0 MG_BENCH_OUT="$smokedir/zero.json" \
    cargo run -q --release --offline -p mg-bench --bin bench_world_scale \
    >/dev/null 2>"$smokedir/zero.err"
zero_status=$?
set -e
if [ "$zero_status" -ne 2 ] || ! grep -q "MG_WORLD_NODES" "$smokedir/zero.err"; then
    echo "error: MG_WORLD_NODES=0 must exit 2 naming the variable" >&2
    cat "$smokedir/zero.err" >&2
    exit 1
fi
rm -rf "$smokedir"
echo "ok: cross-index smoke cell agrees and reports; a zero-node axis exits 2"

echo "== microbench: tracing overhead gate (<5% with tracing disabled) =="
# The bench binary asserts the gate itself; a failed gate panics the run.
MG_BENCH_MS="${MG_BENCH_MS:-40}" cargo bench --offline -p mg-bench

echo "== sweep cache: cold vs warm runs are byte-identical =="
cachedir=$(mktemp -d)
outdir=$(mktemp -d)
trap 'rm -rf "$cachedir" "$outdir"' EXIT
run_fig5() {
    MG_TRIALS=1 MG_SIM_SECS=2 MG_CACHE_DIR="$cachedir" \
    MG_CSV_DIR="$outdir/$1" MG_JSON_DIR="$outdir/$1" \
        cargo run -q --release --offline -p mg-bench --bin fig5 >"$outdir/$1.stdout"
}
run_fig5 cold
run_fig5 warm
if ! diff -r "$outdir/cold" "$outdir/warm" || ! diff "$outdir/cold.stdout" "$outdir/warm.stdout"; then
    echo "error: warm (cached) fig5 run differs from the cold run" >&2
    exit 1
fi
echo "ok: cached replay reproduces the cold run byte-for-byte"

echo "== chaos gate: fault-seeded sweeps are deterministic =="
# Two identical fault-seeded mini-sweeps (cold — each against a fresh cache)
# must produce byte-identical tables: the injector draws only from its own
# seeded streams, never from wall-clock or thread scheduling.
run_fig5_faulted() {
    MG_TRIALS=1 MG_SIM_SECS=2 MG_CACHE_DIR="$outdir/chaos-cache-$1" \
    MG_FAULT_PROFILE="light,deaf=250:25" MG_FAULT_SEED=7 \
    MG_CSV_DIR="$outdir/$1" MG_JSON_DIR="$outdir/$1" \
        cargo run -q --release --offline -p mg-bench --bin fig5 >"$outdir/$1.stdout"
}
run_fig5_faulted chaos-a
run_fig5_faulted chaos-b
if ! diff -r "$outdir/chaos-a" "$outdir/chaos-b" || ! diff "$outdir/chaos-a.stdout" "$outdir/chaos-b.stdout"; then
    echo "error: equal fault seeds produced diverging sweep outputs" >&2
    exit 1
fi
# The plan must actually have bitten (faulted ≠ clean output).
if diff -q "$outdir/cold.stdout" "$outdir/chaos-a.stdout" >/dev/null; then
    echo "error: the fault plan did not perturb the sweep output" >&2
    exit 1
fi
echo "ok: fault-seeded sweeps replay byte-for-byte and differ from clean runs"

echo "== chaos gate: fault injection is index-agnostic =="
# The same fault-seeded sweep under the naive reference index must match
# the grid-index chaos run byte-for-byte: injector and detector sit above
# the spatial index, which may not leak into any observable.
MG_TRIALS=1 MG_SIM_SECS=2 MG_CACHE_DIR="$outdir/chaos-cache-naive" \
MG_MEDIUM_INDEX=naive \
MG_FAULT_PROFILE="light,deaf=250:25" MG_FAULT_SEED=7 \
MG_CSV_DIR="$outdir/chaos-naive" MG_JSON_DIR="$outdir/chaos-naive" \
    cargo run -q --release --offline -p mg-bench --bin fig5 >"$outdir/chaos-naive.stdout"
if ! diff -r "$outdir/chaos-a" "$outdir/chaos-naive" \
    || ! diff "$outdir/chaos-a.stdout" "$outdir/chaos-naive.stdout"; then
    echo "error: naive-index chaos run diverged from the grid-index run" >&2
    exit 1
fi
echo "ok: fault-seeded sweep is byte-identical under naive and grid indexes"

echo "== chaos gate: a forced worker panic poisons only its cell =="
# Task 0 panics; the sweep must still complete, name the errored cell on
# stderr and exit nonzero instead of emitting tables.
set +e
MG_TRIALS=1 MG_SIM_SECS=2 MG_CACHE="off" MG_FAULT_PROFILE="panic=0" \
    cargo run -q --release --offline -p mg-bench --bin fig5 \
    >"$outdir/panic.stdout" 2>"$outdir/panic.stderr"
panic_status=$?
set -e
if [ "$panic_status" -eq 0 ]; then
    echo "error: a sweep with a panicked cell must exit nonzero" >&2
    exit 1
fi
if ! grep -q "panicked" "$outdir/panic.stderr"; then
    echo "error: the panicked cell was not reported on stderr" >&2
    cat "$outdir/panic.stderr" >&2
    exit 1
fi
echo "ok: panicked cell reported, exit code propagated"

echo "== replay gate: a replayed journal reproduces the live detection byte-for-byte =="
# Record a small two-sample-size detection run, replay the journal into
# fresh monitors, and require the detection report lines to be identical.
cargo run -q --release --offline -- detect --pm 60 --secs 2 --seed 5 \
    --samples 10,25 --record "$outdir/replay.jsonl" >"$outdir/replay-live.out"
cargo run -q --release --offline -- detect --replay "$outdir/replay.jsonl" \
    --samples 10,25 >"$outdir/replay-replayed.out"
if ! diff <(grep -E '^(samples|tests|checks|verdict)' "$outdir/replay-live.out") \
          <(grep -E '^(samples|tests|checks|verdict)' "$outdir/replay-replayed.out"); then
    echo "error: replayed detection diverged from the live run" >&2
    exit 1
fi
# Conflicting flags must be rejected with the usage text (exit 2).
set +e
cargo run -q --release --offline -- detect --replay "$outdir/replay.jsonl" --pm 50 \
    >/dev/null 2>"$outdir/replay-conflict.err"
conflict_status=$?
set -e
if [ "$conflict_status" -ne 2 ] || ! grep -q -- "--replay conflicts with --pm" "$outdir/replay-conflict.err"; then
    echo "error: --replay --pm must exit 2 with a conflict message" >&2
    exit 1
fi
echo "ok: replay reproduces live detection; world flags are rejected"

echo "== journal gate: cross-format record/transcode/replay byte-identity =="
# Record the detection workload as JSONL, transcode to binary, replay both:
# the detection report lines must match byte-for-byte, and the binary
# journal must be >=7x smaller than the JSONL one.
cargo run -q --release --offline -- detect --pm 60 --secs 2 --seed 5 \
    --samples 10,25 --record "$outdir/journal.jsonl" --journal-format jsonl \
    >"$outdir/journal-live.out"
cargo run -q --release --offline -- journal transcode "$outdir/journal.jsonl" \
    "$outdir/journal.bin" >/dev/null
cargo run -q --release --offline -- detect --replay "$outdir/journal.jsonl" \
    --samples 10,25 >"$outdir/journal-rep-jsonl.out"
cargo run -q --release --offline -- detect --replay "$outdir/journal.bin" \
    --samples 10,25 >"$outdir/journal-rep-bin.out"
for rep in journal-rep-jsonl journal-rep-bin; do
    if ! diff <(grep -E '^(samples|tests|checks|verdict)' "$outdir/journal-live.out") \
              <(grep -E '^(samples|tests|checks|verdict)' "$outdir/$rep.out"); then
        echo "error: $rep diverged from the live JSONL-recorded run" >&2
        exit 1
    fi
done
jsonl_size=$(wc -c < "$outdir/journal.jsonl")
bin_size=$(wc -c < "$outdir/journal.bin")
if [ $((bin_size * 7)) -gt "$jsonl_size" ]; then
    echo "error: binary journal ($bin_size B) is not >=7x smaller than JSONL ($jsonl_size B)" >&2
    exit 1
fi
bin_events=$(cargo run -q --release --offline -- journal info "$outdir/journal.bin" \
    | sed -n 's/^events   : //p')
bin_per_event=$(awk -v b="$bin_size" -v n="$bin_events" 'BEGIN { printf "%.2f", b / n }')
# The binary journal transcodes back to the recorded JSONL byte-for-byte:
# one writer and one reader, both formats, no drift between them.
cargo run -q --release --offline -- journal transcode "$outdir/journal.bin" \
    "$outdir/journal-back.jsonl" --journal-format jsonl >/dev/null
if ! cmp "$outdir/journal.jsonl" "$outdir/journal-back.jsonl"; then
    echo "error: jsonl -> bin -> jsonl transcode is not byte-identical" >&2
    exit 1
fi
# A malformed --journal-format value is a usage error, like any other flag.
set +e
cargo run -q --release --offline -- detect --pm 1 --secs 1 \
    --record "$outdir/badfmt.j" --journal-format xml \
    >/dev/null 2>"$outdir/journal-badfmt.err"
badfmt_status=$?
set -e
if [ "$badfmt_status" -ne 2 ] || ! grep -q -- "invalid value for --journal-format" "$outdir/journal-badfmt.err"; then
    echo "error: a malformed --journal-format must exit 2 with usage" >&2
    exit 1
fi
echo "ok: cross-format replay and transcode byte-identical; binary ${bin_size} B (${bin_per_event} B/event) vs JSONL ${jsonl_size} B"

echo "== journal gate: corrupt journals fail cleanly =="
# Truncation and bit rot must be *detected* — a clean exit 1 with a typed
# message, never a panic (exit 101) or a silent partial replay.
head -c $(( bin_size / 2 )) "$outdir/journal.bin" >"$outdir/journal-trunc.bin"
printf 'XXXX' | dd of="$outdir/journal.bin" bs=1 seek=$(( bin_size / 3 )) \
    conv=notrunc status=none
set +e
cargo run -q --release --offline -- detect --replay "$outdir/journal-trunc.bin" \
    >/dev/null 2>"$outdir/journal-trunc.err"
trunc_status=$?
cargo run -q --release --offline -- detect --replay "$outdir/journal.bin" \
    >/dev/null 2>"$outdir/journal-flip.err"
flip_status=$?
set -e
if [ "$trunc_status" -ne 1 ] || ! grep -q "truncated" "$outdir/journal-trunc.err"; then
    echo "error: a truncated journal must exit 1 with a truncation message" >&2
    cat "$outdir/journal-trunc.err" >&2
    exit 1
fi
if [ "$flip_status" -ne 1 ] || ! grep -q "checksum" "$outdir/journal-flip.err"; then
    echo "error: a bit-flipped journal must exit 1 with a checksum message" >&2
    cat "$outdir/journal-flip.err" >&2
    exit 1
fi
echo "ok: truncation and bit rot are rejected with clean exits"

echo "== decoder fuzz: resealed section mutations fail typed =="
# The checksum catches every bit flip above before a byte is decoded. This
# property changes 1-3 bytes of the events or tables section and rewrites
# the checksum, so the table parse and the event decoder see the damage:
# every outcome must be a clean decode or a typed Corrupt error, with
# iteration ending at the first error. 4000 cases take well under a second.
TESTKIT_CASES=4000 cargo test -q --release --offline -p mg-obs --test prop \
    resealed_section_mutations_fail_typed >/dev/null
echo "ok: 4000 resealed mutations decoded or failed with a typed error"

echo "== serve gate: mgd socket round-trip is byte-identical to offline replay =="
# Record three journals (one misbehaving, one clean, and one mobile whose
# 111-vantage ranging snapshots spill to the heap), start the daemon on an
# ephemeral port, stream each over the length-prefixed socket protocol, and
# require the reports that come back to match `detect --replay` on the same
# files byte-for-byte. SIGTERM must then drain the queues and exit 0.
cargo run -q --release --offline -- detect --pm 60 --secs 2 --seed 5 \
    --record "$outdir/serve-a.bin" >/dev/null
cargo run -q --release --offline -- detect --pm 0 --secs 2 --seed 9 \
    --record "$outdir/serve-b.bin" >/dev/null
cargo run -q --release --offline -- detect --mobile --pm 60 --secs 2 --seed 5 \
    --record "$outdir/serve-m.bin" >/dev/null
# The build step above builds only the root package; the daemon is
# mg-serve's binary, so a fresh checkout has no ./target/release/mgd yet.
cargo build -q --release --offline -p mg-serve --bin mgd
./target/release/mgd --listen 127.0.0.1:0 --deltas >"$outdir/mgd.out" 2>"$outdir/mgd.err" &
mgd_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$outdir/mgd.out" 2>/dev/null | head -1)
    [ -n "$addr" ] && break
    sleep 0.05
done
if [ -z "$addr" ]; then
    echo "error: mgd did not report a listening address" >&2
    cat "$outdir/mgd.err" >&2
    kill "$mgd_pid" 2>/dev/null || true
    exit 1
fi
for j in a b m; do
    cargo run -q --release --offline -- journal send "$outdir/serve-$j.bin" \
        --to "$addr" >"$outdir/serve-$j.got"
    cargo run -q --release --offline -- detect --replay "$outdir/serve-$j.bin" \
        >"$outdir/serve-$j.want"
    if ! diff <(grep -E '^(samples|tests|checks|verdict)' "$outdir/serve-$j.want") \
              <(grep -E '^(samples|tests|checks|verdict)' "$outdir/serve-$j.got"); then
        echo "error: mgd report for journal $j diverged from offline replay" >&2
        exit 1
    fi
done
kill -TERM "$mgd_pid"
set +e
wait "$mgd_pid"
mgd_status=$?
set -e
if [ "$mgd_status" -ne 0 ]; then
    echo "error: mgd exited $mgd_status on SIGTERM (want 0)" >&2
    cat "$outdir/mgd.err" >&2
    exit 1
fi
if ! grep -q "queues drained" "$outdir/mgd.out"; then
    echo "error: mgd shutdown line missing the drained-queues confirmation" >&2
    cat "$outdir/mgd.out" >&2
    exit 1
fi
echo "ok: three socket streams (one mobile) byte-identical to offline replay; clean SIGTERM drain"

echo "== serve smoke: bench_serve mini cell =="
# A tiny in-process cell of the serving benchmark: asserts the daemon's
# event-conservation invariants itself and must emit the JSON report. The
# real ≥1M events/sec across ≥1k streams pin lives in BENCH_serve.json.
MG_SERVE_STREAMS=8 MG_SERVE_EVENTS=200 MG_BENCH_OUT="$outdir/serve-bench.json" \
    cargo run -q --release --offline -p mg-bench --bin bench_serve >/dev/null
grep -q '"events_per_sec"' "$outdir/serve-bench.json"
echo "ok: serving smoke cell conserves events and reports"

echo "== chaos gate: Byzantine quorum sweep is deterministic and never falsely convicts =="
# Two identical fault-seeded bench_quorum mini-sweeps, each against a fresh
# cache, must agree byte-for-byte: the Byzantine cast (FalseAccuser roles)
# and the lossy gossip channel draw only from seeded streams. The binary
# itself enforces the f < k bound — any PM=0 trial whose realized liar
# count stays below k yet convicts names its cell on stderr and exits 1.
run_quorum() {
    MG_TRIALS=2 MG_SIM_SECS=2 MG_CACHE_DIR="$outdir/quorum-cache-$1" \
    MG_BENCH_OUT="$outdir/quorum-$1.json" \
        cargo run -q --release --offline -p mg-bench --bin bench_quorum \
        >"$outdir/quorum-$1.stdout"
    # The stdout echoes the per-run MG_BENCH_OUT path; strip it before diffing.
    grep -v '^wrote ' "$outdir/quorum-$1.stdout" >"$outdir/quorum-$1.table"
}
run_quorum a
run_quorum b
if ! diff "$outdir/quorum-a.json" "$outdir/quorum-b.json" \
    || ! diff "$outdir/quorum-a.table" "$outdir/quorum-b.table"; then
    echo "error: equal-seed Byzantine quorum sweeps produced diverging outputs" >&2
    exit 1
fi
if ! grep -q '"pass":true' "$outdir/quorum-a.json"; then
    echo "error: quorum sweep report does not assert pass (false conviction?)" >&2
    exit 1
fi
echo "ok: Byzantine quorum sweep replays byte-for-byte; f < k liars never convict"

echo "== rustdoc: no warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q

echo "CI green."
