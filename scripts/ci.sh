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
for manifest in Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml; do
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
# perfbench is a workspace of its own, so `--workspace` above does not see
# it; its lock file must also already match its manifest.
if ! perfbench_tree=$(cargo tree --locked --offline --manifest-path perfbench/Cargo.toml --prefix none); then
    echo "error: perfbench/Cargo.lock does not match its manifest" >&2
    exit 1
fi
if awk 'NF {print $1}' <<< "$perfbench_tree" | sort -u | grep -vE '^(mg-|manet-guard$|perfbench$)'; then
    echo "error: cargo tree lists a non-workspace crate under perfbench/" >&2
    exit 1
fi
echo "ok: dependency tree is workspace-only, perfbench included"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== clippy: no warnings =="
cargo clippy --workspace --all-targets --offline -q -- -D warnings

echo "== rustfmt: formatted crates stay formatted =="
# Crate by crate toward a workspace-wide `cargo fmt --all --check`: each
# crate listed here is rustfmt-clean and must stay so.
cargo fmt -p mg-phy --check
cargo fmt -p mg-sim --check

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
# Random event tapes drive both index strategies in lockstep (sparse field,
# 700 m box, shadowed, hotspot); the large-world cross-index gate above
# covers the end-to-end diagnosis, this covers the medium in isolation. The
# box tapes race Grid's receiver bookkeeping against Naive's reference
# arithmetic, so run many of them: 2000 cases per property take about a
# second once built.
TESTKIT_CASES=2000 cargo test -q --release --offline -p mg-phy --test diff_index
echo "ok: 2000 tapes per property byte-identical under naive and grid"

echo "== differential scheduler property: pop_until vs the lazy-cancel queue =="
# Random arm/disarm/schedule/run tapes over eight timer slots drive the
# calendar scheduler (timers re-armed by overwriting their slot) and a
# test-local copy of the heap-plus-cancel-set queue it replaced; pops,
# dispatch journal seqs, events fired and the clock must all agree. Delays
# and runs reach within a bucket, across bucket boundaries, across the
# ring's horizon and up to four horizons, so the far heap, heap entries
# that come near, and the ring's wrap-around are all exercised.
TESTKIT_CASES=2000 cargo test -q --release --offline -p mg-sim --test prop \
    pop_until_matches_lazy_cancel_reference
echo "ok: 2000 scheduler tapes match the lazy-cancel reference"

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

outdir=$(mktemp -d)
trap 'rm -rf "$outdir"' EXIT

echo "== figure gate: every gated table and figure reproduces results/ byte-for-byte =="
# Re-run the experiment binaries at run_experiments.sh's committed settings
# and cmp each CSV they write against results/. A change that claims byte
# identity proves it here, at the level the paper reports; a change that
# moves a number commits the regenerated CSVs and explains the move.
# fig5 --mobile, ext_shadowing and ext_pause are committed but not gated:
# they take about as long as everything below together.
run_figure() {
    MG_TRIALS=3 MG_SIM_SECS=60 MG_CSV_DIR="$outdir/figures" \
        cargo run -q --release --offline -p mg-bench --bin "$@" >/dev/null
}
run_figure table1
run_figure fig3
run_figure fig4
run_figure fig5
run_figure fig6
run_figure fig6 -- --mobile
run_figure ablation_regions
run_figure ablation_tests
run_figure ablation_alpha
run_figure ext_fairness
run_figure ext_faults
for name in table1_grid table1_random fig3a fig3b fig4a fig4b fig5a fig5b fig5c fig6a fig6b \
    ablation_regions ablation_tests ablation_alpha ext_fairness ext_faults; do
    if ! cmp "$outdir/figures/$name.csv" "results/$name.csv"; then
        echo "error: $name.csv no longer matches results/$name.csv" >&2
        diff "results/$name.csv" "$outdir/figures/$name.csv" >&2 || true
        exit 1
    fi
done
echo "ok: 16 CSVs byte-identical to results/"

echo "== chaos gate: fault-seeded sweeps are deterministic =="
# Two identical fault-seeded mini-sweeps must produce byte-identical
# tables: the injector draws only from its own seeded streams, never from
# wall-clock or thread scheduling.
run_fig5() {
    MG_TRIALS=1 MG_SIM_SECS=2 \
    MG_CSV_DIR="$outdir/$1" MG_JSON_DIR="$outdir/$1" \
        cargo run -q --release --offline -p mg-bench --bin fig5 >"$outdir/$1.stdout"
}
run_fig5_faulted() {
    MG_TRIALS=1 MG_SIM_SECS=2 \
    MG_FAULT_PROFILE="light,deaf=250:25" MG_FAULT_SEED=7 \
    MG_CSV_DIR="$outdir/$1" MG_JSON_DIR="$outdir/$1" \
        cargo run -q --release --offline -p mg-bench --bin fig5 >"$outdir/$1.stdout"
}
run_fig5 clean
run_fig5_faulted chaos-a
run_fig5_faulted chaos-b
if ! diff -r "$outdir/chaos-a" "$outdir/chaos-b" || ! diff "$outdir/chaos-a.stdout" "$outdir/chaos-b.stdout"; then
    echo "error: equal fault seeds produced diverging sweep outputs" >&2
    exit 1
fi
# The plan must actually have bitten (faulted ≠ clean output).
if diff -q "$outdir/clean.stdout" "$outdir/chaos-a.stdout" >/dev/null; then
    echo "error: the fault plan did not perturb the sweep output" >&2
    exit 1
fi
echo "ok: fault-seeded sweeps replay byte-for-byte and differ from clean runs"

echo "== chaos gate: fault injection is index-agnostic =="
# The same fault-seeded sweep under the naive reference index must match
# the grid-index chaos run byte-for-byte: injector and detector sit above
# the spatial index, which may not leak into any observable.
MG_TRIALS=1 MG_SIM_SECS=2 MG_MEDIUM_INDEX=naive \
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
MG_TRIALS=1 MG_SIM_SECS=2 MG_FAULT_PROFILE="panic=0" \
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
    --samples 10,25 --record "$outdir/replay.bin" >"$outdir/replay-live.out"
cargo run -q --release --offline -- detect --replay "$outdir/replay.bin" \
    --samples 10,25 >"$outdir/replay-replayed.out"
if ! diff <(grep -E '^(samples|tests|checks|verdict)' "$outdir/replay-live.out") \
          <(grep -E '^(samples|tests|checks|verdict)' "$outdir/replay-replayed.out"); then
    echo "error: replayed detection diverged from the live run" >&2
    exit 1
fi
# Conflicting flags must be rejected with the usage text (exit 2).
set +e
cargo run -q --release --offline -- detect --replay "$outdir/replay.bin" --pm 50 \
    >/dev/null 2>"$outdir/replay-conflict.err"
conflict_status=$?
set -e
if [ "$conflict_status" -ne 2 ] || ! grep -q -- "--replay conflicts with --pm" "$outdir/replay-conflict.err"; then
    echo "error: --replay --pm must exit 2 with a conflict message" >&2
    exit 1
fi
# A --rate that is not finite and above 0 is a usage error too (exit 2).
# The timeout bounds a run that an infinite rate would never let finish.
for rate in 0 nan inf; do
    set +e
    timeout 30 ./target/release/manet-guard detect --rate "$rate" --secs 2 \
        >/dev/null 2>"$outdir/rate.err"
    rate_status=$?
    set -e
    if [ "$rate_status" -ne 2 ] || ! grep -q -- "invalid value for --rate" "$outdir/rate.err"; then
        echo "error: detect --rate $rate must exit 2 naming --rate (got $rate_status)" >&2
        cat "$outdir/rate.err" >&2
        exit 1
    fi
done
# A --pm above 100 is a usage error, not a run of PM 100 labelled otherwise.
set +e
./target/release/manet-guard detect --pm 101 --secs 2 >/dev/null 2>"$outdir/pm.err"
pm_status=$?
set -e
if [ "$pm_status" -ne 2 ] || ! grep -q -- "invalid value for --pm" "$outdir/pm.err"; then
    echo "error: detect --pm 101 must exit 2 naming --pm (got $pm_status)" >&2
    cat "$outdir/pm.err" >&2
    exit 1
fi
echo "ok: replay reproduces live detection; world flags, bad rates and bad PMs are rejected"

echo "== journal gate: the JSONL export is byte-identical and write-only =="
# Record the same detection run as binary and as a JSONL export. The binary
# journal must replay to the live report lines and transcode to the
# recorded JSONL byte-for-byte, and be >=7x smaller. The JSONL export is
# never read back: a replay of it exits 1 naming the binary magic.
cargo run -q --release --offline -- detect --pm 60 --secs 2 --seed 5 \
    --samples 10,25 --record "$outdir/journal.bin" >"$outdir/journal-live.out"
cargo run -q --release --offline -- detect --pm 60 --secs 2 --seed 5 \
    --samples 10,25 --record "$outdir/journal.jsonl" --journal-format jsonl >/dev/null
cargo run -q --release --offline -- detect --replay "$outdir/journal.bin" \
    --samples 10,25 >"$outdir/journal-rep-bin.out"
if ! diff <(grep -E '^(samples|tests|checks|verdict)' "$outdir/journal-live.out") \
          <(grep -E '^(samples|tests|checks|verdict)' "$outdir/journal-rep-bin.out"); then
    echo "error: the binary journal's replay diverged from the live run" >&2
    exit 1
fi
jsonl_size=$(wc -c < "$outdir/journal.jsonl")
bin_size=$(wc -c < "$outdir/journal.bin")
if [ $((bin_size * 7)) -gt "$jsonl_size" ]; then
    echo "error: binary journal ($bin_size B) is not >=7x smaller than JSONL ($jsonl_size B)" >&2
    exit 1
fi
bin_events=$(cargo run -q --release --offline -- journal info "$outdir/journal.bin" \
    | sed -n 's/^events   : //p')
bin_per_event=$(awk -v b="$bin_size" -v n="$bin_events" 'BEGIN { printf "%.2f", b / n }')
# One writer: the binary journal exports to the recorded JSONL exactly.
cargo run -q --release --offline -- journal transcode "$outdir/journal.bin" \
    "$outdir/journal-export.jsonl" --journal-format jsonl >/dev/null
if ! cmp "$outdir/journal.jsonl" "$outdir/journal-export.jsonl"; then
    echo "error: bin -> jsonl transcode differs from the recorded JSONL export" >&2
    exit 1
fi
set +e
cargo run -q --release --offline -- detect --replay "$outdir/journal.jsonl" \
    >/dev/null 2>"$outdir/journal-rep-jsonl.err"
rep_jsonl_status=$?
set -e
if [ "$rep_jsonl_status" -ne 1 ] || ! grep -q "MGOBSJ magic" "$outdir/journal-rep-jsonl.err"; then
    echo "error: detect --replay of a JSONL export must exit 1 naming the magic (got $rep_jsonl_status)" >&2
    cat "$outdir/journal-rep-jsonl.err" >&2
    exit 1
fi
# A malformed --journal-format value is a usage error, like any other flag,
# and so is any --journal-format next to --replay, which reads binary only.
set +e
cargo run -q --release --offline -- detect --pm 1 --secs 1 \
    --record "$outdir/badfmt.j" --journal-format xml \
    >/dev/null 2>"$outdir/journal-badfmt.err"
badfmt_status=$?
cargo run -q --release --offline -- detect --replay "$outdir/journal.bin" --journal-format bin \
    >/dev/null 2>"$outdir/journal-repfmt.err"
repfmt_status=$?
set -e
if [ "$badfmt_status" -ne 2 ] || ! grep -q -- "invalid value for --journal-format" "$outdir/journal-badfmt.err"; then
    echo "error: a malformed --journal-format must exit 2 with usage" >&2
    exit 1
fi
if [ "$repfmt_status" -ne 2 ] || ! grep -q -- "--replay conflicts with --journal-format" "$outdir/journal-repfmt.err"; then
    echo "error: --replay --journal-format must exit 2 with a conflict message (got $repfmt_status)" >&2
    cat "$outdir/journal-repfmt.err" >&2
    exit 1
fi
echo "ok: binary replay and JSONL export byte-identical; binary ${bin_size} B (${bin_per_event} B/event) vs JSONL ${jsonl_size} B; JSONL replay refused"

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
# files byte-for-byte. Two bad connections must fail alone: a valid frame
# then a garbage frame (its session is freed and counted abandoned), and
# one frame of 1 MiB nested `[` (no binary magic: refused before a session
# opens). SIGTERM must then drain the queues and exit 0 with exactly one
# stream abandoned.
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
# A u32 little-endian frame length prefix, as raw bytes.
frame_len() {
    local n=$1
    printf "$(printf '\\x%02x' $((n & 255)) $((n >> 8 & 255)) $((n >> 16 & 255)) $((n >> 24 & 255)))"
}
# Sends stdin as one connection and waits for mgd to close it.
bad_connection() {
    exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
    cat >&3
    cat <&3 >/dev/null || true
    exec 3<&-
}
{ frame_len "$(stat -c %s "$outdir/serve-a.bin")"; cat "$outdir/serve-a.bin"
  frame_len 4; printf junk; } | bad_connection
{ frame_len 1048576; head -c 1048576 /dev/zero | tr '\0' '['; } | bad_connection
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
if ! grep -q " 1 abandoned," "$outdir/mgd.out"; then
    echo "error: mgd shutdown line must count the one failed stream as abandoned" >&2
    cat "$outdir/mgd.out" >&2
    exit 1
fi
echo "ok: three socket streams (one mobile) byte-identical to offline replay; two bad connections fail alone; clean SIGTERM drain"

echo "== journal gate: JSONL and other non-binary input is refused where it is read =="
# JSONL is export-only, so a hostile JSONL header never reaches a parser:
# a negative pair distance, a header that is one 4 MiB string, and a
# header of a million nested `[` are each refused for the missing binary
# magic, with exit 1 from `detect --replay`, `journal info` and `mgd`. The
# timeout fails any path that stalls on them. A hostile *binary* header is
# covered by the root test `hostile_journals` and mg-serve's
# `mgd_refuses_unreadable_journal_files`.
cargo run -q --release --offline -- detect --pm 60 --secs 4 --seed 5 \
    --record "$outdir/hostile.jsonl" --journal-format jsonl >/dev/null
sed -i '1s/"pair_distance":[^,]*/"pair_distance":-5/' "$outdir/hostile.jsonl"
{ printf '{"tagged":"'; head -c 4194304 /dev/zero | tr '\0' A; printf '"}\n'; } \
    >"$outdir/hostile-long.jsonl"
{ head -c 1000000 /dev/zero | tr '\0' '['; echo; } >"$outdir/hostile-deep.jsonl"
for input in hostile hostile-long hostile-deep; do
    for cmd in "./target/release/manet-guard detect --replay" \
        "./target/release/manet-guard journal info" \
        "./target/release/mgd --journal"; do
        set +e
        timeout 30 $cmd "$outdir/$input.jsonl" >/dev/null 2>"$outdir/$input.err"
        status=$?
        set -e
        if [ "$status" -ne 1 ] || ! grep -q "MGOBSJ magic" "$outdir/$input.err"; then
            echo "error: $cmd of $input.jsonl must exit 1 naming the magic (got $status)" >&2
            cat "$outdir/$input.err" >&2
            exit 1
        fi
    done
done
echo "ok: a negative pair distance, a 4 MiB header string and a nested-JSON header are refused by detect --replay, journal info and mgd (exit 1)"

echo "== serve smoke: bench_serve mini cell =="
# A tiny in-process cell of the serving benchmark: asserts the daemon's
# event-conservation invariants itself and must emit the JSON report. The
# real ≥1M events/sec across ≥1k streams pin lives in BENCH_serve.json.
MG_SERVE_STREAMS=8 MG_SERVE_EVENTS=200 MG_BENCH_OUT="$outdir/serve-bench.json" \
    cargo run -q --release --offline -p mg-bench --bin bench_serve >/dev/null
grep -q '"events_per_sec"' "$outdir/serve-bench.json"
echo "ok: serving smoke cell conserves events and reports"

echo "== chaos gate: Byzantine quorum sweep is deterministic and never falsely convicts =="
# Two identical fault-seeded bench_quorum mini-sweeps must agree
# byte-for-byte: the Byzantine cast (FalseAccuser roles and their lie
# cadence) draws only from the plan's seeded per-vantage streams, and every
# accusation reaches every member at once. The binary itself enforces the
# f < k bound — any PM=0 trial whose realized liar count stays below k yet
# convicts names its cell on stderr and exits 1.
run_quorum() {
    MG_TRIALS=2 MG_SIM_SECS=2 MG_BENCH_OUT="$outdir/quorum-$1.json" \
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

echo "== quorum replay gate: a recorded quorum journal replays into the same verdict =="
# detect --quorum --record writes each member's distance into the journal
# header, so detect --replay --quorum rebuilds the same members, and the
# same --faults draw the same Byzantine cast: every report line must agree.
# The live run's --metrics must count every gossip copy the report names.
quorum_faults="seed=4,lie=0.3,mute=0.2"
cargo run -q --release --offline -- detect --quorum 2 --pm 75 --secs 4 --seed 5 \
    --faults "$quorum_faults" --record "$outdir/quorum.bin" --metrics >"$outdir/quorum-live.out"
gossip=$(sed -n 's/^gossip   : \([0-9]*\) copies delivered$/\1/p' "$outdir/quorum-live.out")
if [ -z "$gossip" ] || ! grep -q "\"accusations_delivered\":$gossip[,}]" "$outdir/quorum-live.out"; then
    echo "error: the live quorum's metrics must count its ${gossip:-?} gossip copies" >&2
    cat "$outdir/quorum-live.out" >&2
    exit 1
fi
cargo run -q --release --offline -- detect --replay "$outdir/quorum.bin" --quorum 2 \
    --faults "$quorum_faults" >"$outdir/quorum-replayed.out"
quorum_lines='^(roles|gossip|quorum|verdict) '
if ! diff <(grep -E "$quorum_lines" "$outdir/quorum-live.out") \
          <(grep -E "$quorum_lines" "$outdir/quorum-replayed.out"); then
    echo "error: the replayed quorum diverged from the live run" >&2
    exit 1
fi
if [ "$(grep -cE "$quorum_lines" "$outdir/quorum-replayed.out")" -ne 4 ] \
    || ! grep -q '^verdict .*MISBEHAVING' "$outdir/quorum-replayed.out"; then
    echo "error: the quorum replay must print all four report lines and convict" >&2
    cat "$outdir/quorum-replayed.out" >&2
    exit 1
fi
echo "ok: $(grep '^verdict' "$outdir/quorum-replayed.out" | sed 's/^verdict *: //'), live and replayed"

echo "== profiler smoke: the sampler names the medium's hot path =="
# scripts/profile.sh builds the CLI with full debug info into
# target/profile, samples about 2 s of CPU of a detect run and prints each
# function's share. It must take enough samples to mean something and name
# the medium's begin_tx, the top function of every profile of this run.
if ! scripts/profile.sh manet-guard detect --pm 60 --secs 600 --seed 1 \
    >"$outdir/profile.txt" 2>"$outdir/profile.err"; then
    echo "error: scripts/profile.sh failed" >&2
    cat "$outdir/profile.err" >&2
    exit 1
fi
samples=$(sed -n 's/^samples: //p' "$outdir/profile.txt")
if [ "${samples:-0}" -lt 200 ] || ! grep -q 'Medium::begin_tx' "$outdir/profile.txt"; then
    echo "error: the profile took ${samples:-no} samples (want 200) or misses Medium::begin_tx" >&2
    cat "$outdir/profile.txt" "$outdir/profile.err" >&2
    exit 1
fi
echo "ok: $samples samples; $(grep -m1 'Medium::begin_tx' "$outdir/profile.txt" | sed 's/^ *//')"

echo "== rustdoc: no warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q

echo "CI green."
