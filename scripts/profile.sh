#!/usr/bin/env bash
# Samples where a release binary of this repository spends its CPU time and
# prints each function's share of the samples, charged to the outermost
# frame of its inline chain (the function the machine code belongs to).
#
#   scripts/profile.sh [--manifest-path PATH] BIN [ARGS...]
#
# BIN is built with `cargo build --release --bin BIN` (from the workspace of
# PATH, by default the repository's) into target/profile with full debug
# info, then run with ARGS and scripts/sampler.c preloaded. BIN's stdout
# goes to stderr. The stdout is a `samples: N` line, then the 30 functions
# with the most samples; samples in a shared object are charged to it by
# name, e.g. `[libm.so.6]`. The kernel samples at about 250 Hz, so 1 s of
# CPU gives some 250 samples. Needs only gcc, addr2line and awk; the
# sampler observes BIN's own process and nothing else. Examples:
#
#   scripts/profile.sh manet-guard detect --pm 60 --secs 600 --seed 1
#   scripts/profile.sh --manifest-path perfbench/Cargo.toml perfbench \
#       --workload paper_grid --seed 1 --seconds 20 --trace 0
#
# Line tables alone would build faster, but then most functions carry no
# linkage name and addr2line names one function two ways (its symbol, or
# its short DWARF name), splitting its samples over two rows.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd -P)
manifest="$root/Cargo.toml"
if [ "${1:-}" = --manifest-path ]; then
    manifest=$2
    shift 2
fi
if [ $# -lt 1 ]; then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
bin=$1
shift
out="$root/target/profile"
exe="$out/release/$bin"
mkdir -p "$out"
CARGO_PROFILE_RELEASE_DEBUG=full CARGO_TARGET_DIR="$out" \
    cargo build -q --release --offline --manifest-path "$manifest" --bin "$bin"
gcc -O2 -Wall -shared -fPIC -o "$out/sampler.so" "$root/scripts/sampler.c"
LD_PRELOAD="$out/sampler.so" "$exe" "$@" 3>"$out/samples" >&2

# Each PC becomes an address inside BIN (relative to its load base, the
# mapping of file offset 0) or the name of the object it fell in. mawk
# prints %x in 32 bits only, so hex is converted by hand (exact in doubles
# below 2^53).
awk -v exe="$exe" '
function num(h,   i, n) {
    for (i = 1; i <= length(h); i++) n = n * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
    return n
}
function hex(n,   s, d) {
    do { d = n % 16; s = substr("0123456789abcdef", d + 1, 1) s; n = (n - d) / 16 } while (n > 0)
    return s
}
$0 == "--" { pcs = 1; next }
!pcs {
    if ($6 == "") next
    split($1, r, "-")
    m++; lo[m] = num(r[1]); hi[m] = num(r[2]); obj[m] = $6
    if (num($3) == 0 && !($6 in base)) base[$6] = lo[m]
    next
}
{
    pc = num($1)
    for (i = 1; i <= m && !(lo[i] <= pc && pc < hi[i]); i++) {}
    if (i > m) { print "[unknown]"; next }
    if (obj[i] == exe) { print "0x" hex(pc - base[exe]); next }
    n = split(obj[i], part, "/")
    print (part[n] ~ /^\[/) ? part[n] : "[" part[n] "]"
}' "$out/samples" | sort | uniq -c >"$out/counts"

awk '$2 ~ /^0x/ { print $2 }' "$out/counts" | addr2line -a -f -i -C -e "$exe" >"$out/symbols"

# addr2line prints each address, then a function and a file:line per frame
# of its inline chain, innermost first: the last function is the outermost.
awk '
FILENAME == ARGV[1] {
    if ($0 ~ /^0x[0-9a-f]+$/) { addr = $0; sub(/^0x0*/, "", addr); k = 0; next }
    if (k++ % 2 == 0) outer[addr] = $0
    next
}
{
    fn = $2
    if (fn ~ /^0x/) { a = fn; sub(/^0x0*/, "", a); fn = (a in outer && outer[a] != "??") ? outer[a] : "[unsymbolized]" }
    total += $1; count[fn] += $1
}
END {
    print "samples: " total + 0
    fflush()
    if (!total) exit
    for (fn in count) printf "%6.1f%% %7d  %s\n", 100 * count[fn] / total, count[fn], fn | "sort -rn | head -n 30"
}' "$out/symbols" "$out/counts"
