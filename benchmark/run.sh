#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload: the command of /BENCHMARK.json. The last
#       line of standard output is the result object.
#   benchmark/run.sh [--sets K] [--traced] [--smoke] [--seed N] [--seconds S]
#       all four workloads, every metric printed by name with its unit.
#       --sets K   run the untraced benchmark K times, workloads interleaved
#                  (set 1: deep4 wide256 pipe4 query4, set 2: the same, ...),
#                  and exit non-zero when an end-to-end metric differs between
#                  the first and a later set by more than its bound
#       --traced   the per-layer run instead (writes benchmark/out/trace-<workload>.json)
#       --smoke    inputs / 20, two reps: a functional check for CI, not a measurement
#
# Builds into $CARGO_TARGET_DIR, or the repo's own target/ when that is unset.
# Nothing here — no flag, no environment variable — changes what the measured
# program does: the binaries take a workload, a seed and a rep count.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="benchmark/out"

# The work directory is memory, not the disk under the checkout: a tmpfs
# mounted on benchmark/out/work in a mount namespace of this script's own,
# so nothing outside this process tree sees it and it is gone when the
# script ends, however it ends. Where the machine refuses (no privilege,
# no unshare) the run goes ahead on the checkout's disk, and says so.
if [[ ${1:-} != --in-namespace ]]; then
    if unshare --mount --propagation private true 2>/dev/null; then
        exec unshare --mount --propagation private bash "$here/run.sh" --in-namespace "$@"
    fi
else
    shift
    mkdir -p "$out/work"
    mount -t tmpfs -o size=4g,mode=0700 ute-benchmark "$out/work" ||
        echo "run.sh: no tmpfs on $out/work; the work directory stays on disk" >&2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"

one_run=0 trace=0 prev=""
for a in "$@"; do
    [[ $a == --workload ]] && one_run=1
    [[ $prev == --trace ]] && trace=$a
    prev=$a
done
if ((one_run)); then
    exe=ute-benchmark
    [[ $trace == 1 ]] && exe=ute-benchmark-traced
    exec "$bin/$exe" "$@" --out "$out"
fi

sets=1 traced=0 seed=1 seconds=15 smoke=()
while (($#)); do
    case $1 in
        --sets) sets=$2; shift ;;
        --seed) seed=$2; shift ;;
        --seconds) seconds=$2; shift ;;
        --traced) traced=1 ;;
        --smoke) smoke=(--smoke) ;;
        *) sed -n '2,18p' "$0" >&2; exit 2 ;;
    esac
    shift
done

mkdir -p "$out"
workloads=(deep4 wide256 pipe4 query4)
if ((traced)); then
    for w in "${workloads[@]}"; do
        "$bin/ute-benchmark-traced" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace 1 --out "$out" "${smoke[@]}" | sed '$d'
    done
    exit 0
fi

for ((k = 1; k <= sets; k++)); do
    for w in "${workloads[@]}"; do
        "$bin/ute-benchmark" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace 0 --out "$out" "${smoke[@]}" | tee "$out/set$k-$w.txt" | sed '$d'
    done
done
status=0
for ((k = 2; k <= sets; k++)); do
    for w in "${workloads[@]}"; do
        echo "== $w: set 1 vs set $k"
        "$bin/ute-benchmark" --compare "$out/set1-$w.txt" "$out/set$k-$w.txt" || status=1
    done
done
exit $status
