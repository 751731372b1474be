#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       a full set: all seven workloads, untraced then traced, as a table
#       plus one JSON document
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#   benchmark/run.sh compare A.json B.json
#       judges set B against set A; non-zero when anything got worse
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
start=$(date +%s.%N)
# Build output goes to stderr: standard output belongs to the results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
build_s=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
bin="$target/release/easydram-benchmark"
if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi
# Two things about the process, neither about the simulator, move op times
# more than any change to the code would, so every run fixes them. Children
# of a full set inherit both.
#
# Address-space randomisation gives each process its own stack and heap
# placement, and with it its own speed: the same poly_compute op took 44, 49
# or 63 ms from one process to the next, and a steady 50 ms with it off.
#
# Left to the kernel, a co-run's baton threads and the pool worker of
# stream_write_t2 land on the other CPU after a second or two, and from then
# on every hand-off wakes an idle virtual CPU: corun_write went from 22 to
# 60-73 ms per op and stream_write_t2 from 85 to 175 ms, by an amount that
# follows the host's load, not the code. One CPU (the last this process may
# use) keeps the hand-offs local. See "Noise" in README.md.
fixed=()
if command -v setarch >/dev/null && setarch -R true 2>/dev/null; then
    fixed=(setarch -R)
fi
if command -v taskset >/dev/null; then
    cpus="$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//')"
    cpu="${cpus##*[,-]}"
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        fixed+=(taskset -c "$cpu")
    fi
fi
exec ${fixed[@]+"${fixed[@]}"} "$bin" --build-s "$build_s" "$@"
