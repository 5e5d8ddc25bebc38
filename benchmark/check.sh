#!/bin/sh
# Run the whole benchmark twice on one seed and hold the second result
# file against the first by the bounds in BENCHMARK.json. Two runs of the
# same code must agree: timings within their bounds, counts exactly.
#
#   benchmark/check.sh [SEED]        (default 2022; the issue also asks for 7)
set -eu
cd "$(dirname "$0")/.."
seed="${1:-2022}"
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench --seed "$seed" --out "benchmark/out/check-$seed-a.json"
bench --seed "$seed" --out "benchmark/out/check-$seed-b.json"
bench --compare "benchmark/out/check-$seed-a.json" "benchmark/out/check-$seed-b.json"
