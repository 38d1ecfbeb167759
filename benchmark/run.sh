#!/usr/bin/env bash
# lake-e2e: one wall-clock benchmark of LAKE's production serving path.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
#   run.sh [full] [--quick] [--trace] [--seed N] [--workload W]
#                                                          interleaved rounds -> out/results.json
#   run.sh check A.json B.json                             compare two results files
#
# See README.md in this directory.
set -euo pipefail

here=$(dirname "$0")

# The production configuration is set in code; no environment switch of the
# stack may leak into a measurement.
for var in $(compgen -e); do
    case "$var" in
        LAKE_* | WAIT_STRATEGY) unset "$var" ;;
    esac
done

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/lake-e2e"

case "${1:-}" in
    check)
        shift
        exec "$bin" check "$@"
        ;;
    full)
        shift
        exec "$bin" full --out "$here/out" "$@"
        ;;
esac
# Unnamed: one run when `--seconds` is given (only that form takes it),
# otherwise the full rounds.
mode=full
for arg in "$@"; do
    [ "$arg" = --seconds ] && mode=run
done
exec "$bin" "$mode" --out "$here/out" "$@"
