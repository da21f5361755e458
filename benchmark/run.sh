#!/usr/bin/env bash
# Builds the daemon and the harness in release and runs the benchmark.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out FILE]  every workload
#   benchmark/run.sh --compare A.jsonl B.jsonl                            two sets of runs
#
# Run from the repository root. Everything it writes goes under the
# cargo target directory (or where --out and --dir point).
set -euo pipefail

[[ -f Cargo.toml && -d crates/serve ]] || {
    echo "benchmark/run.sh: run from the root of a checkout that holds the crates" >&2
    exit 1
}
# One target directory for both builds, so the crates they share compile once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p procrustes-serve --bin procrustes-serve
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/procrustes-benchmark"

case " $* " in
*" --workload "* | *" --compare "* | *" --list "* | *" --help "*)
    exec "$bin" "$@"
    ;;
esac
for workload in $("$bin" --list); do
    "$bin" --workload "$workload" "$@"
done
