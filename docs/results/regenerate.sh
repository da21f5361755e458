#!/usr/bin/env bash
# Regenerates the committed figure record: the `--quick` stdout of each
# subcommand of `procrustes-experiments`, one file per subcommand under
# docs/results/quick/. Run from the repository root:
#
#   bash docs/results/regenerate.sh
#
# The eleven fast subcommands are diffed byte for byte against the
# record by crates/experiments/tests/figure_record.rs (tier-1); fig6 and
# fig7 train for ~10 s each in release, and CI's perf job diffs them. A
# change that moves a figure regenerates it in the same commit and says
# why.
set -euo pipefail
cargo build --release --quiet -p procrustes-experiments
bin="${CARGO_TARGET_DIR:-target}/release/procrustes-experiments"
for name in fig1 fig5 fig8 fig13 fig17 fig18 fig19 fig20 table1 table3 fidelity fig6 fig7; do
    "$bin" "$name" --quick > "docs/results/quick/$name.txt"
done
