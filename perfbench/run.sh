#!/usr/bin/env bash
# Builds the repository's own `bear` binary (the server under test, with
# the repository's release profile) and the `perfbench` driver, then runs
# the driver. From the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cargo build --quiet --release --offline --manifest-path Cargo.toml -p bear-cli --bin bear
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
