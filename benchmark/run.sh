#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. Every argument is
# passed through; see README.md or src/main.rs for the forms.
#
# The driver sets CARGO_TARGET_DIR relative to the checkout root and runs
# this script from there, so nothing here changes directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
SPN_BENCHMARK_DIR="$here" exec "$target/release/spn-benchmark" "$@"
