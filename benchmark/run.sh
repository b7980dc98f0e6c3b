#!/usr/bin/env bash
# Entry command of the repo benchmark: build the runner from source, then
# hand every argument to it. See README.md for the modes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# Everything the runner writes goes under here (out/).
export VIDA_BENCHMARK_DIR="$here"
exec "${CARGO_TARGET_DIR:-$here/target}/release/vida-benchmark" "$@"
