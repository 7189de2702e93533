#!/usr/bin/env bash
# Build the benchmark, run every workload with tracing off (the end-to-end
# metrics), then again traced (the per-layer metrics and one Chrome trace each).
# Run from anywhere; results land in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bench() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}
bench run --all "$@"
bench run --all --trace "$@"
