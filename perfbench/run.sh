#!/usr/bin/env bash
# Build the release `psdp` binary and the benchmark harness from this
# checkout, then run one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result. Artifacts go to $CARGO_TARGET_DIR
# (default .bench_build), spans and detail records to its perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
  echo "perfbench: run from a full checkout (crates/ and Cargo.toml not found)" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
nproc="$(nproc)"
export RAYON_NUM_THREADS="$nproc"
export PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
cargo build --release --offline --quiet -p psdp-cli --bin psdp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/psdp-perfbench" \
  --psdp "$CARGO_TARGET_DIR/release/psdp" --out "$CARGO_TARGET_DIR/perfbench" "$@"
