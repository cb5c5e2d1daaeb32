#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it from the root of
# the checkout. See benchmark/README.md for the arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/windjoin-benchmark" "$@"
