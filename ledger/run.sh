#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout:
#
#   bash ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds this package from source (a no-op once built) into
# $CARGO_TARGET_DIR, or ledger/target when that is unset, and becomes the
# `ledger` binary, which prints every metric by name and, last, the result
# line. The same front takes `check` and `compare A B` (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: standard output carries only the run's own.
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/ledger" "$@"
