#!/usr/bin/env bash
# Builds the simcost benchmark from source and runs one workload:
#
#   bash simcost/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result. CARGO_TARGET_DIR defaults to
# .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# The code version goes into the result metadata: the git commit, or a hash
# of the sources when the checkout is not a git repository.
if [ -z "${SIMCOST_COMMIT:-}" ]; then
    if ! SIMCOST_COMMIT="$(git -C "$here/.." rev-parse HEAD 2>/dev/null)"; then
        SIMCOST_COMMIT="src-$(cd "$here/.." && find crates simcost/src -name '*.rs' -o -name Cargo.toml |
            LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
    fi
fi
export SIMCOST_COMMIT

exec "$CARGO_TARGET_DIR/release/simcost" "$@"
