#!/usr/bin/env bash
# Builds the wall-clock benchmark and runs one workload. From the repository
# root:
#
#   bash perfbench/run.sh --workload rmat --seed 1 --seconds 40 --trace 0
#
# The run uses one glibc malloc arena. By default every thread may get an
# arena of its own, and which arena a large allocation lands in depends on
# thread timing; memory freed in one arena is not reused by another, so the
# process's peak RSS moved by up to a third between otherwise identical
# runs. With one arena its quartiles lie within 2% of the median. The build
# itself runs with the default.
set -euo pipefail
manifest=perfbench/Cargo.toml
cargo build --release --quiet --manifest-path "$manifest"
MALLOC_ARENA_MAX=1 exec cargo run --release --quiet --manifest-path "$manifest" -- "$@"
