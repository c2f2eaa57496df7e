#!/usr/bin/env bash
# Build the benchmark and the daemon from source, then run one workload:
#
#   bash nscbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash nscbench/run.sh --selftest
#
# Run it from the root of a checkout.  Build output goes to stderr; the
# last line of stdout is the JSON result.  The build directory is
# $CARGO_TARGET_DIR (default .bench_build); sockets and traces go to
# .nscbench/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "nscbench: run from the root of a full checkout (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$build/cache"

dune build --root . --build-dir "$build" ./nscbench/bench.exe ./bin/nscvp.exe >&2
mkdir -p .nscbench
exec "$build/default/nscbench/bench.exe" --nscvp "$build/default/bin/nscvp.exe" --out .nscbench "$@"
