#!/bin/sh
# Build the benchmark from source, then run it; every argument passes
# through (see perfbench/README.md):
#   sh perfbench/run.sh --workload kv-small --seed 1 --seconds 10 --trace 0
# Run from the repository root.  The dune cache is off so that the build
# writes nothing outside the checkout.
#
# The load generator and every server process it spawns share one CPU
# (the last one): in a closed loop on a small VM, wake-ups across CPUs
# made the round trip vary by about 20% from run to run, against about
# 3% on one CPU.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled -j 2 --display=quiet ./perfbench/perfbench.exe 1>&2
bin=./_build/default/perfbench/perfbench.exe
if command -v taskset >/dev/null 2>&1 && command -v nproc >/dev/null 2>&1; then
  cpu=$(( $(nproc) - 1 ))
  exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
