#!/usr/bin/env bash
# Build the serving benchmark from source, then run it.  Run from the
# root of a checkout; every argument passes through, e.g.
#   bash perfbench/run.sh --workload read_count --seed 1 --seconds 15 --trace 0
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display quiet ./perfbench/xbench.exe 1>&2
exec ./_build/default/perfbench/xbench.exe "$@"
