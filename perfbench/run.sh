#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through
# (see bench.ml).  Run from the repository root.
set -euo pipefail
dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
