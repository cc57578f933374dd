#!/usr/bin/env bash
# Build hgd and the benchmark program from this checkout, then run one
# benchmark.  From the root of the checkout:
#
#   bash hgbench/run.sh --workload hot-read|cold-compute|write-mix \
#                       --seed N --seconds S --trace 0|1
#
# The build goes to _build/ inside the checkout with dune's shared cache
# off, and each run's inputs to .hgbench_run/ (removed when it ends).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/hgd.ml ]; then
  echo "hgbench: not a checkout of the repository (no dune-project or bin/hgd.ml)" >&2
  exit 2
fi
if command -v dune >/dev/null 2>&1; then DUNE=(dune); else DUNE=(opam exec -- dune); fi
DUNE_CACHE=disabled "${DUNE[@]}" build --root . --profile release ./bin/hgd.exe ./hgbench/main.exe 1>&2
exec ./_build/default/hgbench/main.exe --hgd ./_build/default/bin/hgd.exe --root .hgbench_run "$@"
