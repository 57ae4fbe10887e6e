#!/usr/bin/env bash
# Build the benchmark harness and the checker it links from source, then
# run it with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload studies --seed 1 --seconds 30 --trace 0
#
# Run from the root of a source checkout.  Everything it writes stays in
# the checkout: dune's _build/ and perfbench/_work/.
set -euo pipefail
cd "$(dirname "$0")/.."
for need in dune-project lib case_studies perfbench/answers.txt; do
  if [ ! -e "$need" ]; then
    echo "perfbench: $need is missing; run from a full source checkout" >&2
    exit 2
  fi
done
# keep dune's shared cache, which lives outside the checkout, out of it
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perf.exe >&2
exec ./_build/default/perfbench/perf.exe "$@"
