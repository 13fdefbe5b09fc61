#!/usr/bin/env bash
# Build rd2 and the harness from source, then run one benchmark
# invocation from the repository root:
#
#   bash crdbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line on stdout is the
# harness's JSON summary. Outside a full checkout the build fails and
# so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./bin/rd2.exe ./crdbench/crdbench.exe 1>&2
exec ./_build/default/crdbench/crdbench.exe --rd2 ./_build/default/bin/rd2.exe "$@"
