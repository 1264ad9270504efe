#!/usr/bin/env bash
# Build the benchmark and the systrace CLI from source, then run one
# workload.  Run from the repository root:
#   bash perfbench/run.sh --workload validate-mix --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -u
cd "$(dirname "$0")/.." || exit 2
dune build --root . ./perfbench/main.exe ./bin/systrace_cli.exe 1>&2 || exit 2
exec ./_build/default/perfbench/main.exe "$@"
