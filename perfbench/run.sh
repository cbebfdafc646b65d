#!/usr/bin/env bash
# Build the pinpoint analyser and the benchmark from source, then run the
# benchmark with the given arguments.  Run it from the root of the
# repository, for example:
#
#   bash perfbench/run.sh --workload batch-50k --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr so that the benchmark's last line of
# standard output stays its JSON result.
set -eu
dune build --root . bin/pinpoint_cli.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
