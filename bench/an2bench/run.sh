#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments. Run from the root of the checkout:
#   bash bench/an2bench/run.sh --workload fabric-bursty --seed 1 --seconds 12 --trace 0
# Build output goes to stderr so the benchmark's last stdout line stays
# its JSON summary; the dune cache is off so nothing is written outside
# the checkout.
set -e
export DUNE_CACHE=disabled
dune build --root . ./bench/an2bench/an2bench.exe 1>&2
exec ./_build/default/bench/an2bench/an2bench.exe "$@"
