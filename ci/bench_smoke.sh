#!/bin/sh
# Smoke runs of the benchmark harness: about one second of each workload,
# every other run traced, so a tracer target that no longer exists and a
# run whose outputs differ from the first one's both fail.  The harness
# runs the package from src/ itself.
#
# Run from the root of a checkout:
#
#     sh ci/bench_smoke.sh
#
# Exits non-zero at the first workload that fails.
set -eu
python3 perfbench/run.py --workload burgers-mgopt --seconds 1 --trace 1
python3 perfbench/run.py --workload laplace-mgopt --seconds 1 --trace 1
python3 perfbench/run.py --workload laplace-baseline --seconds 1 --trace 1
