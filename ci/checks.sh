#!/bin/sh
# Runs the tier-1 workflow's script steps in the workflow's order, from a
# source tree without an install: the entry points on the shipped example
# configs, the workers-independence runs, the demos and the benchmark smoke
# runs.  BLAS is pinned to one thread, as in the workflow.  The workflow's
# first step, the tier-1 tests, runs separately:
#
#     PYTHONPATH=src python -m pytest -q
#
# Run from the root of a checkout:
#
#     sh ci/checks.sh
#
# MGMLMC names the entry point (default: the CLI module run from src/).
# Exits non-zero at the first check that fails.
#
# A change meant to move no output is checked against a second source
# tree, so it is not a workflow step: ci/compare_outputs.sh [REV] runs the
# desk configs on REV's src/ and on the working tree and compares them.
set -eu
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export MGMLMC="${MGMLMC:-python -m mgmlmc.cli}"
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
for check in entry_points workers_independence demos bench_smoke; do
  echo "=== ci/$check.sh"
  sh "ci/$check.sh"
done
