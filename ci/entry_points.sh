#!/bin/sh
# Runs the gradcheck, mlmc-report and field-sample commands on every shipped
# example config, and checks that mlmc-report, a command other than run that
# splits its samples over threads too, prints the same at --workers 1 and 2.
#
# Run from the root of a checkout.  MGMLMC names the entry point (default
# mgmlmc); from a source tree without an install:
#
#     PYTHONPATH=src MGMLMC="python -m mgmlmc.cli" sh ci/entry_points.sh
#
# Exits non-zero at the first command that fails or output that differs.
set -eu
MGMLMC=${MGMLMC:-mgmlmc}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for ini in demos/*.ini; do
  echo "== $ini"
  $MGMLMC gradcheck "$ini"
  $MGMLMC mlmc-report "$ini"
  $MGMLMC field-sample "$ini"
  $MGMLMC mlmc-report "$ini" > "$tmp/mlmc-report-w1.txt"
  $MGMLMC mlmc-report "$ini" --workers 2 > "$tmp/mlmc-report-w2.txt"
  cmp "$tmp/mlmc-report-w1.txt" "$tmp/mlmc-report-w2.txt"
done
