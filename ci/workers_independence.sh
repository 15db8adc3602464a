#!/bin/sh
# Each sample's result must not depend on how a run splits its samples over
# worker threads: the outputs of --workers 1, 2 and 3 agree byte for byte,
# apart from report.csv's wall-clock time column, and run.json agrees apart
# from total_time, output_dir and workers (ci/same_report.py), so the
# confirmed J and |g|, which no CSV holds, are compared too.  Three workers
# split an estimate's mixed-grid batch at other sample boundaries than two
# do.  The laplace desk config also runs with mode = baseline, the driver
# on which workers = 2 pays, and the burgers one with nested = false,
# where every coarse level of a V-cycle takes its start estimate afresh.
#
# Run from the root of a checkout.  MGMLMC names the entry point (default
# mgmlmc); from a source tree without an install:
#
#     PYTHONPATH=src MGMLMC="python -m mgmlmc.cli" sh ci/workers_independence.sh
#
# Exits non-zero at the first run that fails or output that differs.
set -eu
MGMLMC=${MGMLMC:-mgmlmc}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
sed "s|^mode *=.*|mode = baseline|" demos/laplace_desk.ini > "$tmp/laplace_desk_baseline.ini"
sed "s|^\[optimizer\]|[optimizer]\nnested = false|" demos/burgers_desk.ini > "$tmp/burgers_desk_non_nested.ini"
for ini in demos/burgers_desk.ini demos/dtn_desk.ini demos/laplace_desk.ini "$tmp/laplace_desk_baseline.ini" "$tmp/burgers_desk_non_nested.ini"; do
  name=$(basename "$ini" .ini)
  for w in 1 2 3; do
    sed "s|^output_dir *=.*|output_dir = $tmp/$name-w$w|" "$ini" > "$tmp/$name-w$w.ini"
    $MGMLMC run "$tmp/$name-w$w.ini" --workers "$w"
  done
  for w in 2 3; do
    for f in control.csv mean_state.csv var_state.csv; do
      cmp "$tmp/$name-w1/$f" "$tmp/$name-w$w/$f"
    done
    python ci/same_report.py "$tmp/$name-w1/report.csv" "$tmp/$name-w$w/report.csv"
    python ci/same_report.py "$tmp/$name-w1/run.json" "$tmp/$name-w$w/run.json" workers
  done
done
