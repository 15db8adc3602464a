#!/bin/sh
# Runs the desk configs on the source of a git revision and on the working
# tree, and checks that each pair of runs gives the same outputs: the same
# exit status, control.csv, mean_state.csv and var_state.csv byte for byte,
# and report.csv apart from its wall-clock time column (ci/same_report.py,
# the comparison ci/workers_independence.sh makes).  Each desk config runs
# with both drivers, and the burgers one also with nested = false.  A
# change that is meant to move no output must leave every run the same.
#
# Run from the root of a checkout; REV defaults to HEAD:
#
#     sh ci/compare_outputs.sh [REV]
#
# The revision's src/ is extracted with git archive, which needs no network
# and writes nothing into .git.  Both sides run python -m mgmlmc.cli with
# their own src/ on PYTHONPATH (PYTHON names the interpreter, default
# python), with BLAS pinned to one thread.  Prints one line per config and
# exits non-zero when any pair differs.
set -eu
rev=${1:-HEAD}
PYTHON=${PYTHON:-python}
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" src | tar -x -C "$tmp/rev"
tree=$(pwd)

for ini in demos/burgers_desk.ini demos/dtn_desk.ini demos/laplace_desk.ini; do
  name=$(basename "$ini" .ini)
  cp "$ini" "$tmp/$name.ini"
  sed "s|^mode *=.*|mode = baseline|" "$ini" > "$tmp/${name}_baseline.ini"
done
sed 's|^\[optimizer\]|&\nnested = false|' demos/burgers_desk.ini \
  > "$tmp/burgers_desk_non_nested.ini"

differ=0
for config in burgers_desk burgers_desk_baseline burgers_desk_non_nested \
              dtn_desk dtn_desk_baseline laplace_desk laplace_desk_baseline; do
  for side in rev tree; do
    if [ "$side" = rev ]; then src="$tmp/rev/src"; else src="$tree/src"; fi
    out="$tmp/$config-$side"
    sed "s|^output_dir *=.*|output_dir = $out|" "$tmp/$config.ini" > "$out.ini"
    status=0
    PYTHONPATH="$src" $PYTHON -m mgmlmc.cli run "$out.ini" > "$out.log" 2>&1 || status=$?
    echo "$status" > "$out.status"
  done
  a="$tmp/$config-rev" b="$tmp/$config-tree"
  bad=""
  cmp -s "$a.status" "$b.status" || bad="$bad exit-status"
  for f in control.csv mean_state.csv var_state.csv report.csv; do
    if [ ! -e "$a/$f" ] && [ ! -e "$b/$f" ]; then
      continue
    elif [ ! -e "$a/$f" ] || [ ! -e "$b/$f" ]; then
      bad="$bad $f"
    elif [ "$f" = report.csv ]; then
      $PYTHON ci/same_report.py "$a/$f" "$b/$f" || bad="$bad $f"
    else
      cmp -s "$a/$f" "$b/$f" || bad="$bad $f"
    fi
  done
  if [ -z "$bad" ]; then
    echo "same     $config (exit $(cat "$b.status"))"
  else
    echo "DIFFERS  $config:$bad"
    differ=1
  fi
done
exit "$differ"
