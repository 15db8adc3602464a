#!/bin/sh
# Runs every demo script, so API drift in the examples fails the build.
#
# Run from the root of a checkout with the package importable, e.g.
#
#     PYTHONPATH=src sh ci/demos.sh
#
# Exits non-zero at the first demo that fails.
set -eu
for demo in demos/*.py; do
  echo "== $demo"
  python "$demo" > /dev/null
done
