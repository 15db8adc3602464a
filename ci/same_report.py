"""Exits 0 when two run outputs agree apart from what the wall clock or
the output directory sets, and 1 otherwise: two report.csv files apart
from their ``time`` column, or two run.json files apart from
``total_time`` and the configured ``output_dir``:

    python ci/same_report.py A/report.csv B/report.csv
    python ci/same_report.py A/run.json B/run.json [KEY ...]

Further arguments name more ``config`` keys of run.json that may differ,
such as ``workers`` when the two runs were given different thread counts.
"""
import csv
import json
import sys


def rows(path):
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    keep = [j for j, name in enumerate(table[0]) if name != "time"]
    return [[row[j] for j in keep] for row in table]


def record(path):
    with open(path) as fh:
        run = json.load(fh)
    del run["total_time"]
    for key in ["output_dir", *sys.argv[3:]]:
        del run["config"][key]
    return run


read = record if sys.argv[1].endswith(".json") else rows
sys.exit(read(sys.argv[1]) != read(sys.argv[2]))
