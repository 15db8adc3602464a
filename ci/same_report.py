"""Exits 0 when two report.csv files agree apart from the wall-clock
``time`` column, and 1 otherwise:

    python ci/same_report.py A/report.csv B/report.csv
"""
import csv
import sys


def rows(path):
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    keep = [j for j, name in enumerate(table[0]) if name != "time"]
    return [[row[j] for j in keep] for row in table]


sys.exit(rows(sys.argv[1]) != rows(sys.argv[2]))
