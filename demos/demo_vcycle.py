"""Anatomy of one MG/OPT V-cycle.

Runs a single cycle on the source-control problem and narrates the event
log: the coarse/fine gradient coherence enforced by the tau-correction,
the line search on the prolonged coarse update, and the per-level
cost/gradient summaries.
"""

import numpy as np

from mgmlmc import (
    GridHierarchy,
    LaplaceSourceControl,
    SmoothingSchedule,
    build_sample_sets,
    equivalent_fine_solves,
    norm,
    run_vcycle,
)

problem = LaplaceSourceControl(GridHierarchy(dim=2, n0=9, levels=3))
K = 2
v = problem.zero_control(K)

schedule = SmoothingSchedule.default(K)
print("smoothing schedule: nu =", schedule.nu, " mu =", schedule.mu,
      " (level 0 runs nu + mu =", schedule.nu[0] + schedule.mu[0], "steps)")

sets = build_sample_sets((40, 12, 4), 1.0 / 16.0, True, 21, 8)
print("sample counts per optimization level:")
for k in range(K, -1, -1):
    print(f"  k={k}: {sets.counts[k]}")

mark = len(problem.ledger)  # the cycle's cost is what it appends
v_new, report = run_vcycle(problem, v, sets, schedule)
solves = equivalent_fine_solves(problem.ledger[mark:], K,
                                problem.kappa_default)
J, g = report.end
backtracks = sum(e["backtracks"] for e in report.events if e["kind"] == "linesearch")

print(f"\ncycle summary: J {report.entry.cost_value:.4e} -> {J:.4e}   "
      f"|g| {report.entry.gradient_norm:.4e} -> {norm(g):.4e}")
print(f"equivalent fine-grid solves: {solves:.1f}   "
      f"line-search backtracks: {backtracks}")

print("\nevent log:")
for e in report.events:
    if e["kind"] == "coherence":
        print(f"  level {e['level']}: restricted fine gradient matches the "
              f"coarse one to {e['value']:.1e}")
    elif e["kind"] == "linesearch":
        print(f"  level {e['level']}: coarse correction accepted with "
              f"s = {e['s']:g} ({e['backtracks']} backtracks, "
              f"<g,d> = {e['direction_inner']:.2e})")
    elif e["kind"] == "summary":
        (J0, g0), (J1, g1) = e["start"], e["end"]
        print(f"  level {e['level']}: J {J0:.4e} -> {J1:.4e}, "
              f"|g| {g0:.3e} -> {g1:.3e}")
