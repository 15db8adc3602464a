"""Runs both drivers over a range of seeds in one process and prints one
line per seed, then a summary.

The default config is the acceptance suite's c10 head-to-head: laplace on
an n0 = 17 grid, K = 2 (--K), tau = 5e-4, eps1 = 0.1, i_max = 15 and a
warm-up of 50.  --ini runs an experiment INI instead, with its
global_seed replaced by each seed; its mode is ignored, since both
drivers run.  Seeds are a comma-separated list of numbers and ranges.

Each line gives, for each driver, its cycles, confirmations passed and
failed, equivalent fine solves, final (confirmed) J and confirmed |g|, and
its status or the typed error it raised; then the mgopt/baseline ratio of
solves, when both drivers ended without an error.  The summary counts the
seeds that pass c10's gate (both drivers converged at a ratio <= 0.6) and
gives the median ratio and each driver's total solves.  --json PATH also
writes every seed's values, each cycle's report row but its time, and a
SHA-256 digest of each final control, as JSON:

    PYTHONPATH=src python ci/seed_sweep.py [--K 2] [--seeds 1-20,77]
        [--ini PATH] [--json PATH]
"""
import argparse
import hashlib
import json
import statistics
import time
from dataclasses import astuple, replace

from mgmlmc import (GridHierarchy, LaplaceSourceControl, OptimizerConfig,
                    baseline_optimize, robust_optimize)
from mgmlmc.config import build_problem, load_config
from mgmlmc.errors import MgmlmcError

DRIVERS = {"mgopt": robust_optimize, "baseline": baseline_optimize}
GATE = 0.6  # c10's largest passing ratio of solves


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def setup(args, seed):
    """The problem and optimizer config of one seed."""
    if args.ini:
        cfg = replace(load_config(args.ini), global_seed=seed)
        return build_problem(cfg), cfg
    problem = LaplaceSourceControl(GridHierarchy(dim=2, n0=17, levels=args.K + 1))
    return problem, OptimizerConfig(tau=5e-4, K=args.K, eps1=0.1, i_max=15,
                                    global_seed=seed, warmup=50)


def run(driver, problem, cfg):
    """One driver's run: its values, and the rows it reported before any
    typed error."""
    rows = []
    t0 = time.perf_counter()
    final_J = final_g = control = None
    try:
        u, report = driver(problem, cfg, row_sink=rows.append)
        status, final_J, final_g = report.status, report.final_J, report.final_g_norm
        control = hashlib.sha256(u.values.tobytes()).hexdigest()
    except MgmlmcError as exc:
        status = type(exc).__name__
    passed = int(status == "converged")
    return {
        "status": status, "cycles": len(rows), "confirmations_passed": passed,
        "confirmations_failed": sum(r.g_norm <= cfg.tau for r in rows) - passed,
        "solves": sum(r.solves for r in rows), "final_J": final_J,
        "final_g_norm": final_g, "control_sha256": control,
        "rows": [astuple(r)[:-1] for r in rows],  # all but the time column
        "seconds": time.perf_counter() - t0,
    }


def line(seed, runs, ratio):
    parts = [f"seed {seed:>3}"]
    for name, r in runs.items():
        J = "-" if r["final_J"] is None else f"{r['final_J']:.5g}"
        g = "-" if r["final_g_norm"] is None else f"{r['final_g_norm']:.3e}"
        parts.append(f"{name}: {r['cycles']} cyc {r['confirmations_passed']}+"
                     f"/{r['confirmations_failed']}- {r['solves']:.2f} solves "
                     f"J {J} |g| {g} {r['status']}")
    parts.append("ratio -" if ratio is None else f"ratio {ratio:.3f}")
    return " | ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--K", type=int, default=2)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-20"))
    parser.add_argument("--ini")
    parser.add_argument("--json")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        problem, cfg = setup(args, seed)
        runs = {name: run(driver, problem, cfg) for name, driver in DRIVERS.items()}
        mg, base = runs["mgopt"], runs["baseline"]
        # a run that raised has no final control
        ended = mg["control_sha256"] and base["control_sha256"]
        ratio = mg["solves"] / base["solves"] if ended else None
        results.append({"seed": seed, "ratio": ratio, **runs})
        print(line(seed, runs, ratio), flush=True)

    ratios = [r["ratio"] for r in results if r["ratio"] is not None]
    summary = {
        "seeds": len(results),
        "passes": sum(r["mgopt"]["status"] == r["baseline"]["status"] == "converged"
                      and r["ratio"] <= GATE for r in results),
        "median_ratio": statistics.median(ratios) if ratios else None,
        "total_solves": {name: sum(r[name]["solves"] for r in results)
                         for name in DRIVERS},
    }
    median = summary["median_ratio"]
    print(f"passes at ratio <= {GATE}: {summary['passes']} of {summary['seeds']}; "
          f"median ratio {'-' if median is None else f'{median:.3f}'}; "
          + "; ".join(f"{name} solves {total}"
                      for name, total in summary["total_solves"].items()))
    if args.json:
        config = args.ini or f"c10 head-to-head, K = {args.K}"
        with open(args.json, "w") as fh:
            json.dump({"config": config, "seeds": results, "summary": summary},
                      fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
