"""Command-line entry points: run, gradcheck, mlmc-report, field-sample.

Artifacts land in the configured output directory:

* ``report.csv``: one row per cycle/phase with columns
  i, eps, n0..nK, J0, J, g0_norm, g_norm, solves, time.  Rows are flushed
  as soon as a cycle finishes.
* ``control.csv``: the final control embedded in its full node grid.
* ``mean_state.csv`` / ``var_state.csv``: state mean and variance over
  fresh samples at the final control.
* ``run.json``: configuration echo, seeds, version and final values.

Re-running with the same config and seed reproduces ``report.csv``
bit-for-bit except for the time column.

Exit status: 0 for a converged run or a passed gradient check, 1 for a run
that stopped unconverged or a failed gradient check, 2 for an error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_problem, load_config
from .driver import (
    CycleRow,
    baseline_optimize,
    report_columns,
    robust_optimize,
    row_to_record,
    state_statistics,
)
from .errors import MgmlmcError
from .grids import GAMMA, LevelVector, norm
from .mlmc import (
    PURPOSE_USER,
    SampleAllocation,
    build_sample_sets,
    estimate_level_stats,
    make_set_id,
    mlmc_gradient,
    optimal_allocation,
)
from .random_fields import RngStream

_FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT_FMT % float(value)


def _write_matrix_csv(path: Path, array: np.ndarray) -> None:
    """The bytes ``csv.writer`` makes of ``_fmt`` over the rows: no value
    needs quoting, and lines end in ``\\r\\n``."""
    array = np.atleast_2d(np.asarray(array, dtype=float))
    lines = [",".join(f"c{j}" for j in range(array.shape[1]))]
    lines += [",".join([_FLOAT_FMT % v for v in row]) for row in array.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def control_to_grid(problem, u: LevelVector) -> np.ndarray:
    """Embed a control vector into its full node grid (zero boundary)."""
    n = problem.hierarchy.nodes(u.level)
    if u.role == GAMMA or problem.hierarchy.dim == 1:
        full = np.zeros(n)
        full[1:-1] = u.values
        return full
    full = np.zeros((n, n))
    full[1:-1, 1:-1] = u.values
    return full


class _ReportWriter:
    """Streams report rows to CSV, flushing after every row."""

    def __init__(self, path: Path, K: int):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(report_columns(K))
        self._fh.flush()

    def __call__(self, row: CycleRow) -> None:
        record = row_to_record(row)
        self._writer.writerow([_fmt(v) for v in record])
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


# Finite-difference checks: random unit directions and central step.
FD_DIRECTIONS = 5
FD_EPS = 1e-5


def fd_gradient_checks(problem, K: int, global_seed: int) -> dict:
    """Central-difference checks of per-sample and estimator gradients.

    Returns the largest relative deviation between the central difference
    of the (per-sample / multilevel) cost along a random unit direction and
    the inner product with the matching gradient.  One loop serves both
    checks, the per-sample one drawing its directions first.  The
    estimator is checked on nested sets of max(2, 8 >> l) samples per
    level l.
    """
    hier = problem.hierarchy
    amp = 0.1 if problem.name == "burgers" else 1.0
    if problem.control_role == GAMMA or hier.dim == 1:
        u0 = problem.control_from_function(K, lambda x: amp * np.sin(np.pi * x))
    else:
        u0 = problem.control_from_function(
            K, lambda x1, x2: amp * np.sin(np.pi * x1) * np.sin(np.pi * x2)
        )
    rng = np.random.default_rng(global_seed + 7)

    def worst_deviation(cost, g):
        worst = 0.0
        for _ in range(FD_DIRECTIONS):
            d = u0.with_values(rng.standard_normal(u0.values.shape))
            d = d * (1.0 / norm(d))
            fd = (cost(u0 + FD_EPS * d) - cost(u0 - FD_EPS * d)) / (2.0 * FD_EPS)
            gd = float(np.vdot(g.values, d.values)) * u0.h ** u0.values.ndim
            worst = max(worst, abs(fd - gd) / max(abs(gd), 1e-14))
        return worst

    stream = RngStream(global_seed, make_set_id(0, PURPOSE_USER), K, 0)
    per_sample = worst_deviation(lambda u: problem.cost_sample(u, stream),
                                 problem.gradient_sample(u0, stream))

    counts = tuple(max(2, 8 >> level) for level in range(K + 1))
    alloc = SampleAllocation(eps=1.0, theta=0.5, n=counts, finest=K)
    sets = build_sample_sets(K, alloc, 0.25, True, global_seed,
                             make_set_id(1, PURPOSE_USER))
    estimator = worst_deviation(
        lambda u: mlmc_gradient(problem, u, sets, K).cost_value,
        mlmc_gradient(problem, u0, sets, K).value)
    return {"per_sample": per_sample, "estimator": estimator}


def cmd_run(cfg: ExperimentConfig) -> int:
    problem = build_problem(cfg)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    writer = _ReportWriter(outdir / "report.csv", cfg.K)
    t0 = time.perf_counter()
    try:
        if cfg.mode == "baseline":
            u, report = baseline_optimize(problem, cfg, row_sink=writer)
        else:
            u, report = robust_optimize(problem, cfg, row_sink=writer)
    finally:
        writer.close()
    _write_matrix_csv(outdir / "control.csv", control_to_grid(problem, u))
    mean, var = state_statistics(problem, u, cfg.state_samples,
                                 global_seed=cfg.global_seed)
    _write_matrix_csv(outdir / "mean_state.csv", mean)
    _write_matrix_csv(outdir / "var_state.csv", var)
    record = {
        "version": __version__,
        "config": vars(cfg),
        "global_seed": cfg.global_seed,
        "status": report.status,
        "converged": report.converged,
        "final_J": report.final_J,
        "final_gradient_norm": report.final_g_norm,
        "total_solves": report.total_solves,
        "total_time": time.perf_counter() - t0,
        "cycles": len(report.rows),
    }
    with open(outdir / "run.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    g = ("unconfirmed" if report.final_g_norm is None
         else f"{report.final_g_norm:.3e}")
    print(f"{cfg.mode}: status={report.status} cycles={len(report.rows)} "
          f"solves={report.total_solves:.2f} final |g|={g}")
    return 0 if report.converged else 1


def cmd_gradcheck(cfg: ExperimentConfig) -> int:
    problem = build_problem(cfg)
    errors = fd_gradient_checks(problem, cfg.K, cfg.global_seed)
    tol = 1e-4 if problem.name == "burgers" else 1e-5
    print(f"per-sample max relative FD error: {errors['per_sample']:.3e}")
    print(f"estimator  max relative FD error: {errors['estimator']:.3e}")
    print(f"tolerance: {tol:.0e}")
    ok = max(errors.values()) <= tol
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_mlmc_report(cfg: ExperimentConfig) -> int:
    problem = build_problem(cfg)
    u = problem.zero_control(cfg.K)
    # every level measured, and the counts sized for the confirmation
    # budget r * tau, the finest accuracy a run asks for
    stats = estimate_level_stats(
        problem, u, cfg.warmup, range(cfg.K + 1),
        global_seed=cfg.global_seed, set_id=make_set_id(0, PURPOSE_USER),
        extrapolate_finest=0,
    )
    alloc = optimal_allocation(stats, cfg.r * cfg.tau, cfg.theta)
    lines = [["level", "V", "C", "n", "phi", "kappa", "rho"]]
    for level in stats.levels:
        lines.append([
            str(level), _fmt(stats.V[level]), _fmt(stats.C[level]),
            str(alloc.n[level]),
            "" if stats.phi is None else _fmt(stats.phi),
            "" if stats.kappa is None else _fmt(stats.kappa),
            "" if stats.rho is None else _fmt(stats.rho),
        ])
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "mlmc_report.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    for line in lines:
        print(",".join(line))
    return 0


def cmd_field_sample(cfg: ExperimentConfig) -> int:
    problem = build_problem(cfg)
    stream = RngStream(cfg.global_seed, make_set_id(0, PURPOSE_USER), cfg.K, 0)
    sample = problem.field(stream, cfg.K)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "field_sample.csv"
    _write_matrix_csv(path, sample.values)
    print(f"wrote {path} ({sample.values.shape})")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "gradcheck": cmd_gradcheck,
    "mlmc-report": cmd_mlmc_report,
    "field-sample": cmd_field_sample,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mgmlmc",
        description="Robust PDE-constrained optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the experiment config file")
        p.add_argument("--workers", type=int, default=None,
                       help="bound on sample-evaluation parallelism")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.workers is not None:
            cfg = replace(cfg, workers=args.workers)
        return _COMMANDS[args.command](cfg)
    except (MgmlmcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
