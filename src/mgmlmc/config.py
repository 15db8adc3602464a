"""Experiment configuration: sectioned key=value files.

The format is INI-style (parsed by :mod:`configparser`), flat and diffable::

    [experiment]
    problem = laplace          ; laplace | dtn | burgers
    mode = mgopt               ; mgopt | baseline | gradcheck | mlmc-report | field-sample
    output_dir = out
    global_seed = 42

    [grid]
    n0 = 17                    ; coarsest nodes per axis (boundary included)
    K = 2                      ; finest level index; levels run 0..K

    [covariance]               ; optional, problem defaults apply
    sigma2 = 0.1
    lambda = 0.3
    scale = 1.0

    [optimizer]
    tau = 5e-4
    eps1 = 0.1
    r = 0.5
    i_max = 20
    q = 0.0625
    theta = 0.5
    warmup = 100
    nested = true
    alpha = 1e-6

    [burgers]                  ; read only for problem = burgers
    nt = 201

    [run]
    workers = 1
    state_samples = 64

The environment variable ``MGMLMC_SEED`` (or legacy ``MGOPT_SEED``)
overrides ``global_seed``.  All numeric ranges are validated before any
solve happens.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .burgers import BurgersInitialControl, BurgersProblemSpec
from .driver import OptimizerConfig
from .elliptic import (
    DtNBoundaryControl,
    DtNProblemSpec,
    LaplaceProblemSpec,
    LaplaceSourceControl,
)
from .errors import ConfigError
from .grids import GridHierarchy
from .random_fields import Box, CovarianceSpec

PROBLEMS = ("laplace", "dtn", "burgers")
MODES = ("mgopt", "baseline", "gradcheck", "mlmc-report", "field-sample")
DEFAULT_N0 = {"laplace": 17, "dtn": 9, "burgers": 33}


@dataclass
class ExperimentConfig:
    problem: str = "laplace"
    mode: str = "mgopt"
    output_dir: str = "out"
    global_seed: int = 42
    n0: int | None = None
    K: int = 2
    sigma2: float | None = None
    lam: float | None = None
    scale: float | None = None
    alpha: float = 1e-6
    tau: float = 5e-4
    eps1: float = 0.1
    r: float = 0.5
    i_max: int = 20
    q: float = 1.0 / 16.0
    theta: float = 0.5
    warmup: int = 100
    nested: bool = True
    baseline_max_steps: int = 500
    baseline_eps1: float | None = None
    nt: int | None = None
    workers: int = 1
    state_samples: int = 64

    def validate(self) -> "ExperimentConfig":
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem '{self.problem}'")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode '{self.mode}'")
        n0 = self.n0 if self.n0 is not None else DEFAULT_N0[self.problem]
        if n0 < (5 if self.problem == "dtn" else 3):
            raise ConfigError(f"n0={n0} too coarse for problem '{self.problem}'")
        if self.K < 0:
            raise ConfigError("K must be >= 0")
        for name in ("tau", "eps1", "alpha", "theta"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not 0 < self.r < 1:
            raise ConfigError("r must be in (0, 1)")
        if not 0 < self.q < 0.5:
            raise ConfigError("q must be in (0, 1/2)")
        if self.i_max < 1 or self.warmup < 2:
            raise ConfigError("i_max >= 1 and warmup >= 2 required")
        if self.nt is not None and self.nt < 2:
            raise ConfigError("nt must be >= 2")
        if self.workers < 1 or self.state_samples < 2:
            raise ConfigError("workers >= 1 and state_samples >= 2 required")
        for name in ("sigma2", "scale", "lam"):
            v = getattr(self, name)
            if v is not None and (v < 0 or (name != "sigma2" and v <= 0)):
                raise ConfigError(f"{name} out of range")
        return self


def _get(parser, section, key, cast, default):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            # configparser's boolean words only; anything else is an error
            return parser.getboolean(section, key) if cast is bool else cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return default


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = ExperimentConfig()
    cfg.problem = _get(parser, "experiment", "problem", str, cfg.problem).strip()
    cfg.mode = _get(parser, "experiment", "mode", str, cfg.mode).strip()
    cfg.output_dir = _get(parser, "experiment", "output_dir", str, cfg.output_dir).strip()
    cfg.global_seed = _get(parser, "experiment", "global_seed", int, cfg.global_seed)
    cfg.n0 = _get(parser, "grid", "n0", int, cfg.n0)
    cfg.K = _get(parser, "grid", "K", int, cfg.K)
    cfg.sigma2 = _get(parser, "covariance", "sigma2", float, cfg.sigma2)
    cfg.lam = _get(parser, "covariance", "lambda", float, cfg.lam)
    cfg.scale = _get(parser, "covariance", "scale", float, cfg.scale)
    cfg.alpha = _get(parser, "optimizer", "alpha", float, cfg.alpha)
    cfg.tau = _get(parser, "optimizer", "tau", float, cfg.tau)
    cfg.eps1 = _get(parser, "optimizer", "eps1", float, cfg.eps1)
    cfg.r = _get(parser, "optimizer", "r", float, cfg.r)
    cfg.i_max = _get(parser, "optimizer", "i_max", int, cfg.i_max)
    cfg.q = _get(parser, "optimizer", "q", float, cfg.q)
    cfg.theta = _get(parser, "optimizer", "theta", float, cfg.theta)
    cfg.warmup = _get(parser, "optimizer", "warmup", int, cfg.warmup)
    cfg.nested = _get(parser, "optimizer", "nested", bool, cfg.nested)
    cfg.baseline_max_steps = _get(parser, "optimizer", "baseline_max_steps", int,
                                  cfg.baseline_max_steps)
    cfg.baseline_eps1 = _get(parser, "optimizer", "baseline_eps1", float,
                             cfg.baseline_eps1)
    cfg.nt = _get(parser, "burgers", "nt", int, cfg.nt)
    cfg.workers = _get(parser, "run", "workers", int, cfg.workers)
    cfg.state_samples = _get(parser, "run", "state_samples", int, cfg.state_samples)

    env_seed = os.environ.get("MGMLMC_SEED") or os.environ.get("MGOPT_SEED")
    if env_seed is not None:
        try:
            cfg.global_seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"seed override {env_seed!r} is not an integer") from exc
    return cfg.validate()


def _covariance_for(cfg: ExperimentConfig) -> CovarianceSpec:
    defaults = {
        "laplace": dict(sigma2=0.1, lam=0.3, scale=1.0),
        "dtn": dict(sigma2=0.1, lam=0.3, scale=1.0),
        "burgers": dict(sigma2=0.1, lam=0.3, scale=1e-3),
    }[cfg.problem]
    sigma2 = cfg.sigma2 if cfg.sigma2 is not None else defaults["sigma2"]
    lam = cfg.lam if cfg.lam is not None else defaults["lam"]
    scale = cfg.scale if cfg.scale is not None else defaults["scale"]
    kwargs = dict(sigma2=sigma2, lam=lam, scale=scale)
    if cfg.problem == "dtn":
        kwargs.update(region=Box(lo=(0.0, 0.0), hi=(1.0, 0.25)), region_value=1.0)
    return CovarianceSpec(**kwargs)


def build_problem(cfg: ExperimentConfig):
    """Instantiate the configured problem on its hierarchy."""
    n0 = cfg.n0 if cfg.n0 is not None else DEFAULT_N0[cfg.problem]
    covariance = _covariance_for(cfg)
    if cfg.problem == "burgers":
        hierarchy = GridHierarchy(dim=1, n0=n0, levels=cfg.K + 1)
        spec = BurgersProblemSpec(alpha=cfg.alpha, nt=cfg.nt, covariance=covariance)
        return BurgersInitialControl(hierarchy, spec)
    hierarchy = GridHierarchy(dim=2, n0=n0, levels=cfg.K + 1)
    if cfg.problem == "laplace":
        return LaplaceSourceControl(
            hierarchy, LaplaceProblemSpec(alpha=cfg.alpha, covariance=covariance)
        )
    return DtNBoundaryControl(
        hierarchy, DtNProblemSpec(alpha=cfg.alpha, covariance=covariance)
    )


def optimizer_config(cfg: ExperimentConfig) -> OptimizerConfig:
    return OptimizerConfig(
        tau=cfg.tau, K=cfg.K, eps1=cfg.eps1, r=cfg.r, i_max=cfg.i_max,
        q=cfg.q, theta=cfg.theta, nested=cfg.nested, warmup=cfg.warmup,
        global_seed=cfg.global_seed, workers=cfg.workers,
        baseline_max_steps=cfg.baseline_max_steps,
        baseline_eps1=cfg.baseline_eps1,
    )
