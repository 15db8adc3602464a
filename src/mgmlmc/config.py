"""Experiment configuration: the INI schema of ``mgmlmc`` runs.

A config is a flat INI file, parsed by :mod:`configparser`; the README's
"Command line" section shows one with every key.  ``KEYS`` maps each
``[section] key`` to the :class:`ExperimentConfig` attribute it sets.  Any
other key or section is an error.

:class:`ExperimentConfig` is the :class:`OptimizerConfig` the drivers run
on, plus the CLI's own settings.  Omitted optimizer keys take
``OptimizerConfig``'s defaults, except ``tau``, ``K`` and ``global_seed``,
which default to 5e-4, 2 and 42 here; omitted problem settings keep the
defaults of the problem specs and their :class:`CovarianceSpec`.  A config
is checked when it is built: the CLI's own settings here, the optimizer's
by ``OptimizerConfig``, and everything else by building the problem, whose
constructors check the ranges.  So every config that exists is valid, and
all numeric ranges are checked before any solve happens.
:func:`load_config` builds one from the file; the environment variable
``MGMLMC_SEED`` overrides ``global_seed``.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace

from .burgers import BurgersInitialControl, BurgersProblemSpec
from .driver import OptimizerConfig
from .elliptic import (
    DtNBoundaryControl,
    DtNProblemSpec,
    LaplaceProblemSpec,
    LaplaceSourceControl,
)
from .errors import ConfigError, MgmlmcError
from .grids import GridHierarchy

# problem -> (spec, problem class, dimension, default n0)
_PROBLEMS = {
    "laplace": (LaplaceProblemSpec, LaplaceSourceControl, 2, 17),
    "dtn": (DtNProblemSpec, DtNBoundaryControl, 2, 9),
    "burgers": (BurgersProblemSpec, BurgersInitialControl, 1, 33),
}
PROBLEMS = tuple(_PROBLEMS)
MODES = ("mgopt", "baseline")


@dataclass(frozen=True)
class ExperimentConfig(OptimizerConfig):
    """The optimizer config plus the CLI's own settings."""

    tau: float = 5e-4
    K: int = 2
    global_seed: int = 42
    problem: str = "laplace"
    mode: str = "mgopt"
    output_dir: str = "out"
    n0: int | None = None
    sigma2: float | None = None
    lam: float | None = None
    scale: float | None = None
    alpha: float | None = None
    nt: int | None = None
    workers: int = 1
    state_samples: int = 64

    def __post_init__(self):
        """Check the CLI's own settings, then the optimizer's, then build
        the problem, whose constructors check everything else."""
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem '{self.problem}'")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode '{self.mode}'")
        if self.state_samples < 2:
            raise ConfigError("state_samples must be >= 2")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.nt is not None and self.problem != "burgers":
            raise ConfigError("[burgers] nt is set, but problem is not burgers")
        try:
            super().__post_init__()
            build_problem(self)
        except (ValueError, MgmlmcError) as exc:
            raise ConfigError(str(exc)) from exc


# (section, key) -> (ExperimentConfig attribute, type); configparser
# lowercases keys, so [grid] K is looked up as "k"
KEYS = {
    ("experiment", "problem"): ("problem", str),
    ("experiment", "mode"): ("mode", str),
    ("experiment", "output_dir"): ("output_dir", str),
    ("experiment", "global_seed"): ("global_seed", int),
    ("grid", "n0"): ("n0", int),
    ("grid", "k"): ("K", int),
    ("covariance", "sigma2"): ("sigma2", float),
    ("covariance", "lambda"): ("lam", float),
    ("covariance", "scale"): ("scale", float),
    ("optimizer", "alpha"): ("alpha", float),
    ("optimizer", "tau"): ("tau", float),
    ("optimizer", "eps1"): ("eps1", float),
    ("optimizer", "r"): ("r", float),
    ("optimizer", "i_max"): ("i_max", int),
    ("optimizer", "q"): ("q", float),
    ("optimizer", "theta"): ("theta", float),
    ("optimizer", "warmup"): ("warmup", int),
    ("optimizer", "nested"): ("nested", bool),
    ("optimizer", "baseline_max_steps"): ("baseline_max_steps", int),
    ("burgers", "nt"): ("nt", int),
    ("run", "workers"): ("workers", int),
    ("run", "state_samples"): ("state_samples", int),
}


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    values = {}
    # the [DEFAULT] section comes first: its keys would reappear in every
    # section, and none of them is in the table
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if (section, key) not in KEYS:
                raise ConfigError(f"unknown key [{section}] {key}")
            attr, cast = KEYS[section, key]
            try:
                # configparser's boolean words only; anything else is an error
                value = (parser.getboolean(section, key) if cast is bool
                         else cast(parser.get(section, key)))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            values[attr] = value

    env_seed = os.environ.get("MGMLMC_SEED")
    if env_seed:  # set and not empty
        try:
            values["global_seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"seed override {env_seed!r} is not an integer") from exc
    return ExperimentConfig(**values)


def _given(cfg: ExperimentConfig, *names) -> dict:
    """Those of the named settings that the config sets."""
    return {n: getattr(cfg, n) for n in names if getattr(cfg, n) is not None}


def build_problem(cfg: ExperimentConfig):
    """Instantiate the configured problem on its hierarchy, evaluating
    each estimate's samples on ``cfg.workers`` threads.

    The problem's spec supplies every setting the config leaves unset.
    """
    spec_type, problem_type, dim, default_n0 = _PROBLEMS[cfg.problem]
    spec = spec_type()
    covariance = replace(spec.covariance, **_given(cfg, "sigma2", "lam", "scale"))
    spec = replace(spec, covariance=covariance, **_given(cfg, "alpha", "nt"))
    n0 = cfg.n0 if cfg.n0 is not None else default_n0
    problem = problem_type(GridHierarchy(dim=dim, n0=n0, levels=cfg.K + 1), spec)
    problem.workers = cfg.workers
    return problem

