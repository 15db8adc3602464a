"""Robust PDE-constrained optimization with MG/OPT and multilevel Monte Carlo.

The package minimizes the expected value of tracking-type cost functionals
constrained by PDEs with lognormal random coefficients.  Gradients are
estimated by a multilevel Monte Carlo method over a nested grid hierarchy;
optimization runs MG/OPT V-cycles whose coarser levels retain only the
coarser estimator levels and a fraction of the samples.  Three model
problems are included: interior source control of a diffusion equation,
Dirichlet-to-Neumann boundary flux control, and initial-condition control
of viscous Burgers' flow.
"""

__version__ = "0.1.0"

from .burgers import BurgersInitialControl, BurgersProblemSpec
from .driver import (
    OptimizerConfig,
    RunReport,
    baseline_optimize,
    next_rmse,
    robust_optimize,
    update_eta,
)
from .elliptic import (
    DtNBoundaryControl,
    DtNProblemSpec,
    LaplaceProblemSpec,
    LaplaceSourceControl,
)
from .grids import GAMMA, INTERIOR, GridHierarchy, LevelVector, inner_product, norm
from .mgopt import SmoothingSchedule, ncg_smooth, run_vcycle, vcycle
from .mlmc import (
    GradientEstimate,
    LevelStats,
    MgoptSampleSets,
    build_sample_sets,
    equivalent_fine_solves,
    estimate_level_stats,
    mlmc_cost,
    mlmc_gradient,
    optimal_allocation,
)
from .random_fields import (
    Box,
    CovarianceSpec,
    FieldSample,
    FieldSampler,
    RngStream,
    build_embedding,
    covariance,
    restrict_field,
)
