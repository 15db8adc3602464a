import numpy as np
import pytest

from mgmlmc import (
    BurgersInitialControl,
    BurgersProblemSpec,
    DtNBoundaryControl,
    GridHierarchy,
    LaplaceSourceControl,
)


@pytest.fixture(scope="session")
def laplace_small():
    """Problem 1 on 9 -> 17 -> 33 grids."""
    return LaplaceSourceControl(GridHierarchy(dim=2, n0=9, levels=3))


@pytest.fixture(scope="session")
def laplace_desk():
    """Problem 1 on 17 -> 33 -> 65 grids (the desk-scale configuration)."""
    return LaplaceSourceControl(GridHierarchy(dim=2, n0=17, levels=3))


@pytest.fixture(scope="session")
def dtn_small():
    """Problem 2 on 9 -> 17 -> 33 grids."""
    return DtNBoundaryControl(GridHierarchy(dim=2, n0=9, levels=3))


@pytest.fixture(scope="session")
def burgers_small():
    """Problem 3 on 17 -> 33 -> 65 nodes, 201 time points."""
    return BurgersInitialControl(
        GridHierarchy(dim=1, n0=17, levels=3), BurgersProblemSpec(nt=201)
    )


def unit_direction(rng, template):
    """Random direction normalized in the template's weighted norm."""
    values = rng.standard_normal(template.values.shape)
    d = template.with_values(values)
    from mgmlmc import norm

    return d * (1.0 / norm(d))


def predicted_gradient_cost(sets, k, kappa):
    """Model cost of one gradient evaluation at level k, in fine-solve units
    (oracle): each level-l coupled sample solves at levels l and l-1."""
    total = 0.0
    for level in range(k + 1):
        n = sets.count(k, level)
        total += n * 2.0 ** (kappa * (level - sets.K))
        if level > 0:
            total += n * 2.0 ** (kappa * (level - 1 - sets.K))
    return total
