import numpy as np
import pytest

from mgmlmc import (
    GAMMA,
    DtNBoundaryControl,
    GridHierarchy,
    LaplaceSourceControl,
    RngStream,
    inner_product,
    norm,
)
from mgmlmc.elliptic import DiffusionOperator
from mgmlmc.errors import LevelMismatch, LinearSolveFailure
from mgmlmc.random_fields import FieldSample

from conftest import unit_direction


def ones_field(level, nodes):
    return FieldSample(level=level, values=np.ones((nodes, nodes)))


def dense_operator(k, h):
    """Dense assembly of the 5-point scheme by direct stencil loops (oracle)."""
    n = k.shape[0]
    m = n - 2
    A = np.zeros((m * m, m * m))
    idx = lambda i, j: (i - 1) * m + (j - 1)
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            kw = 0.5 * (k[i - 1, j] + k[i, j])
            ke = 0.5 * (k[i, j] + k[i + 1, j])
            ks = 0.5 * (k[i, j - 1] + k[i, j])
            kn = 0.5 * (k[i, j] + k[i, j + 1])
            row = idx(i, j)
            A[row, row] = (kw + ke + ks + kn) / h**2
            if i > 1:
                A[row, idx(i - 1, j)] = -kw / h**2
            if i < n - 2:
                A[row, idx(i + 1, j)] = -ke / h**2
            if j > 1:
                A[row, idx(i, j - 1)] = -ks / h**2
            if j < n - 2:
                A[row, idx(i, j + 1)] = -kn / h**2
    return A


class TestForwardSolver:
    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(0)
        h = 1.0 / (n - 1)
        k = np.exp(0.3 * rng.standard_normal((n, n)))
        rhs = rng.standard_normal((n - 2, n - 2))
        op = DiffusionOperator(k, h)
        y = op.solve(rhs)
        y_dense = np.linalg.solve(dense_operator(k, h), rhs.ravel())
        assert np.allclose(y.ravel(), y_dense, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_stencil_product_matches_dense_oracle(self, n):
        rng = np.random.default_rng(1)
        h = 1.0 / (n - 1)
        k = np.exp(0.3 * rng.standard_normal((n, n)))
        y = rng.standard_normal((n - 2, n - 2))
        ay = DiffusionOperator(k, h).apply(y).ravel()
        ref = dense_operator(k, h) @ y.ravel()
        assert np.linalg.norm(ay - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_residual_check_independent_of_band(self):
        # a wrong band entry factors a different matrix; the stencil the
        # residual is checked against still holds the right one
        k = np.exp(0.3 * np.random.default_rng(2).standard_normal((17, 17)))
        op = DiffusionOperator(k, 1.0 / 16)
        op._band[op.m, 40] *= 2.0
        with pytest.raises(LinearSolveFailure):
            op.solve(np.ones((15, 15)))

    def test_zero_rhs(self):
        f = ones_field(0, 9)
        hier = GridHierarchy(dim=2, n0=9, levels=1)
        state = LaplaceSourceControl(hier).state(hier.zeros(0), f)
        assert np.all(state == 0.0)

    def test_manufactured_solution_order_two(self):
        # -div(grad y) = 2 pi^2 sin(pi x1) sin(pi x2), exact y known
        errors = []
        for level, n in enumerate([17, 33, 65]):
            hier = GridHierarchy(dim=2, n0=n, levels=1)
            x = hier.interior_coords(0)
            x1, x2 = np.meshgrid(x, x, indexing="ij")
            rhs = 2 * np.pi**2 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
            state = LaplaceSourceControl(hier).state(hier.vector(0, rhs), ones_field(0, n))
            exact = np.sin(np.pi * x1) * np.sin(np.pi * x2)
            errors.append(np.max(np.abs(state[1:-1, 1:-1] - exact)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.1)

    def test_max_principle_dirichlet_boundary_data(self):
        # k = 1, data sin(pi x) on the bottom edge: 0 <= y <= 1 inside;
        # oracle is a dense solve at 17x17
        n = 17
        hier = GridHierarchy(dim=2, n0=n, levels=1)
        u = np.sin(np.pi * hier.interior_coords(0))
        f = ones_field(0, n)
        state = DtNBoundaryControl(hier).state(hier.vector(0, u, GAMMA), f)
        interior = state[1:-1, 1:-1]
        assert interior.min() >= 0.0
        assert interior.max() <= 1.0
        op = DiffusionOperator(f.values, hier.h(0))
        dense = np.linalg.solve(dense_operator(f.values, hier.h(0)),
                                op.lift_gamma(u).ravel())
        assert np.allclose(interior.ravel(), dense, rtol=1e-9, atol=1e-12)

    def test_indefinite_operator_raises(self):
        # a negative coefficient makes the operator indefinite, so the
        # Cholesky factorization breaks down
        k = np.ones((17, 17))
        k[5, 5] = -50.0
        with pytest.raises(LinearSolveFailure):
            DiffusionOperator(k, 1.0 / 16).solve(np.ones((15, 15)))

    def test_nan_field_raises(self):
        k = np.ones((17, 17))
        k[5, 5] = np.nan
        with pytest.raises(LinearSolveFailure):
            DiffusionOperator(k, 1.0 / 16).solve(np.ones((15, 15)))

    def test_symmetry_under_axis_swap(self):
        # k = 1 and symmetric data: solution symmetric in x1 <-> x2
        n = 17
        hier = GridHierarchy(dim=2, n0=n, levels=1)
        x = hier.interior_coords(0)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        rhs = np.sin(np.pi * x1) * np.sin(np.pi * x2) + x1 * x2
        state = LaplaceSourceControl(hier).state(hier.vector(0, rhs), ones_field(0, n))
        interior = state[1:-1, 1:-1]
        assert np.allclose(interior, interior.T, atol=1e-10)


def fd_check(problem, u, stream, rng, directions=5, eps=1e-5):
    g = problem.gradient_sample(u, stream)
    worst = 0.0
    for _ in range(directions):
        d = unit_direction(rng, u)
        jp = problem.cost_sample(u + eps * d, stream)
        jm = problem.cost_sample(u - eps * d, stream)
        fd = (jp - jm) / (2 * eps)
        gd = inner_product(g, d)
        worst = max(worst, abs(fd - gd) / max(abs(gd), 1e-14))
    return worst


class TestLaplaceProblem:
    def test_gradient_fd_check(self, laplace_small):
        p = laplace_small
        u = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
        s = RngStream(42, 3, 2, 0)
        assert fd_check(p, u, s, np.random.default_rng(1)) <= 1e-5

    def test_minimizer_of_single_sample_problem(self, laplace_small):
        # dense KKT oracle at 17x17: u* = (alpha I + A^-2)^-1 A^-1 z
        p = laplace_small
        level = 1  # 17x17
        s = RngStream(42, 3, level, 7)
        field = p.field(s, level)
        h = p.hierarchy.h(level)
        A = dense_operator(field.values, h)
        z = p.target(level).values.ravel()
        Ainv_z = np.linalg.solve(A, z)
        m2 = A.shape[0]
        H = p.alpha * np.eye(m2) + np.linalg.solve(A, np.linalg.solve(A, np.eye(m2)))
        u_star_vals = np.linalg.solve(H, Ainv_z).reshape(field.values.shape[0] - 2, -1)
        u_star = p.hierarchy.vector(level, u_star_vals)
        g = p.gradient_sample(u_star, s)
        assert norm(g) <= 1e-9 * max(1.0, norm(u_star))

    def test_linearity_second_difference(self, laplace_small):
        p = laplace_small
        rng = np.random.default_rng(9)
        s = RngStream(42, 3, 2, 1)
        u1 = p.control_from_function(2, lambda a, b: a * (1 - a) * b)
        u2 = p.hierarchy.vector(2, rng.standard_normal(p.hierarchy.shape(2)))
        zero = p.zero_control(2)
        g = lambda u: p.gradient_sample(u, s)
        resid = g(u1 + u2) - g(u1) - g(u2) + g(zero)
        scale = max(norm(g(u1)), norm(g(u2)))
        assert norm(resid) <= 1e-10 * max(1.0, scale)

    def test_cost_zero_control_zero_target(self, laplace_small):
        p = laplace_small
        s = RngStream(42, 3, 2, 0)
        u = p.zero_control(2)
        field = p.field(s, 2)
        # with u = 0 the state is 0; tracking cost is 1/2 ||z||^2
        jt = p.tracking_cost(u, field)
        z = p.target(2)
        assert jt == pytest.approx(0.5 * inner_product(z, z), rel=1e-12)

    def test_cost_indicator_target_quadrature(self, laplace_small):
        # 1/2 ||z||^2 with the indicator of [1/4,3/4]^2: about 1/2 * 1/4
        p = laplace_small
        for level in range(3):
            z = p.target(level)
            val = 0.5 * inner_product(z, z)
            h = p.hierarchy.h(level)
            # direct quadrature oracle of the discontinuous target
            assert val == pytest.approx(0.125, abs=3 * h)

    def test_level_mismatch_raises(self, laplace_small):
        p = laplace_small
        u = p.zero_control(1)
        f = p.field(RngStream(42, 3, 2, 0), 2)
        with pytest.raises(LevelMismatch):
            p.tracking_cost(u, f)


class TestDtNProblem:
    def test_gradient_fd_check(self, dtn_small):
        p = dtn_small
        u = p.control_from_function(2, lambda x: 0.3 * np.sin(np.pi * x))
        s = RngStream(42, 3, 2, 0)
        assert fd_check(p, u, s, np.random.default_rng(2)) <= 1e-5

    def test_zero_control_cost_is_half_flux_norm(self, dtn_small):
        # u = 0 gives zero state and zero flux: cost = 1/2 int sin^2(pi x)
        p = dtn_small
        u = p.zero_control(2)
        field = p.field(RngStream(42, 3, 2, 1), 2)
        jt = p.tracking_cost(u, field)
        h = p.hierarchy.h(2)
        phi = p.target_flux(2)
        assert jt == pytest.approx(0.5 * h * np.sum(phi**2), rel=1e-12)
        assert jt == pytest.approx(0.25, abs=0.01)

    def test_gradient_zero_at_stationary_zero(self, dtn_small):
        # target flux 0 and u = 0: gradient vanishes
        from mgmlmc.elliptic import DtNProblemSpec

        p = DtNBoundaryControl(
            GridHierarchy(dim=2, n0=9, levels=2),
            DtNProblemSpec(target_flux=lambda x: np.zeros_like(x)),
        )
        g = p.gradient_sample(p.zero_control(1), RngStream(1, 3, 1, 0))
        assert norm(g) == 0.0

    def test_target_equal_to_achieved_flux_gives_zero_residual(self, dtn_small):
        p = dtn_small
        s = RngStream(42, 3, 1, 5)
        u = p.control_from_function(1, lambda x: 0.2 * np.sin(np.pi * x))
        field = p.field(s, 1)
        op = DiffusionOperator(field.values, p.hierarchy.h(1))
        flux = op.gamma_flux(u.values, op.solve(op.lift_gamma(u.values)))
        from mgmlmc.elliptic import DtNProblemSpec

        p2 = DtNBoundaryControl(
            p.hierarchy, DtNProblemSpec(target_flux=lambda x: flux)
        )
        assert p2.tracking_cost(u, field) <= 1e-24

    def test_linearity_second_difference(self, dtn_small):
        p = dtn_small
        rng = np.random.default_rng(4)
        s = RngStream(42, 3, 2, 3)
        u1 = p.control_from_function(2, lambda x: x * (1 - x))
        u2 = p.hierarchy.vector(2, rng.standard_normal(p.hierarchy.shape(2, "gamma")), "gamma")
        zero = p.zero_control(2)
        g = lambda u: p.gradient_sample(u, s)
        resid = g(u1 + u2) - g(u1) - g(u2) + g(zero)
        scale = max(norm(g(u1)), norm(g(u2)))
        assert norm(resid) <= 1e-10 * max(1.0, scale)
