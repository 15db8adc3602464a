import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgmlmc import (
    BurgersInitialControl,
    BurgersProblemSpec,
    GridHierarchy,
    RngStream,
    inner_product,
    norm,
)
from mgmlmc.burgers import (
    ADJOINT_BLOCK,
    Layout,
    _march,
    _sweep_adjoint,
    maccormack_predictor,
    maccormack_step,
    maccormack_step_adjoint,
    stability_bound,
    suggested_time_steps,
)
from mgmlmc.errors import StabilityViolation
from mgmlmc.random_fields import CovarianceSpec, FieldSample

from conftest import unit_direction


def maccormack_step_scalar(y, k, dt, dx, s):
    """Straight-line transcription of the two-stage scheme with index loops."""
    m = len(y) - 1
    psi = np.array([0.5 * s * yi**2 for yi in y])
    yp = np.zeros_like(y)
    for i in range(1, m):
        yp[i] = (y[i] + dt / dx * (psi[i + 1] - psi[i])
                 + k[i] * dt / dx**2 * (y[i + 1] - 2 * y[i] + y[i - 1]))
    psip = np.array([0.5 * s * ypi**2 for ypi in yp])
    yn = np.zeros_like(y)
    for i in range(1, m):
        yn[i] = 0.5 * (y[i] + yp[i]
                       - dt / dx * (psip[i - 1] - psip[i])
                       + k[i] * dt / dx**2 * (yp[i + 1] - 2 * yp[i] + yp[i - 1]))
    return yn


def maccormack_step_tangent(y, yp, dy, k, dt, dx, s):
    """Directional derivative of one step at state y (predictor yp)."""
    c = dt / dx
    r = dt / dx**2 * k
    dyp = np.zeros_like(dy)
    dpsi = s * y * dy
    dyp[1:-1] = (
        dy[1:-1]
        + c * (dpsi[2:] - dpsi[1:-1])
        + r[1:-1] * (dy[2:] - 2.0 * dy[1:-1] + dy[:-2])
    )
    dpsip = s * yp * dyp
    dyn = np.zeros_like(dy)
    dyn[1:-1] = 0.5 * (
        dy[1:-1]
        + dyp[1:-1]
        + c * (dpsip[1:-1] - dpsip[:-2])
        + r[1:-1] * (dyp[2:] - 2.0 * dyp[1:-1] + dyp[:-2])
    )
    return dyn


def final_state_tangent(problem, states, du, field):
    """Forward-mode derivative along du of the final state of the history
    ``states`` (as returned by ``problem.state``)."""
    k = field.values
    dx = problem.hierarchy.h(du.level)
    dt = problem.dt
    s = problem.spec.s
    dy = np.zeros(field.nodes)
    dy[1:-1] = du.values
    for j in range(states.shape[0] - 1):
        yj = states[j]
        yp = maccormack_predictor(yj, k, dt, dx, s)
        dy = maccormack_step_tangent(yj, yp, dy, k, dt, dx, s)
    return dy


class TestStabilityBound:
    def test_reference_value(self):
        # dx = 1/512, max k = 1e-3, zero state: dx^2 / (2e-3)
        dx = 1.0 / 512
        got = stability_bound(np.zeros(5), np.full(5, 1e-3), dx)
        assert got == pytest.approx(dx**2 / 2e-3, rel=1e-12)
        assert got == pytest.approx(1.9073486e-3, rel=1e-6)

    def test_unconstrained_limit(self):
        assert stability_bound(np.zeros(5), np.zeros(5), 0.1) == np.inf

    def test_full_scale_configuration_is_stable(self):
        # dx = 1/512, dt = 1e-4, lognormal field scaled by 1e-3 and a state
        # bounded by the target amplitude: the bound exceeds dt
        hier = GridHierarchy(dim=1, n0=33, levels=5)
        assert hier.nodes(4) == 513
        from mgmlmc import FieldSampler

        fs = FieldSampler(hier, CovarianceSpec(sigma2=0.1, lam=0.3, scale=1e-3))
        dx = hier.h(4)
        dt = 1e-4
        for i in range(5):
            f = fs.sample(RngStream(2026, 3, 4, i), 4)
            y = 0.25 * np.ones(513)
            assert stability_bound(y, f.values, dx) > dt


class TestMacCormackStep:
    def test_zero_state(self):
        y = np.zeros(9)
        k = np.full(9, 1e-3)
        out = maccormack_step(y, k, 1e-4, 0.25, -1.0)
        assert np.all(out == 0.0)

    def test_single_step_matches_scalar_transcription(self):
        y = np.array([0.0, 0.1, 0.2, 0.1, 0.0])
        k = np.full(5, 1e-3)
        got = maccormack_step(y, k, 1e-4, 0.25, -1.0)
        want = maccormack_step_scalar(y, k, 1e-4, 0.25, -1.0)
        assert np.array_equal(got, want)

    def test_random_states_match_scalar_transcription(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            y = np.concatenate(([0.0], rng.uniform(-0.2, 0.3, 15), [0.0]))
            k = np.exp(rng.normal(size=17)) * 1e-3
            got = maccormack_step(y, k, 2e-4, 1.0 / 16, -1.0)
            want = maccormack_step_scalar(y, k, 2e-4, 1.0 / 16, -1.0)
            assert np.allclose(got, want, atol=0, rtol=0)

    def test_self_convergence_order_two(self):
        # smooth data, constant k; refine dx and dt together against a fine
        # reference solution (Richardson-style self-convergence oracle)
        s, k_const, T = -1.0, 1e-3, 0.5
        amp = 0.1

        def run(nx, nt):
            x = np.linspace(0, 1, nx)
            y = amp * np.sin(np.pi * x)
            k = np.full(nx, k_const)
            dx, dt = 1.0 / (nx - 1), T / (nt - 1)
            for _ in range(nt - 1):
                y = maccormack_step(y, k, dt, dx, s)
            return y

        solutions = {nx: run(nx, nt)
                     for nx, nt in [(65, 513), (129, 1025), (257, 2049), (513, 4097)]}
        diffs = [
            np.max(np.abs(solutions[nx] - solutions[2 * (nx - 1) + 1][::2]))
            for nx in (65, 129, 257)
        ]
        orders = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.2)


class TestForwardSolver:
    def test_zero_initial_condition(self, burgers_small):
        p = burgers_small
        u = p.zero_control(2)
        f = p.field(RngStream(3, 3, 2, 0), 2)
        states = p.state(u, f)
        assert np.all(states == 0.0)

    def test_boundary_columns_zero(self, burgers_small):
        p = burgers_small
        u = p.control_from_function(2, lambda x: 0.2 * np.sin(np.pi * x))
        f = p.field(RngStream(3, 3, 2, 1), 2)
        states = p.state(u, f)
        assert np.all(states[:, 0] == 0.0)
        assert np.all(states[:, -1] == 0.0)

    def test_norm_does_not_grow(self):
        # zero boundaries, diffusion dissipates: ||y(T)|| <= ||u|| (1 + tol)
        hier = GridHierarchy(dim=1, n0=65, levels=1)
        p = BurgersInitialControl(hier, BurgersProblemSpec(nt=801))
        u = p.control_from_function(0, lambda x: 0.25 * np.sin(np.pi * x))
        f = p.field(RngStream(3, 3, 0, 2), 0)
        states = p.state(u, f)
        assert np.linalg.norm(states[-1]) <= np.linalg.norm(states[0]) * (1 + 1e-10)

    def test_stability_violation_reports_step(self):
        hier = GridHierarchy(dim=1, n0=17, levels=1)
        p = BurgersInitialControl(hier, BurgersProblemSpec(nt=3))  # dt = 0.5
        u = p.control_from_function(0, lambda x: 0.5 * np.sin(np.pi * x))
        f = p.field(RngStream(3, 3, 0, 0), 0)
        with pytest.raises(StabilityViolation) as err:
            p.state(u, f)
        assert err.value.step == 0

    def test_suggested_time_steps_full_scale(self):
        # the stability-derived default lands near the reference 10001
        hier = GridHierarchy(dim=1, n0=33, levels=5)
        nt = suggested_time_steps(hier, CovarianceSpec(sigma2=0.1, lam=0.3, scale=1e-3))
        assert 5000 <= nt <= 20000


class TestAdjoint:
    def test_dot_product_identity(self, burgers_small):
        # tangent-mode final state vs adjoint gradient: a dot-product test
        # independent of finite differences
        p = burgers_small
        rng = np.random.default_rng(12)
        u = p.control_from_function(2, lambda x: 0.15 * np.sin(np.pi * x))
        f = p.field(RngStream(3, 3, 2, 4), 2)
        states = p.state(u, f)
        for _ in range(3):
            du = unit_direction(rng, u)
            w = rng.standard_normal(p.hierarchy.nodes(2))
            w[0] = w[-1] = 0.0
            dyT = final_state_tangent(p, states, du, f)
            # adjoint sweep of w back to t=0
            k, dx = f.values, p.hierarchy.h(2)
            dt = p.dt
            a = w.copy()
            for j in range(states.shape[0] - 2, -1, -1):
                yj = states[j]
                yp = maccormack_predictor(yj, k, dt, dx, p.spec.s)
                a = maccormack_step_adjoint(yj, yp, a, k, dt, dx, p.spec.s)
            lhs = float(np.vdot(dyT, w))
            rhs = float(np.vdot(du.values, a[1:-1]))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_gradient_fd_check(self, burgers_small):
        p = burgers_small
        rng = np.random.default_rng(13)
        u = p.control_from_function(2, lambda x: 0.1 * np.sin(np.pi * x))
        s = RngStream(3, 3, 2, 5)
        g = p.gradient_sample(u, s)
        eps = 1e-5
        for _ in range(5):
            d = unit_direction(rng, u)
            jp = p.cost_sample(u + eps * d, s)
            jm = p.cost_sample(u - eps * d, s)
            fd = (jp - jm) / (2 * eps)
            gd = inner_product(g, d)
            assert abs(fd - gd) / max(abs(gd), 1e-14) <= 1e-4

    def test_gradient_zero_for_reachable_target(self):
        # z := y(T; u) and alpha -> the alpha*u term only; with the residual
        # zero the adjoint sweep returns exactly zero
        hier = GridHierarchy(dim=1, n0=17, levels=1)
        p = BurgersInitialControl(hier, BurgersProblemSpec(nt=101))
        u = p.control_from_function(0, lambda x: 0.2 * np.sin(np.pi * x))
        f = p.field(RngStream(9, 3, 0, 0), 0)
        final = p.state(u, f)[-1][1:-1].copy()
        p2 = BurgersInitialControl(
            hier,
            BurgersProblemSpec(nt=101, target=lambda x: np.interp(
                x, hier.interior_coords(0), final)),
        )
        jt, q = p2.tracking_cost_grad(u, f)
        assert jt <= 1e-24
        assert norm(q) == 0.0

    def test_linear_heat_limit_second_difference(self):
        # s = 0 and constant k: the problem is linear; gradients are affine
        hier = GridHierarchy(dim=1, n0=33, levels=1)
        p = BurgersInitialControl(
            hier, BurgersProblemSpec(nt=201, s=0.0,
                                     covariance=CovarianceSpec(0.0, 0.3, scale=1e-3)),
        )
        rng = np.random.default_rng(14)
        s = RngStream(9, 3, 0, 1)
        u1 = p.control_from_function(0, lambda x: 0.1 * np.sin(np.pi * x))
        u2 = p.hierarchy.vector(0, 0.05 * rng.standard_normal(p.hierarchy.shape(0)))
        zero = p.zero_control(0)
        g = lambda u: p.gradient_sample(u, s)
        resid = g(u1 + u2) - g(u1) - g(u2) + g(zero)
        assert norm(resid) <= 1e-10


def per_sample_reference(p, u, field):
    """One sample marched alone, the reverse sweep recomputing each
    predictor: (tracking cost, gradient values, states)."""
    k, dx, dt, s = field.values, p.hierarchy.h(u.level), p.dt, p.spec.s
    states = np.zeros((p.nt, field.nodes))
    states[0, 1:-1] = u.values
    for j in range(p.nt - 1):
        assert dt <= stability_bound(states[j], k, dx)
        states[j + 1] = maccormack_step(states[j], k, dt, dx, s)
    r = states[-1, 1:-1] - p.target(u.level).values
    w = np.zeros(field.nodes)
    w[1:-1] = r
    for j in range(p.nt - 2, -1, -1):
        yp = maccormack_predictor(states[j], k, dt, dx, s)
        w = maccormack_step_adjoint(states[j], yp, w, k, dt, dx, s)
    return 0.5 * u.h * float(np.vdot(r, r)), w[1:-1], states


class TestBatchedEvaluation:
    @staticmethod
    def check_batch(p, u_at, fields):
        grads = p.tracking_cost_grad_batch(u_at, fields)
        costs = p.tracking_cost_batch(u_at, fields)
        states = list(p.state_batch(u_at, fields))
        assert len(grads) == len(costs) == len(states) == len(fields)
        for f, (jt, q), cost, state in zip(fields, grads, costs, states):
            u = u_at[f.level]
            jt_ref, q_ref, states_ref = per_sample_reference(p, u, f)
            assert jt == jt_ref and cost == jt_ref
            assert q.level == f.level
            assert np.array_equal(q.values, q_ref)
            assert np.array_equal(state, states_ref)
            assert np.array_equal(state, p.state(u, f))

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_batch_equals_per_sample(self, burgers_small, level, n):
        p = burgers_small
        u = p.control_from_function(level, lambda x: 0.2 * np.sin(np.pi * x))
        fields = [p.field(RngStream(31, 3, level, i), level) for i in range(n)]
        self.check_batch(p, {level: u}, fields)

    # laid out as an estimate lays them out: (fine, coarse) pairs from the
    # top, then the lowest level's own fields
    @pytest.mark.parametrize("levels", [(2, 1, 1, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0)],
                             ids=["3-grids", "2-grids"])
    def test_mixed_batch_equals_per_sample(self, burgers_small, levels):
        p = burgers_small
        u_at = {level: p.control_from_function(level, lambda x: 0.2 * np.sin(np.pi * x))
                for level in range(3)}
        fields = [p.field(RngStream(31, 3, level, i), level)
                  for i, level in enumerate(levels)]
        self.check_batch(p, u_at, fields)

    def test_mlmc_gradient_independent_of_workers_and_chunks(
            self, burgers_small, monkeypatch):
        import mgmlmc.burgers as burgers_mod
        from mgmlmc import SampleAllocation, build_sample_sets, mlmc_cost, mlmc_gradient
        from mgmlmc.driver import state_statistics

        p = burgers_small
        u = p.control_from_function(2, lambda x: 0.2 * np.sin(np.pi * x))
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(7, 5, 3), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 41, 4)

        def run(workers):
            monkeypatch.setattr(p, "workers", workers)
            est = mlmc_gradient(p, u, sets, 2)
            cost = mlmc_cost(p, u, sets, 2)
            mean, var = state_statistics(p, u, 5, global_seed=41)
            return est, cost, mean, var

        ref = run(1)
        monkeypatch.setattr(burgers_mod, "BATCH_BYTES", 1)  # one sample per chunk
        for est, cost, mean, var in (run(1), run(2)):
            assert np.array_equal(est.value.values, ref[0].value.values)
            assert est.cost_value == ref[0].cost_value
            assert np.array_equal(est.stats.V, ref[0].stats.V)
            assert np.array_equal(est.coarse.value.values, ref[0].coarse.value.values)
            assert est.coarse.cost_value == ref[0].coarse.cost_value
            assert cost == ref[1]
            assert np.array_equal(mean, ref[2]) and np.array_equal(var, ref[3])

    def test_unstable_member_raises_at_earliest_step(self):
        # anti-diffusion grows |y| until the bound, set by the boundary node's
        # positive coefficient, drops below dt: stable at first, then not
        hier = GridHierarchy(dim=1, n0=17, levels=2)
        p = BurgersInitialControl(hier, BurgersProblemSpec(nt=201))
        u_at = {level: p.control_from_function(level,
                                               lambda x: 0.1 * np.sin(np.pi * x))
                for level in range(2)}

        def anti_diffusive(c, level=0):
            k = np.full(hier.nodes(level), -c)
            k[0] = 0.3 * 4.0**-level  # the same share of the bound per level
            return FieldSample(level=level, values=k)

        def failing_step(fields, evaluate):
            with pytest.raises(StabilityViolation) as err:
                list(evaluate(u_at, fields))
            return err.value.step

        stable = p.field(RngStream(3, 3, 0, 0), 0)
        # stable alone, but 2 max k dt/dx^2 = 0.9: with it in a batch the
        # batch-wide bound trips long before any member is unstable
        stiff = FieldSample(level=1, values=np.full(33, 0.9 * 32**-2 / (2 * p.dt)))
        p.state(u_at[1], stiff)
        slow, fast = anti_diffusive(0.05), anti_diffusive(0.1)
        fine = anti_diffusive(0.05, level=1)
        steps = {}
        for name, f in (("slow", slow), ("fast", fast), ("fine", fine)):
            with pytest.raises(StabilityViolation) as err:
                p.state(u_at[f.level], f)
            steps[name] = err.value.step
        assert 0 < steps["fast"] < steps["slow"]
        assert 0 < steps["fine"] < steps["slow"]
        for evaluate in (p.tracking_cost_batch, p.tracking_cost_grad_batch,
                         p.state_batch):
            assert failing_step([stable, slow, stable], evaluate) == steps["slow"]
            assert failing_step([stable, slow, fast], evaluate) == steps["fast"]
            # mixed grids: only the coarse member goes unstable, and the
            # batch fails at that member's own step
            assert failing_step([stiff, slow, stiff, stable],
                                evaluate) == steps["slow"]
            first = min(steps["fine"], steps["slow"])
            assert failing_step([fine, slow], evaluate) == first
            assert failing_step([slow, fine], evaluate) == first


def random_samples(rng, sizes, amp=0.3):
    """States with zero ends and lognormal fields, one array per sample."""
    ys, ks = [], []
    for n in sizes:
        y = np.zeros(n)
        y[1:-1] = rng.uniform(-amp, amp, n - 2)
        ys.append(y)
        ks.append(1e-3 * np.exp(0.5 * rng.standard_normal(n)))
    return ys, ks


def unit_layout(sizes):
    """Samples of the given node counts on [0, 1], laid end to end."""
    return Layout(sizes, [1.0 / (n - 1) for n in sizes])


# every grid of a three-level hierarchy, the 65-node one with one sample
MIXED = (65, 33, 17, 33, 17, 17, 33, 17)


class TestFusedKernels:
    """The fused march and the blocked adjoint sweep against the per-step
    reference functions, bit for bit.  The fused loops take the samples
    laid end to end as one flat array; the reference acts on one sample."""

    dt, s = 2e-3, -1.0

    @pytest.mark.parametrize("sizes", [(17,), (17, 17), (17,) * 7, MIXED],
                             ids=["1", "2", "7", "mixed"])
    def test_march_equals_reference_steps(self, sizes):
        rng = np.random.default_rng(40 + len(sizes))
        nsteps = 75
        layout = unit_layout(sizes)
        ys, ks = random_samples(rng, sizes)
        want_states, want_pred = [], []
        for y, k, dx in zip(ys, ks, layout.dx):
            states, preds = [y], []
            for _ in range(nsteps):
                preds.append(maccormack_predictor(states[-1], k, self.dt, dx, self.s))
                states.append(maccormack_step(states[-1], k, self.dt, dx, self.s))
            want_states.append(states)
            want_pred.append(preds)
        want_states = np.concatenate(want_states, axis=1)
        want_pred = np.concatenate(want_pred, axis=1)
        y0, k = np.concatenate(ys), np.concatenate(ks)
        states = np.empty((nsteps + 1,) + y0.shape)
        states[0] = y0
        predictors = np.empty((nsteps,) + y0.shape)
        final = _march(y0, k, self.dt, layout, self.s, nsteps,
                       states=states, predictors=predictors)
        assert np.array_equal(states, want_states)
        assert np.array_equal(predictors, want_pred)
        assert np.array_equal(final, want_states[-1])
        # without records the march cycles through its own buffers
        bare = _march(y0, k, self.dt, layout, self.s, nsteps)
        assert np.array_equal(bare, want_states[-1])

    # within one block, and over 2 and 10 blocks with a partial one
    @pytest.mark.parametrize("nsteps", [5, 21, 150])
    @pytest.mark.parametrize("sizes", [(33,), (33, 33, 33), MIXED],
                             ids=["1", "3", "mixed"])
    def test_adjoint_sweep_equals_reference_steps(self, nsteps, sizes):
        assert nsteps % ADJOINT_BLOCK != 0
        rng = np.random.default_rng(50 + nsteps + len(sizes))
        layout = unit_layout(sizes)
        # states and predictors are random at the endpoints too: the
        # reference never reads them there, so neither may the sweep
        states = [rng.uniform(-0.3, 0.3, (nsteps + 1, n)) for n in sizes]
        predictors = [rng.uniform(-0.3, 0.3, (nsteps, n)) for n in sizes]
        _, ks = random_samples(rng, sizes)
        ws = []
        for n in sizes:
            w = np.zeros(n)
            w[1:-1] = rng.standard_normal(n - 2)
            ws.append(w)
        want = []
        for st, pr, w, k, dx in zip(states, predictors, ws, ks, layout.dx):
            for j in range(nsteps - 1, -1, -1):
                w = maccormack_step_adjoint(st[j], pr[j], w, k, self.dt, dx, self.s)
            want.append(w)
        got = _sweep_adjoint(np.concatenate(states, axis=1),
                             np.concatenate(predictors, axis=1),
                             np.concatenate(ws), np.concatenate(ks),
                             self.dt, layout, self.s)
        assert np.array_equal(got, np.concatenate(want))

    def test_batch_bound_trips_without_an_unstable_sample(self):
        # the sample with the largest |y| dt/dx has a small k, another the
        # largest k dt/dx^2: the batch-wide bound fails while every
        # sample's own bound holds, so the exact check runs and passes
        cases = [((17, 17), (1.0, 0.01), (1e-3, 2e-2), 0.05),
                 # the 17-node sample's own bound would fail at the 33-node
                 # sample's spacing
                 ((33, 17), (0.01, 2.0), (2e-2, 1e-3), 0.02)]
        for sizes, amps, kvals, dt in cases:
            layout = unit_layout(sizes)
            ys = [np.zeros(n) for n in sizes]
            for y, amp in zip(ys, amps):
                y[1:-1] = amp * np.sin(np.pi * np.linspace(0, 1, len(y)))[1:-1]
            ks = [np.full(n, kval) for n, kval in zip(sizes, kvals)]
            batch_bound = (
                max(np.max(np.abs(y)) * dt / dx for y, dx in zip(ys, layout.dx))
                + max(2.0 * np.max(k) * dt / dx**2 for k, dx in zip(ks, layout.dx)))
            assert batch_bound > 1.0
            assert all(dt <= stability_bound(y, k, dx)
                       for y, k, dx in zip(ys, ks, layout.dx))
            final = _march(np.concatenate(ys), np.concatenate(ks), dt, layout,
                           self.s, 1)
            want = [maccormack_step(y, k, dt, dx, self.s)
                    for y, k, dx in zip(ys, ks, layout.dx)]
            assert np.array_equal(final, np.concatenate(want))


@pytest.mark.parametrize("ini, loaded", [("burgers_desk.ini", False),
                                         ("laplace_desk.ini", True)])
def test_scipy_linalg_imported_only_by_elliptic_setup(ini, loaded):
    # scipy.linalg takes about 0.3 s to import; a Burgers run never needs
    # it, and an elliptic problem imports it while it is built, so the
    # import counts as set-up rather than as the first solve
    import mgmlmc

    path = Path(__file__).resolve().parents[1] / "demos" / ini
    code = ("import sys\n"
            "from mgmlmc.config import build_problem, load_config\n"
            f"build_problem(load_config({str(path)!r}))\n"
            "print('scipy.linalg' in sys.modules)\n")
    env = dict(os.environ)
    src = str(Path(mgmlmc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(loaded)]
