import numpy as np
import pytest

from mgmlmc import GAMMA, INTERIOR, GridHierarchy, inner_product, norm
from mgmlmc.grids import _prolong_1d, _prolong_values, _restrict_1d, _restrict_values
from mgmlmc.errors import LevelMismatch


def stencil_prolong_1d(coarse):
    """Independent transcription of the distribution stencil (1, 1/2)."""
    mc = len(coarse)
    fine = np.zeros(2 * mc + 1)
    for i, c in enumerate(coarse):
        fine[2 * i + 1] += c
        fine[2 * i] += 0.5 * c
        fine[2 * i + 2] += 0.5 * c
    return fine


def stencil_restrict_1d(fine):
    """Independent transcription of full weighting (1/4)[1 2 1]."""
    mc = (len(fine) - 1) // 2
    return np.array([
        0.25 * (fine[2 * i] + 2 * fine[2 * i + 1] + fine[2 * i + 2])
        for i in range(mc)
    ])


class TestHierarchyGeometry:
    def test_nested_node_counts(self):
        h = GridHierarchy(dim=2, n0=17, levels=5)
        assert [h.nodes(l) for l in range(5)] == [17, 33, 65, 129, 257]
        assert h.h(0) == 1.0 / 16 and h.h(4) == 1.0 / 256

    def test_spacing_halves(self):
        h = GridHierarchy(dim=1, n0=5, levels=4)
        for l in range(1, 4):
            assert h.h(l) == pytest.approx(h.h(l - 1) / 2, rel=0, abs=0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GridHierarchy(dim=3, n0=5, levels=2)
        with pytest.raises(ValueError):
            GridHierarchy(dim=1, n0=2, levels=2)


class TestInnerProduct:
    def test_all_ones(self):
        h = GridHierarchy(dim=2, n0=5, levels=1)
        a = h.vector(0, np.ones((3, 3)))
        assert inner_product(a, a) == pytest.approx(0.25**2 * 9)

    def test_hand_value_1d(self):
        # h = 0.25, a = [1,2,3], b = [1,0,1] -> 0.25 * 4 = 1.0
        h = GridHierarchy(dim=1, n0=5, levels=1)
        a = h.vector(0, [1.0, 2.0, 3.0])
        b = h.vector(0, [1.0, 0.0, 1.0])
        assert inner_product(a, b) == pytest.approx(1.0)

    def test_orthogonal_pattern(self):
        h = GridHierarchy(dim=1, n0=4, levels=1)
        a = h.vector(0, [1.0, -1.0])
        b = h.vector(0, [1.0, 1.0])
        assert inner_product(a, b) == 0.0

    def test_level_mismatch(self):
        h = GridHierarchy(dim=1, n0=5, levels=2)
        with pytest.raises(LevelMismatch):
            inner_product(h.zeros(0), h.zeros(1))

    def test_gamma_uses_1d_weight(self):
        h = GridHierarchy(dim=2, n0=5, levels=1)
        g = h.vector(0, np.ones(3), role=GAMMA)
        assert inner_product(g, g) == pytest.approx(0.25 * 3)


class TestProlong:
    def test_restriction_preserves_constants(self):
        h = GridHierarchy(dim=2, n0=5, levels=2)
        v = h.vector(1, np.ones(h.shape(1)))
        assert np.array_equal(h.restrict(v).values, np.ones(h.shape(0)))

    def test_prolong_constant_away_from_boundary(self):
        # interpolation reproduces constants at nodes whose full stencil is
        # interior; boundary-adjacent nodes see the homogeneous boundary
        h = GridHierarchy(dim=2, n0=9, levels=2)
        p = h.prolong(h.vector(0, np.ones(h.shape(0))))
        assert np.allclose(p.values[2:-2, 2:-2], 1.0)

    def test_1d_impulse_stencil(self):
        h = GridHierarchy(dim=1, n0=5, levels=2)
        c = np.zeros(3)
        c[1] = 1.0
        expected = stencil_prolong_1d(c)[: h.interior(1)]
        got = h.prolong(h.vector(0, c)).values
        assert np.array_equal(got, expected)
        assert list(got) == [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0]

    def test_2d_impulse_stencil(self):
        h = GridHierarchy(dim=2, n0=7, levels=2)
        c = np.zeros(h.shape(0))
        c[2, 2] = 1.0
        got = h.prolong(h.vector(0, c)).values
        # tensor product of the 1-D distribution stencil
        expected = np.outer(stencil_prolong_1d(c[:, 2]), stencil_prolong_1d(c[2, :]))
        assert np.allclose(got, expected, atol=0, rtol=0)
        center = 2 * 2 + 1
        assert got[center, center] == 1.0
        assert got[center - 1, center] == 0.5
        assert got[center - 1, center - 1] == 0.25

    def test_level_bounds(self):
        h = GridHierarchy(dim=1, n0=5, levels=2)
        with pytest.raises(LevelMismatch):
            h.prolong(h.zeros(1))
        with pytest.raises(LevelMismatch):
            h.restrict(h.zeros(0))


class TestRestrict:
    def test_1d_impulse(self):
        h = GridHierarchy(dim=1, n0=5, levels=2)
        f = np.zeros(7)
        f[3] = 1.0  # coincident with the middle coarse node
        got = h.restrict(h.vector(1, f)).values
        assert np.array_equal(got, stencil_restrict_1d(f))
        assert list(got) == [0.0, 0.5, 0.0]

    def test_2d_full_weighting_tensor_product(self):
        h = GridHierarchy(dim=2, n0=5, levels=2)
        rng = np.random.default_rng(42)
        f = rng.standard_normal(h.shape(1))
        got = h.restrict(h.vector(1, f)).values
        # oracle: (1/16)[1 2 1; 2 4 2; 1 2 1] as the tensor product of the
        # independent 1-D stencil along both axes
        tmp = np.array([stencil_restrict_1d(col) for col in f.T]).T
        expected = np.array([stencil_restrict_1d(row) for row in tmp])
        assert np.allclose(got, expected, atol=1e-15)

    def test_2d_full_weighting_impulse_weights(self):
        h = GridHierarchy(dim=2, n0=5, levels=2)
        # impulse coincident with a coarse node: only that node, weight 4/16
        f = np.zeros(h.shape(1))
        f[3, 3] = 1.0
        got = h.restrict(h.vector(1, f)).values
        expected = np.zeros(h.shape(0))
        expected[1, 1] = 4.0 / 16.0
        assert np.allclose(got, expected, atol=0)
        # impulse at an edge neighbor: 2/16 on the two flanking coarse nodes
        f = np.zeros(h.shape(1))
        f[2, 3] = 1.0
        got = h.restrict(h.vector(1, f)).values
        assert got[0, 1] == pytest.approx(2.0 / 16.0)
        assert got[1, 1] == pytest.approx(2.0 / 16.0)


class TestVectorizedTransfers:
    @staticmethod
    def columns_then_rows(stencil, values):
        """The 1-D stencil applied to every column, then to every row."""
        cols = np.stack([stencil(values[:, j]) for j in range(values.shape[1])], axis=1)
        return np.stack([stencil(cols[i]) for i in range(cols.shape[0])])

    @pytest.mark.parametrize("m", [15, 31, 63])
    def test_bitwise_equal_to_row_column_stencils(self, m):
        rng = np.random.default_rng(m)
        coarse = rng.standard_normal((m, m))
        fine = rng.standard_normal((2 * m + 1, 2 * m + 1))
        assert np.array_equal(_prolong_values(coarse),
                              self.columns_then_rows(_prolong_1d, coarse))
        assert np.array_equal(_restrict_values(fine),
                              self.columns_then_rows(_restrict_1d, fine))


class TestAdjointness:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_adjoint_identity_random_pairs(self, dim):
        h = GridHierarchy(dim=dim, n0=5, levels=4)
        rng = np.random.default_rng(101 + dim)
        for level in range(3):
            for _ in range(20):
                uc = h.vector(level, rng.standard_normal(h.shape(level)))
                uf = h.vector(level + 1, rng.standard_normal(h.shape(level + 1)))
                lhs = inner_product(h.prolong(uc), uf)
                rhs = inner_product(uc, h.restrict(uf))
                assert abs(lhs - rhs) <= 1e-12 * norm(uc) * norm(uf)

    def test_gamma_adjoint(self):
        h = GridHierarchy(dim=2, n0=5, levels=3)
        rng = np.random.default_rng(7)
        for level in range(2):
            uc = h.vector(level, rng.standard_normal(h.shape(level, GAMMA)), GAMMA)
            uf = h.vector(level + 1, rng.standard_normal(h.shape(level + 1, GAMMA)), GAMMA)
            lhs = inner_product(h.prolong(uc), uf)
            rhs = inner_product(uc, h.restrict(uf))
            assert abs(lhs - rhs) <= 1e-12 * norm(uc) * norm(uf)


class TestComposition:
    def test_restrict_prolong_constant_round_trip(self):
        h = GridHierarchy(dim=1, n0=9, levels=3)
        v = h.vector(2, np.ones(h.shape(2)))
        back = h.restrict(h.restrict(v))
        assert np.allclose(back.values, 1.0)
