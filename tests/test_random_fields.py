import numpy as np
import pytest

from mgmlmc import (
    Box,
    CovarianceSpec,
    FieldSample,
    FieldSampler,
    GridHierarchy,
    RngStream,
    build_embedding,
    covariance,
    restrict_field,
)
from mgmlmc.errors import LevelMismatch
from mgmlmc.random_fields import sample_gaussian

SPEC = CovarianceSpec(sigma2=0.1, lam=0.3)


def dense_covariance_1d(n, h, spec):
    x = np.arange(n) * h
    return spec.sigma2 * np.exp(-np.abs(x[:, None] - x[None, :]) / spec.lam)


def stream(i=0, level=0, set_id=11):
    return RngStream(12345, set_id, level, i)


class TestCovariance:
    def test_zero_distance(self):
        assert covariance((0.2, 0.2), (0.2, 0.2), SPEC) == pytest.approx(0.1)

    def test_distance_equal_to_correlation_length(self):
        # 0.1 * exp(-0.3/0.3) = 0.1 / e
        val = covariance((0.0,), (0.3,), SPEC)
        assert val == pytest.approx(0.1 * np.exp(-1.0), rel=1e-12)
        assert val == pytest.approx(0.0367879441, rel=1e-8)

    def test_monotone_decay_to_zero(self):
        vals = [covariance((0.0, 0.0), (d, 0.0), SPEC) for d in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec(sigma2=-1.0, lam=0.3)
        with pytest.raises(ValueError):
            CovarianceSpec(sigma2=0.1, lam=0.0)
        with pytest.raises(ValueError):
            Box(lo=(0.0, 0.0), hi=(1.5, 0.5))


class TestEmbedding:
    def test_zero_variance_gives_zero_eigenvalues(self):
        emb = build_embedding(9, 1.0 / 8, 1, CovarianceSpec(sigma2=0.0, lam=0.3))
        assert np.all(emb.sqrt_eig == 0.0)
        z = sample_gaussian(emb, stream())
        assert np.all(z == 0.0)

    def test_two_point_grid_long_correlation(self):
        # covariance matrix approaches sigma2 * all-ones; compare against a
        # dense Cholesky-factorizable matrix through the implied circulant
        spec = CovarianceSpec(sigma2=0.5, lam=100.0)
        emb = build_embedding(2, 1.0, 1, spec)
        assert np.all(emb.sqrt_eig**2 >= 0.0)
        row = np.fft.ifft(emb.sqrt_eig**2).real
        dense = dense_covariance_1d(2, 1.0, spec)
        np.linalg.cholesky(dense + 1e-12 * np.eye(2))  # oracle: SPD
        implied = np.array([[row[abs(i - j)] for j in range(2)] for i in range(2)])
        assert np.allclose(implied, dense, atol=1e-12)

    def test_implied_covariance_matches_dense(self):
        n, h = 17, 1.0 / 16
        emb = build_embedding(n, h, 1, SPEC)
        row = np.fft.ifft(emb.sqrt_eig**2).real
        implied = np.array([[row[abs(i - j)] for j in range(n)] for i in range(n)])
        assert np.allclose(implied, dense_covariance_1d(n, h, SPEC), atol=1e-12)

    def test_2d_embedding_psd(self):
        emb = build_embedding(17, 1.0 / 16, 2, SPEC)
        assert emb.sqrt_eig.ndim == 2
        assert np.all(emb.sqrt_eig >= 0.0)


class TestSampling:
    def test_determinism(self):
        fs = FieldSampler(GridHierarchy(1, n0=17, levels=1), SPEC)
        f1 = fs.sample(stream(3), 0)
        f2 = fs.sample(stream(3), 0)
        assert np.array_equal(f1.values, f2.values)

    def test_distinct_streams_differ(self):
        fs = FieldSampler(GridHierarchy(1, n0=17, levels=1), SPEC)
        f1 = fs.sample(stream(3), 0)
        f2 = fs.sample(stream(4), 0)
        assert not np.array_equal(f1.values, f2.values)

    @pytest.mark.parametrize("seed", [-1, 2**64, -2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="global_seed"):
            RngStream(seed, 1, 0, 0)

    def test_seeds_of_the_top_bit_draw_distinct_fields(self):
        # a key word >= 2**63 must reach Philox as those 64 bits, not as a
        # rounded float: neighbouring seeds and the largest one differ
        fs = FieldSampler(GridHierarchy(1, n0=17, levels=1), SPEC)
        draws = [fs.sample(RngStream(seed, 3, 0, 0), 0).values.tobytes()
                 for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)]
        assert len(set(draws)) == 4

    def test_adjacent_indices_of_a_high_set_id_differ(self):
        # set ids >= 2**23 put the second key word at or above 2**63
        fs = FieldSampler(GridHierarchy(1, n0=17, levels=1), SPEC)
        f1 = fs.sample(RngStream(5, 2**23, 0, 0), 0)
        f2 = fs.sample(RngStream(5, 2**23, 0, 1), 0)
        assert not np.array_equal(f1.values, f2.values)

    def test_zero_variance_constant_field(self):
        spec = CovarianceSpec(sigma2=0.0, lam=0.3, scale=1e-3)
        fs = FieldSampler(GridHierarchy(1, n0=9, levels=1), spec)
        f = fs.sample(stream(), 0)
        assert np.all(f.values == 1e-3)

    def test_positivity(self):
        fs = FieldSampler(GridHierarchy(1, n0=33, levels=1), SPEC)
        for i in range(10):
            f = fs.sample(stream(i), 0)
            assert np.all(f.values > 0.0)

    def test_log_mean_clt_bound(self):
        # empirical mean of log(values/scale) at a node is within
        # 4 sigma / sqrt(n) of zero
        n_samples = 10000
        fs = FieldSampler(GridHierarchy(1, n0=9, levels=1), SPEC)
        vals = np.empty(n_samples)
        for i in range(n_samples):
            f = fs.sample(stream(i, set_id=21), 0)
            vals[i] = np.log(f.values[4])
        bound = 4.0 * np.sqrt(SPEC.sigma2 / n_samples)
        assert abs(vals.mean()) <= bound

    def test_region_override_exact(self):
        spec = CovarianceSpec(
            sigma2=0.1, lam=0.3,
            region=Box(lo=(0.0, 0.0), hi=(1.0, 0.25)), region_value=1.0,
        )
        fs = FieldSampler(GridHierarchy(2, n0=9, levels=1), spec)
        f = fs.sample(stream(), 0)
        x = np.linspace(0.0, 1.0, 9)
        inside = x <= 0.25
        assert np.all(f.values[:, inside] == 1.0)
        assert not np.all(f.values[:, ~inside] == 1.0)

    @pytest.mark.parametrize("dim, n", [(1, 33), (1, 65), (2, 17), (2, 33), (2, 65)])
    def test_pruned_inverse_fft_equals_ifftn(self, dim, n):
        # the axis-by-axis transform cut to the grid must give the same
        # bits as a full ifftn of the extended grid, cut afterwards
        emb = build_embedding(n, 1.0 / (n - 1), dim, SPEC)
        for i in range(6):
            xi = stream(i).generator().standard_normal((2,) + emb.ext_shape)
            full = np.sqrt(float(np.prod(emb.ext_shape))) * np.fft.ifftn(
                emb.sqrt_eig * (xi[0] + 1j * xi[1]))
            ref = full.real[(slice(0, n),) * dim]
            assert np.array_equal(sample_gaussian(emb, stream(i)), ref)


class TestRestrictField:
    def test_constant(self):
        f = FieldSample(level=1, values=np.full((9, 9), 3.0), seed_id=(1, 2, 3, 4))
        c = restrict_field(f, 0)
        assert np.all(c.values == 3.0)
        assert c.seed_id == f.seed_id

    def test_injection_definition_1d(self):
        f = FieldSample(level=1, values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        c = restrict_field(f, 0)
        assert list(c.values) == [1.0, 3.0, 5.0]

    def test_level_mismatch(self):
        f = FieldSample(level=2, values=np.zeros(5))
        with pytest.raises(LevelMismatch):
            restrict_field(f, 0)


class TestFieldSampler:
    def test_pair_shares_draw(self):
        hier = GridHierarchy(dim=2, n0=5, levels=3)
        fs = FieldSampler(hier, SPEC)
        fine = fs.sample(stream(5), 2)
        coarse = restrict_field(fine, 1)
        assert coarse.level == 1
        assert np.array_equal(fine.values[::2, ::2], coarse.values)
        assert fine.seed_id == coarse.seed_id

    def test_injection_consistency_across_levels(self):
        # the coarse member of a level-l pair equals the fine member of the
        # level-(l-1) pair for the same stream
        hier = GridHierarchy(dim=1, n0=5, levels=4)
        fs = FieldSampler(hier, SPEC)
        s = stream(9)
        coarse_of_2 = restrict_field(fs.sample(s, 2), 1)
        fine_of_1 = fs.sample(s, 1)
        assert np.array_equal(coarse_of_2.values, fine_of_1.values)

    def test_statistics_at_injected_level(self):
        # injected samples keep the exact covariance at the coarse nodes
        hier = GridHierarchy(dim=1, n0=9, levels=2)
        fs = FieldSampler(hier, SPEC)
        n = 4000
        zs = np.empty((n, 9))
        for i in range(n):
            zs[i] = np.log(fs.sample(stream(i, set_id=31), 0).values)
        x = np.linspace(0, 1, 9)
        for (a, b) in [(0, 0), (0, 4), (2, 6)]:
            want = covariance((x[a],), (x[b],), SPEC)
            got = np.mean(zs[:, a] * zs[:, b])
            se = np.sqrt((SPEC.sigma2**2 + want**2) / n)
            assert abs(got - want) <= 4.0 * se
