"""Covariance identities and exact-sampler distribution checks for the
fractional motion layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfbm import fbm
from gmfbm.fbm import (
    ConditioningError,
    as_hurst,
    fbm_cov_matrix,
    fbm_values_at_times,
    power_variance,
    sample_fbm_pair,
    sample_fgn_regular,
)
from gmfbm.process import GmfbmParams
from gmfbm.randkit import derive_stream
from gmfbm.selftest import max_entrywise_z, mean_z
from gmfbm.subordinators import SubordinatorSpec, sample_path

hursts = st.floats(0.05, 0.95)
times = st.floats(0.0, 50.0)


def cov(s, t, h):
    # E[B_s B_t] from the covariance matrix on the two-point grid (s, t)
    return fbm_cov_matrix(np.array([s, t]), h)[0, 1]


class TestCov:
    def test_diagonal(self):
        for t, h in [(2.0, 0.3), (5.0, 0.75)]:
            assert cov(t, t, h) == pytest.approx(t ** (2 * h), rel=1e-14)

    def test_brownian_min(self):
        assert cov(1.0, 2.0, 0.5) == pytest.approx(1.0)
        assert cov(3.0, 2.0, 0.5) == pytest.approx(2.0)

    def test_h075_value(self):
        assert cov(1.0, 2.0, 0.75) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            cov(-1.0, 2.0, 0.5)

    def test_hurst_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            for validated in (as_hurst, power_variance):
                with pytest.raises(ValueError):
                    validated(bad)

    @given(s=times, t=times, h=hursts)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, s, t, h):
        # the grid (t, s) gives the matrix of (s, t) with its points swapped,
        # exactly; each matrix is symmetric up to the rounding of its sums
        mat = fbm_cov_matrix(np.array([s, t]), h)
        np.testing.assert_array_equal(fbm_cov_matrix(np.array([t, s]), h)[::-1, ::-1], mat)
        np.testing.assert_allclose(mat, mat.T, rtol=0.0,
                                   atol=4.0 * np.finfo(float).eps * mat.diagonal().max())

    # c is a power of two so that c*s and c*t are exact; otherwise their
    # rounding, amplified by |c*t - c*s|**(2h), swamps the tolerance
    @given(s=st.floats(0.01, 20.0), t=st.floats(0.01, 20.0),
           c=st.integers(-3, 3).map(lambda k: 2.0 ** k), h=hursts)
    @settings(max_examples=200, deadline=None)
    def test_self_similarity(self, s, t, c, h):
        left = fbm_cov_matrix(c * np.array([s, t]), h)
        right = c ** (2 * h) * fbm_cov_matrix(np.array([s, t]), h)
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)


class TestCovMatrix:
    def test_single_point(self):
        mat = fbm_cov_matrix(np.array([1.0]), 0.42)
        np.testing.assert_allclose(mat, [[1.0]])

    def test_brownian_two_points(self):
        mat = fbm_cov_matrix(np.array([1.0, 2.0]), 0.5)
        np.testing.assert_allclose(mat, [[1.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.75, 0.9])
    def test_psd(self, h):
        grid = np.concatenate([np.arange(1.0, 17.0), [17.3, 21.9]])
        eig = np.linalg.eigvalsh(fbm_cov_matrix(grid, h))
        assert eig.min() >= -1e-10 * eig.max()

    def test_grid_validation(self):
        # each function checks what its own math needs; repeated times are
        # valid input to both
        for bad in ([-1.0, 2.0], [], [1.0, np.nan]):
            with pytest.raises(ValueError):
                fbm_cov_matrix(np.array(bad), 0.5)
        spec = SubordinatorSpec.gamma(1.0)
        for bad in ([2.0, 1.0], [1.0, np.nan]):
            with pytest.raises(ValueError):
                sample_path(spec, np.array(bad), derive_stream(1, 7), size=1)
        repeated = np.array([1.0, 1.0, 2.0])
        assert np.all(fbm_cov_matrix(repeated, 0.5) == [[1, 1, 1], [1, 1, 1], [1, 1, 2]])
        clock = sample_path(spec, repeated, derive_stream(1, 7), size=1)[0]
        assert clock[0] == clock[1] < clock[2]


class TestSampleAt:
    def test_zero_time_is_exact_zero(self):
        vals = fbm_values_at_times(np.array([0.0, 1.0, 2.0]), power_variance(0.7),
                                   derive_stream(1, 0), size=50)
        assert np.all(vals[:, 0] == 0.0)
        assert np.all(vals[:, 1] != 0.0)

    def test_mc_covariance(self):
        grid = np.arange(1.0, 9.0)
        paths = fbm_values_at_times(grid, power_variance(0.7), derive_stream(1, 1),
                                    size=50_000)
        assert max_entrywise_z(paths, fbm_cov_matrix(grid, 0.7)) < 3.0

    def test_brownian_independent_increments(self):
        paths = fbm_values_at_times(np.array([1.0, 2.0]), power_variance(0.5),
                                    derive_stream(1, 2), size=50_000)
        inc = paths[:, 1] - paths[:, 0]
        rho = np.corrcoef(inc, paths[:, 0])[0, 1]
        assert abs(rho) < 3.0 / math.sqrt(paths.shape[0])

    def test_duplicate_times_collapse(self):
        vals = fbm_values_at_times(np.array([1.0, 2.0, 2.0, 3.0]), power_variance(0.6),
                                   derive_stream(1, 3), size=20)
        np.testing.assert_array_equal(vals[:, 1], vals[:, 2])
        assert np.all(vals[:, 1] != vals[:, 3])

    def test_near_duplicate_times_collapse(self):
        # a step of 1e-14 has increment variance far below LAPACK's rank
        # tolerance n*u*t_last**2H: it is a numerical repeat, like an exact one
        t = np.array([1.0, 1.0 + 1e-14, 2.0, 2.0 + 1e-14, 3.0])
        vals = fbm_values_at_times(t, power_variance(0.7), derive_stream(1, 4), size=10)
        assert np.all(np.isfinite(vals))
        np.testing.assert_array_equal(vals[:, 0], vals[:, 1])
        np.testing.assert_array_equal(vals[:, 2], vals[:, 3])
        assert np.all(vals[:, 1] != vals[:, 2])

    def test_rejected_stack_is_factored_exactly(self, monkeypatch):
        # with LAPACK's Cholesky failing, the eigh square root carries the law
        def always_fail(_):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", always_fail)
        grid = np.arange(1.0, 9.0)
        paths = fbm_values_at_times(grid, power_variance(0.7), derive_stream(1, 5),
                                    size=50_000)
        assert max_entrywise_z(paths, fbm_cov_matrix(grid, 0.7)) < 3.0

    def test_indefinite_stack_raises(self, monkeypatch):
        # a correlation of 2 between the first two times: eigenvalue -1 of 3
        monkeypatch.setattr(fbm, "_cov_matrix_at", lambda times, hh: np.array(
            [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
        with pytest.raises(ConditioningError):
            fbm_values_at_times(np.arange(1.0, 5.0), power_variance(0.7), derive_stream(1, 5))

    def test_nondecreasing_required(self):
        with pytest.raises(ValueError):
            fbm_values_at_times(np.array([2.0, 1.0]), power_variance(0.5), derive_stream(1, 6))

    def test_nan_times_raise(self):
        # NaN and infinite times both fail
        for bad in (float("nan"), float("inf")):
            calls = [
                lambda: cov(bad, 1.0, 0.7),
                lambda: cov(1.0, bad, 0.7),
                lambda: fbm_cov_matrix(np.array([1.0, bad, 3.0]), 0.7),
                lambda: fbm_values_at_times(np.array([1.0, bad, 3.0]), power_variance(0.7),
                                            derive_stream(1, 8)),
                lambda: fbm_values_at_times(np.array([1.0, bad]), power_variance(0.7),
                                            derive_stream(1, 8)),
                lambda: sample_fbm_pair(np.array([bad, 1.0]), np.array([2.0, 2.0]),
                                        power_variance(0.7),
                                        derive_stream(1, 8)),
                lambda: sample_fbm_pair(1.0, bad, power_variance(0.7), derive_stream(1, 8)),
                lambda: sample_path(SubordinatorSpec.tss(0.7, 1.0),
                                    np.array([1.0, bad, 3.0]), derive_stream(1, 8), size=1),
            ]
            for call in calls:
                with pytest.raises(ValueError):
                    call()


class TestStackedRows:
    """``fbm_values_at_times`` with per-path times of shape (B, n)."""

    def test_leading_zero_and_repeat_are_exact(self):
        t = np.array([[0.0, 0.0, 1.0, 1.0, 2.5],
                      [0.0, 0.7, 0.7, 0.7, 3.0],
                      [0.4, 1.0, 2.0, 3.0, 4.0]])
        # the mixed process with unequal weights runs on the same sampler
        mixed = GmfbmParams(2.0, 1.0, 0.8, 0.3)
        for vals in (fbm_values_at_times(t, power_variance(0.65), derive_stream(4, 0)),
                     fbm_values_at_times(t, mixed.increment_variance, derive_stream(4, 0))):
            assert vals.shape == t.shape
            assert np.all(vals[:2, 0] == 0.0) and vals[0, 1] == 0.0
            assert vals[0, 2] == vals[0, 3] != 0.0
            assert vals[1, 1] == vals[1, 2] == vals[1, 3] != 0.0
            assert np.all(vals[2] != 0.0) and len(set(vals[2])) == 5

    def test_mc_covariance_per_row_grid(self):
        grids = [np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.5]),
                 np.array([1.0, 2.2, 2.3, 5.0, 7.0, 8.0])]
        n = 30_000
        t = np.tile(np.stack(grids), (n, 1))  # rows alternate between grids
        vals = fbm_values_at_times(t, power_variance(0.7), derive_stream(4, 1))
        for k, grid in enumerate(grids):
            assert max_entrywise_z(vals[k::2], fbm_cov_matrix(grid, 0.7)) < 3.0

    def test_near_duplicate_rows_collapse(self):
        t = np.array([[1.0, 1.0 + 1e-14, 2.0, 2.0 + 1e-14, 3.0],
                      [0.5, 1.0, 2.0, 3.0, 4.0]])
        vals = fbm_values_at_times(t, power_variance(0.7), derive_stream(4, 2), size=10)
        assert vals.shape == (10, 2, 5)
        assert np.all(np.isfinite(vals))
        np.testing.assert_array_equal(vals[:, 0, 0], vals[:, 0, 1])
        np.testing.assert_array_equal(vals[:, 0, 2], vals[:, 0, 3])
        assert len(np.unique(vals[:, 1])) == vals[:, 1].size

    def test_gamma_clock_at_h099_takes_the_exact_fallback(self, monkeypatch):
        # at H = 0.99 LAPACK rejects this stack even after the numerical
        # repeats are collapsed; the eigh square root must rebuild it
        clock = sample_path(SubordinatorSpec.gamma(100.0), np.geomspace(1.0, 100.0, 20),
                            derive_stream(99, 17), size=1024)
        eigh, factored = np.linalg.eigh, []

        def counting_eigh(a):
            factored.append(a.copy())
            return eigh(a)

        factor, roots = fbm._factor, []

        def recording_factor(cov):
            roots.append(factor(cov))
            return roots[-1]

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(fbm, "_factor", recording_factor)
        vals = fbm_values_at_times(clock, power_variance(0.99), derive_stream(99, 18))
        assert np.all(np.isfinite(vals))
        assert len(factored) == 1 and len(roots) == 1
        cov, chol = factored[0], roots[0]
        resid = np.abs(chol @ np.swapaxes(chol, -1, -2) - cov).max(axis=(-2, -1))
        assert np.all(resid <= 1e-12 * np.diagonal(cov, axis1=-2, axis2=-1).max(axis=-1))


class TestPair:
    def test_degenerate_equal_times(self):
        b_u, b_v = sample_fbm_pair(1.5, 1.5, power_variance(0.6), derive_stream(2, 0))
        assert b_u == b_v

    def test_zero_first_time(self):
        b_u, b_v = sample_fbm_pair(0.0, 2.0, power_variance(0.75), derive_stream(2, 1))
        assert b_u == 0.0
        assert b_v != 0.0

    def test_mc_covariance(self):
        n = 100_000
        b_u, b_v = sample_fbm_pair(np.full(n, 1.0), np.full(n, 2.0), power_variance(0.75),
                                   derive_stream(2, 2))
        prod = b_u * b_v
        assert mean_z(prod, math.sqrt(2.0)) < 3.0

    def test_marginal_variances(self):
        n = 100_000
        b_u, b_v = sample_fbm_pair(np.full(n, 1.0), np.full(n, 3.0), power_variance(0.6),
                                   derive_stream(2, 3))
        for draws, target in ((b_u, 1.0), (b_v, 3.0 ** 1.2)):
            sq = draws ** 2
            assert mean_z(sq, target) < 3.0

    def test_argument_order(self):
        with pytest.raises(ValueError):
            sample_fbm_pair(2.0, 1.0, power_variance(0.5), derive_stream(2, 4))
        with pytest.raises(ValueError):
            sample_fbm_pair(-1.0, 1.0, power_variance(0.5), derive_stream(2, 4))

    def test_vector_arguments(self):
        u = np.array([0.5, 1.0, 0.0])
        v = np.array([1.0, 1.0, 2.0])
        b_u, b_v = sample_fbm_pair(u, v, power_variance(0.7), derive_stream(2, 5))
        assert b_u.shape == (3,)
        assert b_u[1] == b_v[1]
        assert b_u[2] == 0.0


class TestFgn:
    def test_brownian_increments_ks(self):
        from scipy import stats
        draws = sample_fgn_regular(16, 0.25, 0.5, derive_stream(3, 0),
                                   size=2_000).ravel()
        stat = stats.kstest(draws, "norm", args=(0.0, 0.5)).statistic
        assert stat < 1.63 / math.sqrt(draws.size)

    def test_lag_one_autocorrelation(self):
        n_paths = 3_000
        x = sample_fgn_regular(1024, 1.0, 0.7, derive_stream(3, 1), size=n_paths)
        target = 0.5 * (2 ** 1.4 - 2.0)
        prods = (x[:, :-1] * x[:, 1:]).mean(axis=1)
        assert mean_z(prods, target) < 3.0

    def test_matches_cholesky_sampler(self):
        n, n_paths = 16, 50_000
        cov = fbm_cov_matrix(np.arange(1.0, n + 1.0), 0.7)
        fgn = sample_fgn_regular(n, 1.0, 0.7, derive_stream(3, 2), size=n_paths)
        assert max_entrywise_z(np.cumsum(fgn, axis=1), cov) < 3.0

    def test_single_step(self):
        x = sample_fgn_regular(1, 2.0, 0.8, derive_stream(3, 3), size=1_000)
        sq = x ** 2
        assert mean_z(sq, 2.0 ** 1.6) < 3.0

    @pytest.mark.parametrize("h", [0.3, 0.55, 0.9])
    def test_variance_all_hursts(self, h):
        x = sample_fgn_regular(64, 1.0, h, derive_stream(3, 4), size=5_000).ravel()
        sq = x ** 2
        assert mean_z(sq, 1.0) < 4.0

    def test_near_one_hurst_stays_on_the_embedding(self):
        # rounding leaves eigenvalues of -1.3e-10 of the largest here; the
        # circulant embedding is still exact, and no n x n matrix is built
        n, h = 16384, 0.999999
        gamma = fbm._fgn_autocov(n, 1.0, h)
        lam = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        assert -1e-6 < lam.min() / lam.max() < -1e-10
        x = sample_fgn_regular(n, 1.0, h, derive_stream(3, 6), size=4)
        assert x.shape == (4, n)
        # lag correlations are all within 1e-5 of 1: each row is nearly flat
        assert np.all(np.ptp(x, axis=1) < 0.1)

    def test_indefinite_embedding_raises(self, monkeypatch):
        # lag-1 covariance twice the variance: the circulant is indefinite
        monkeypatch.setattr(fbm, "_fgn_autocov",
                            lambda n, dt, hh: np.r_[1.0, 2.0, np.zeros(n - 1)])
        with pytest.raises(ConditioningError):
            sample_fgn_regular(8, 1.0, 0.5, derive_stream(3, 7))

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_fgn_regular(0, 1.0, 0.5, derive_stream(3, 5))
        with pytest.raises(ValueError):
            sample_fgn_regular(4, -1.0, 0.5, derive_stream(3, 5))
