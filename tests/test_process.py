"""Mixed-process covariance, time-changed sampling, and the exact
second-order oracles."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import gmfbm
from gmfbm import mclab, process
from gmfbm.fbm import fbm_cov_matrix, fbm_values_at_times, power_variance
from gmfbm.process import (
    CancellationError,
    GmfbmParams,
    TimeChangedSpec,
    corr_curve_oracle,
    exact_cov_oracle,
    exact_increment_second_moment,
    exact_var_oracle,
    sample_timechanged_pair,
    sample_timechanged_path,
    sample_timechanged_path_with_clock,
)
from gmfbm.randkit import derive_stream, path_blocks
from gmfbm.selftest import max_entrywise_z, mean_z
from gmfbm.subordinators import SubordinatorSpec, subordinator_moment

MIX = GmfbmParams(1.0, 1.0, 0.55, 0.8)
TSS_SPEC = TimeChangedSpec(MIX, SubordinatorSpec.tss(0.7, 1.0))
GAMMA_SPEC = TimeChangedSpec(MIX, SubordinatorSpec.gamma(1.0))
# unequal weights, given in the swapped (h1 > h2) order: a law with a and b
# exchanged in the increment variance differs from this one
UNEQUAL = GmfbmParams(2.0, 1.0, 0.8, 0.3)

weights = st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3)
hursts = st.floats(0.05, 0.95)


class TestParams:
    def test_canonical_ordering(self):
        p = GmfbmParams(2.0, 3.0, 0.9, 0.4)
        assert (p.a, p.b, p.h1, p.h2) == (3.0, 2.0, 0.4, 0.9)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            GmfbmParams(0.0, 0.0, 0.5, 0.6)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_increment_variance_overflow_raises(self, in_place):
        # 1e200**1.6 is beyond the float range, with no numpy warning
        lag = np.array([1.0, 1e200])
        with pytest.raises(OverflowError, match=r"^the increment variance a\*\*2 lag\*\*2H1 "):
            MIX.increment_variance(lag, out=lag if in_place else None)

    def test_single_weight_allowed(self):
        p = GmfbmParams(0.0, 2.0, 0.5, 0.6)
        assert p.b == 2.0

    def test_hurst_validated(self):
        with pytest.raises(ValueError):
            GmfbmParams(1.0, 1.0, 1.2, 0.5)


class TestSampling:
    # the identity clock: the mixed process itself, sampled on the grid times

    def test_mc_covariance_matches_analytic(self):
        grid = np.arange(1.0, 9.0)
        n = 50_000
        paths = fbm_values_at_times(grid, MIX.increment_variance, derive_stream(21, 0), size=n)
        cov = (MIX.a ** 2 * fbm_cov_matrix(grid, MIX.h1)
               + MIX.b ** 2 * fbm_cov_matrix(grid, MIX.h2))
        assert max_entrywise_z(paths, cov) < 3.0

    def test_single_component_matches_fbm_marginal(self):
        grid = np.array([2.0])
        p = GmfbmParams(1.0, 0.0, 0.6, 0.8)
        mixed = fbm_values_at_times(grid, p.increment_variance, derive_stream(21, 1),
                                    size=20_000)[:, 0]
        plain = fbm_values_at_times(grid, power_variance(0.6), derive_stream(21, 2),
                                    size=20_000)[:, 0]
        assert stats.ks_2samp(mixed, plain).pvalue > 0.01

    def test_marginal_variance(self):
        t = 3.0
        n = 50_000
        p = GmfbmParams(1.0, 2.0, 0.55, 0.8)
        vals = fbm_values_at_times(np.array([t]), p.increment_variance, derive_stream(21, 3),
                                   size=n)[:, 0]
        target = t ** 1.1 + 4.0 * t ** 1.6
        sq = vals ** 2
        assert mean_z(sq, target) < 3.0

    def test_one_factorization_per_block(self, monkeypatch):
        # the mixed process given the clock is one Gaussian: one covariance
        # stack and one Cholesky call, not one per motion
        cholesky, calls = np.linalg.cholesky, []

        def counting_cholesky(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        clock = np.cumsum(np.full((64, 5), 0.5), axis=1)
        fbm_values_at_times(clock, UNEQUAL.increment_variance, derive_stream(21, 5))
        assert calls == [(64, 5, 5)]

    def test_invalid_clock_rejected(self):
        # a negative or decreasing clock fails before any value is drawn
        for clock in ([-1.0, 1.0], [2.0, 1.0], [[1.0, 2.0], [1.0, 0.5]]):
            with pytest.raises(ValueError):
                fbm_values_at_times(np.array(clock), MIX.increment_variance,
                                    derive_stream(21, 4))


class TestTimeChangedPair:
    def test_argument_order(self):
        # t is a 1-d grid: a scalar t is rejected like a 2-d one
        for s, t in [(2.0, [1.0]), (0.0, [1.0]), (1.0, [2.0, 2.0]), (1.0, [3.0, 2.0]),
                     (2.0, [1.0, 3.0]), (1.0, []), (1.0, [[2.0, 3.0]]), (1.0, 2.0)]:
            with pytest.raises(ValueError):
                sample_timechanged_pair(TSS_SPEC, s, t, derive_stream(22, 0), size=1)

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_grid_shapes(self, spec):
        # one row per path and one column per grid time
        y_s, y_t = sample_timechanged_pair(spec, 1.0, np.array([2.0, 5.0, 40.0]),
                                           derive_stream(22, 5), size=64)
        assert y_s.shape == y_t.shape == (64, 3)
        assert np.all(np.isfinite(y_s)) and np.all(np.isfinite(y_t))

    def test_brownian_gamma_second_moment(self):
        # H1=H2=1/2 with a Gamma clock of unit mean rate: E[Y_t^2] = 2t
        spec = TimeChangedSpec(GmfbmParams(1.0, 1.0, 0.5, 0.5),
                               SubordinatorSpec.gamma(1.0))
        n = 100_000
        _, y_t = sample_timechanged_pair(spec, 1.0, [4.0], derive_stream(22, 1), size=n)
        sq = y_t[:, 0] ** 2
        assert mean_z(sq, 8.0) < 3.0

    @pytest.mark.parametrize("spec,sid", [
        (TSS_SPEC, 2), (GAMMA_SPEC, 3),
        (TimeChangedSpec(UNEQUAL, TSS_SPEC.subordinator), 7),
        (TimeChangedSpec(UNEQUAL, GAMMA_SPEC.subordinator), 8)])
    def test_cov_matches_oracle(self, spec, sid):
        n = 100_000
        s, t = 1.0, 10.0
        y_s, y_t = sample_timechanged_pair(spec, s, [t], derive_stream(22, sid), size=n)
        y_s, y_t = y_s[:, 0], y_t[:, 0]
        assert mean_z(y_t ** 2, exact_var_oracle(spec, t)) < 3.0
        dev = (y_s - y_s.mean()) * (y_t - y_t.mean())
        assert mean_z(dev, exact_cov_oracle(spec, s, t)) < 3.0

    def test_two_normals_per_path_and_time(self):
        # one conditional Gaussian pair per grid time, not one per motion;
        # the Gamma clock draws no normals
        class CountingGen:
            def __init__(self, gen):
                self.gen, self.normals = gen, 0

            def standard_normal(self, size=None):
                self.normals += int(np.prod(size))
                return self.gen.standard_normal(size)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        stream = derive_stream(22, 9)
        stream.gen = counter = CountingGen(stream.gen)
        sample_timechanged_pair(GAMMA_SPEC, 1.0, [2.0, 5.0, 40.0], stream, size=64)
        assert counter.normals == 2 * 64 * 3

    def test_nearly_coincident_times(self):
        # s -> t keeps the sampler well defined and the moments continuous
        n = 50_000
        y_s, y_t = sample_timechanged_pair(GAMMA_SPEC, 2.0, [2.0 + 1e-9],
                                           derive_stream(22, 4), size=n)
        y_s, y_t = y_s[:, 0], y_t[:, 0]
        dev = (y_s - y_s.mean()) * (y_t - y_t.mean())
        assert mean_z(dev, exact_var_oracle(GAMMA_SPEC, 2.0)) < 3.0


class TestTimeChangedPath:
    def test_starts_at_zero(self):
        grid = np.array([0.0, 1.0, 2.0])
        path = sample_timechanged_path(TSS_SPEC, grid, derive_stream(23, 0), size=1)
        assert path[0, 0] == 0.0

    @pytest.mark.parametrize("spec,sid", [(TSS_SPEC, 1), (GAMMA_SPEC, 2)])
    def test_marginal_variance_matches_oracle(self, spec, sid):
        # paths in blocks, each from its own stream key
        t = 4.0
        n = 10_000
        grid = np.array([t])
        vals = np.empty(n)
        for stream, lo, hi in path_blocks(2300 + sid, n):
            vals[lo:hi] = sample_timechanged_path(spec, grid, stream, size=hi - lo)[:, 0]
        sq = vals ** 2
        assert mean_z(sq, exact_var_oracle(spec, t)) < 3.0

    @pytest.mark.parametrize("spec,sid", [(TSS_SPEC, 5), (GAMMA_SPEC, 6)])
    def test_block_marginal_variance_matches_oracle(self, spec, sid):
        # one block of paths drawn through size=, rows are paths
        n = 10_000
        grid = np.array([1.0, 4.0])
        clock, values = sample_timechanged_path_with_clock(spec, grid,
                                                           derive_stream(23, sid), size=n)
        assert clock.shape == values.shape == (n, 2)
        assert np.all(np.diff(clock, axis=1) >= 0.0)
        sq = values[:, 1] ** 2
        assert mean_z(sq, exact_var_oracle(spec, 4.0)) < 3.0

    def test_path_type_invariant(self):
        # the samplers return arrays, one row per path, with the clock
        # values in the same shape
        grid = np.array([1.0, 2.0, 4.0])
        clock, values = sample_timechanged_path_with_clock(TSS_SPEC, grid,
                                                           derive_stream(23, 8), size=5)
        assert clock.shape == values.shape == (5, 3)

    # the README's Gamma simulate grids; rounding pushes their clock
    # covariances just below semidefinite, which the numerical-repeat rule
    # must absorb without perturbing the law or reaching the eigh fallback
    @pytest.mark.parametrize("nu,grid", [(10.0, np.geomspace(1.0, 100.0, 20)),
                                         (1.0, np.geomspace(0.1, 5.0, 50))])
    def test_readme_gamma_grids_keep_the_law(self, monkeypatch, nu, grid):
        eigh, fallbacks = np.linalg.eigh, []

        def counting_eigh(a):
            fallbacks.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        spec = TimeChangedSpec(MIX, SubordinatorSpec.gamma(nu))
        n = 8192
        values = np.empty((n, grid.size))
        for stream, lo, hi in path_blocks(12345, n):
            values[lo:hi] = sample_timechanged_path_with_clock(spec, grid, stream,
                                                               size=hi - lo)[1]
        assert fallbacks == []
        # family-wise error 1e-4 over the variances and lag-1 covariances
        bound = NormalDist().inv_cdf(1.0 - 1e-4 / (2.0 * (2 * grid.size - 1)))
        for k, t in enumerate(grid):
            assert mean_z(values[:, k] ** 2, exact_var_oracle(spec, t)) < bound
        for k in range(grid.size - 1):
            target = exact_cov_oracle(spec, grid[k], grid[k + 1])
            assert mean_z(values[:, k] * values[:, k + 1], target) < bound


class TestOracles:
    def test_var_at_equal_times(self):
        for spec in (TSS_SPEC, GAMMA_SPEC):
            assert exact_cov_oracle(spec, 3.0, 3.0) == exact_var_oracle(spec, 3.0)

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_grid_matches_scalar_calls(self, spec):
        # one V(s) serves the whole grid, with the scalar call's bits
        grid = np.array([0.5, 1.0, 3.0, 7.0])
        np.testing.assert_array_equal(exact_cov_oracle(spec, 1.0, grid),
                                      [exact_cov_oracle(spec, 1.0, t) for t in grid])

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_var_array_matches_scalar(self, spec):
        t = np.array([0.5, 1.0, 3.0, 99.0, 1e4])
        np.testing.assert_allclose(exact_var_oracle(spec, t),
                                   [exact_var_oracle(spec, u) for u in t.tolist()],
                                   rtol=1e-14, atol=0.0)
        assert isinstance(exact_var_oracle(spec, 3.0), float)

    def test_brownian_gamma_closed_form(self):
        # H1=H2=1/2, Gamma(nu=1): m(t,1)=t so Cov(Y_s,Y_t)=2s exactly
        spec = TimeChangedSpec(GmfbmParams(1.0, 1.0, 0.5, 0.5),
                               SubordinatorSpec.gamma(1.0))
        assert exact_cov_oracle(spec, 2.0, 7.0) == pytest.approx(4.0, rel=1e-12)
        assert exact_var_oracle(spec, 7.0) == pytest.approx(14.0, rel=1e-12)

    def test_brownian_tss_mean_rate(self):
        spec = TimeChangedSpec(GmfbmParams(1.0, 0.0, 0.5, 0.8),
                               SubordinatorSpec.tss(0.7, 1.0))
        assert exact_var_oracle(spec, 5.0) == pytest.approx(3.5, rel=1e-12)

    def test_single_component_reduction_exact(self):
        spec = TimeChangedSpec(GmfbmParams(2.0, 0.0, 0.6, 0.9),
                               SubordinatorSpec.gamma(1.5))
        s, t = 1.0, 6.0
        m = lambda tt: subordinator_moment(spec.subordinator, tt, 1.2)
        expected = 4.0 * 0.5 * (m(t) + m(s) - m(t - s))
        assert exact_cov_oracle(spec, s, t) == pytest.approx(expected, rel=1e-12)

    def test_equal_index_reduction_exact(self):
        base = TimeChangedSpec(GmfbmParams(1.0, 0.0, 0.7, 0.8),
                               SubordinatorSpec.tss(0.7, 1.0))
        both = TimeChangedSpec(GmfbmParams(1.5, 2.0, 0.7, 0.7),
                               SubordinatorSpec.tss(0.7, 1.0))
        s, t = 2.0, 9.0
        scale = 1.5 ** 2 + 2.0 ** 2
        assert exact_cov_oracle(both, s, t) == pytest.approx(
            scale * exact_cov_oracle(base, s, t), rel=1e-12)

    @given(a=weights, b=weights, h1=hursts, h2=hursts)
    @settings(max_examples=30, deadline=None)
    def test_swap_symmetry_oracle(self, a, b, h1, h2):
        spec1 = TimeChangedSpec(GmfbmParams(a, b, h1, h2), SubordinatorSpec.gamma(1.0))
        spec2 = TimeChangedSpec(GmfbmParams(b, a, h2, h1), SubordinatorSpec.gamma(1.0))
        assert exact_cov_oracle(spec1, 1.0, 3.0) == exact_cov_oracle(spec2, 1.0, 3.0)

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_var_monotone_in_t(self, spec):
        values = [exact_var_oracle(spec, t) for t in (0.5, 1.0, 3.0, 10.0, 40.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_corr_curve_oracle_is_one_function(self):
        # the Monte Carlo lab and the package re-export the process oracle
        assert mclab.corr_curve_oracle is process.corr_curve_oracle
        assert gmfbm.corr_curve_oracle is process.corr_curve_oracle

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_corr_is_cov_over_variances_bitwise(self, spec):
        # on lrd's default grid: Corr = Cov / sqrt(V(t) V(s)), bit for bit
        s, grid = 1.0, np.geomspace(100.0, 10000.0, 12)
        cov = exact_cov_oracle(spec, s, grid)
        var_t, var_s = exact_var_oracle(spec, grid), exact_var_oracle(spec, s)
        curve = corr_curve_oracle(spec, s, grid)
        assert [t for t, _ in curve] == grid.tolist()
        assert [c for _, c in curve] == (cov / np.sqrt(var_t * var_s)).tolist()

    def test_nonpositive_covariance_raises_naming_first_time(self, monkeypatch):
        # V(s) = V(t) = 1 make the covariance 1 - V(t-s)/2: <= 0 at the
        # first lag with V >= 2, here t = 30; NaN at t = 40
        lag_var = {9.0: 0.5, 19.0: 0.5, 29.0: 3.0, 39.0: np.nan}
        monkeypatch.setattr(process, "exact_var_oracle", lambda spec, times: np.array(
            [lag_var.get(u, 1.0) for u in times.tolist()]))
        with pytest.raises(CancellationError,
                           match=r"^oracle covariance -0\.5 at t = 30 is not positive"):
            exact_cov_oracle(GAMMA_SPEC, 1.0, [10.0, 20.0, 30.0, 40.0])

    def test_rounding_bound_above_tolerance_raises_naming_first_time(self, monkeypatch):
        # V(s) = V(t) = 1 make the covariance 1 - V(t-s)/2; rounding the three
        # V values can move it by u (2 + V(t-s))/2: 1.1e-4 of Cov = 2e-12 at
        # t = 20, and 2.2e-3 of Cov = 1e-13 at t = 30, above 1e-3
        lag_var = {19.0: 2.0 - 4e-12, 29.0: 2.0 - 2e-13, 39.0: 3.0}
        monkeypatch.setattr(process, "exact_var_oracle", lambda spec, times: np.array(
            [lag_var.get(u, 1.0) for u in times.tolist()]))
        assert exact_cov_oracle(GAMMA_SPEC, 1.0, 20.0) == pytest.approx(2e-12, rel=1e-3)
        with pytest.raises(CancellationError,
                           match=r"^oracle covariance at t = 30 has a rounding error bound of "
                                 r"0\.0022\d of its value, above 0\.001: "):
            exact_cov_oracle(GAMMA_SPEC, 1.0, [10.0, 20.0, 30.0, 40.0])

    def test_variance_underflow_raises_naming_first_time(self):
        # a**2 = b**2 = 0 at a = b = 1e-200: V is 0, not a variance
        spec = TimeChangedSpec(GmfbmParams(1e-200, 1e-200, 0.55, 0.8), TSS_SPEC.subordinator)
        message = r"^Var\(Y_t\) = a\*\*2 m\(t, 2H1\) \+ b\*\*2 m\(t, 2H2\) underflows to 0 at t = "
        with pytest.raises(FloatingPointError, match=message + "2$"):
            exact_var_oracle(spec, 2.0)
        with pytest.raises(FloatingPointError, match=message + "1$"):
            corr_curve_oracle(spec, 1.0, [10.0, 20.0])

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_corr_of_small_variances(self, spec):
        # V(t) V(s) underflows at a = b = 1e-100, but the correlation is
        # invariant to the scale of (a, b)
        small = TimeChangedSpec(GmfbmParams(1e-100, 1e-100, 0.55, 0.8), spec.subordinator)
        grid = np.geomspace(100.0, 10000.0, 12)
        expected = [c for _, c in corr_curve_oracle(spec, 1.0, grid)]
        got = [c for _, c in corr_curve_oracle(small, 1.0, grid)]
        assert got == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_var_oracle(TSS_SPEC, 0.0)
        with pytest.raises(ValueError):
            exact_cov_oracle(TSS_SPEC, -1.0, 2.0)
        with pytest.raises(ValueError):
            exact_cov_oracle(TSS_SPEC, 1.0, [2.0, 0.0])


class TestIncrementSecondMoment:
    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_levy_identity(self, spec):
        # Var(Y_t) + Var(Y_s) - 2Cov equals the pure increment-moment form
        p = spec.gmfbm
        for s, t in [(1.0, 5.0), (2.0, 20.0), (0.5, 0.75)]:
            direct = (p.a ** 2 * subordinator_moment(spec.subordinator, t - s, 2 * p.h1)
                      + p.b ** 2 * subordinator_moment(spec.subordinator, t - s, 2 * p.h2))
            assert exact_increment_second_moment(spec, s, t) == pytest.approx(
                direct, rel=1e-9)

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_depends_only_on_gap(self, spec):
        gap = 3.0
        values = [exact_increment_second_moment(spec, s, s + gap)
                  for s in (0.5, 1.0, 4.0, 9.0)]
        assert max(values) - min(values) < 1e-9 * values[0]

    def test_shrinks_to_zero(self):
        vals = [exact_increment_second_moment(GAMMA_SPEC, 1.0, 1.0 + eps)
                for eps in (1.0, 0.1, 0.01, 0.001)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.02

    @pytest.mark.parametrize("spec,sid", [(TSS_SPEC, 0), (GAMMA_SPEC, 1)])
    def test_matches_mc(self, spec, sid):
        n = 100_000
        s, t = 1.0, 10.0
        y_s, y_t = sample_timechanged_pair(spec, s, [t], derive_stream(24, sid), size=n)
        sq = (y_t[:, 0] - y_s[:, 0]) ** 2
        assert mean_z(sq, exact_increment_second_moment(spec, s, t)) < 3.0

    def test_grows_with_gap(self):
        s = 1.0
        vals = [exact_increment_second_moment(TSS_SPEC, s, s + gap)
                for gap in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestFourthMoments:
    # given the clock, Y is Gaussian with variance V(S) = a**2 S**2H1 +
    # b**2 S**2H2, so E[Y_t**4] = 3 E[V(S_t)**2], a sum of three clock
    # moments, and E[(Y_t - Y_s)**4] is the same sum at t - s.  These see the
    # clock's spread and the Gaussian law given it, which no second moment
    # does (Y_t's kurtosis is about 6 at t = 1 on the TSS clock)
    S, T = 0.5, np.array([1.0, 10.0, 100.0])

    @staticmethod
    def fourth(sub, u):
        a, b, h1, h2 = MIX.a, MIX.b, MIX.h1, MIX.h2
        return 3.0 * (a ** 4 * subordinator_moment(sub, u, 4.0 * h1)
                      + 2.0 * a ** 2 * b ** 2 * subordinator_moment(sub, u, 2.0 * (h1 + h2))
                      + b ** 4 * subordinator_moment(sub, u, 4.0 * h2))

    def z_scores(self, spec, y_s, y_t):
        level = self.fourth(spec.subordinator, self.T)
        increment = self.fourth(spec.subordinator, self.T - self.S)
        return [z for j in range(self.T.size)
                for z in (mean_z(y_t[:, j] ** 4, level[j]),
                          mean_z((y_t[:, j] - y_s[:, j]) ** 4, increment[j]))]

    def test_against_pair_sampler(self):
        z = []
        for sid, spec in enumerate([TSS_SPEC, GAMMA_SPEC]):
            y_s, y_t = sample_timechanged_pair(spec, self.S, self.T, derive_stream(25, sid),
                                               size=400_000)
            z += self.z_scores(spec, y_s, y_t)
        # family-wise over the 12 statistics
        assert max(z) < 4.0, z

    def test_against_path_sampler(self):
        # the whole simulate path: the clock on [s, *t] (double rejection
        # over the TSS gaps of 9 and 90), then one Cholesky factor per path;
        # 4e5 paths in 8 calls of 50,000 from one stream
        grid = np.append(self.S, self.T)
        z = []
        for sid, spec in enumerate([TSS_SPEC, GAMMA_SPEC]):
            stream = derive_stream(26, sid)
            y = np.concatenate([sample_timechanged_path_with_clock(spec, grid, stream, 50_000)[1]
                                for _ in range(8)])
            z += self.z_scores(spec, np.repeat(y[:, :1], self.T.size, axis=1), y[:, 1:])
        # family-wise over the 12 statistics
        assert max(z) < 4.0, z
