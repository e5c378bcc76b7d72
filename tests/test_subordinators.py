"""Clock path sampling and the exact / asymptotic / Monte Carlo moment
oracles."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gmfbm.fbm import TimeGrid
from gmfbm.randkit import derive_stream
from gmfbm.selftest import mean_z
from gmfbm.subordinators import (
    GammaParams,
    QuadratureError,
    SubordinatorPath,
    SubordinatorSpec,
    TssParams,
    gamma_moment,
    sample_increment,
    sample_path,
    subordinator_moment,
    subordinator_moment_asymptotic,
    tss_mean,
    tss_moment,
    tss_variance,
)

# E[X_t**q] for the tempered stable clock at alpha = 1/2, where the law is
# inverse Gaussian with mu = t/(2 sqrt(lambda)), shape = t**2/2, and the
# moment has the closed Bessel-ratio form
#   mu**q * K_{q-1/2}(t sqrt(lambda)) / K_{-1/2}(t sqrt(lambda)).
# Values computed from scipy.special.kve, an oracle independent of the
# quadrature route under test.
IG_MOMENTS = {
    (1.0, 1.0, 0.6): 0.6046597217253444,
    (1.0, 1.0, 1.4): 0.4627518227617412,
    (1.0, 1.0, 1.9): 0.48626206534997174,
    (2.0, 10.0, 0.6): 2.1159700905182923,
    (2.0, 10.0, 1.4): 5.9724075719881995,
    (2.0, 10.0, 1.9): 11.67983708289766,
    (0.5, 100.0, 0.6): 12.851656691437707,
    (0.5, 100.0, 1.4): 389.93005790162806,
    (0.5, 100.0, 1.9): 3305.49135521183,
}

spec_strategy = st.one_of(
    st.builds(SubordinatorSpec.tss,
              st.floats(0.2, 0.9), st.floats(0.2, 5.0)),
    st.builds(SubordinatorSpec.gamma, st.floats(0.2, 5.0)),
)


class TestTypes:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            TssParams(0.0, 1.0)
        with pytest.raises(ValueError):
            TssParams(1.0, 1.0)
        with pytest.raises(ValueError):
            TssParams(0.5, 0.0)
        with pytest.raises(ValueError):
            GammaParams(0.0)

    def test_spec_kind_matches_params(self):
        with pytest.raises(ValueError):
            SubordinatorSpec("tss", GammaParams(1.0))
        with pytest.raises(ValueError):
            SubordinatorSpec("gamma", TssParams(0.5, 1.0))
        with pytest.raises(ValueError):
            SubordinatorSpec("poisson", GammaParams(1.0))

    def test_path_invariants(self):
        grid = TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SubordinatorPath(grid, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            SubordinatorPath(grid, np.array([1.0]))


class TestSamplePath:
    def test_gamma_single_point_mean(self):
        # value at t=1 for nu=1 is Gamma(1,1); vectorized draws are the same
        # construction as 1e5 single-point paths
        draws = sample_increment(SubordinatorSpec.gamma(1.0), 1.0,
                                 derive_stream(11, 0), size=100_000)
        assert mean_z(draws, 1.0) < 3.0

    def test_tss_single_point_mean(self):
        draws = sample_increment(SubordinatorSpec.tss(0.7, 1.0), 10.0,
                                 derive_stream(11, 1), size=100_000)
        assert mean_z(draws, 7.0) < 3.0

    @given(spec=spec_strategy, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_paths_nondecreasing(self, spec, seed):
        grid = TimeGrid(np.array([0.5, 1.0, 1.25, 4.0, 9.0]))
        path = sample_path(spec, grid, derive_stream(seed, 0))
        assert path.values[0] >= 0.0
        assert np.all(np.diff(path.values) >= 0.0)

    def test_grid_starting_at_zero(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        path = sample_path(SubordinatorSpec.gamma(0.5), grid, derive_stream(11, 2))
        assert path.values[0] == 0.0

    @pytest.mark.parametrize("spec", [SubordinatorSpec.gamma(1.0),
                                      SubordinatorSpec.tss(0.6, 1.0)])
    def test_increment_stationarity_ks(self, spec):
        # distribution of value(t) - value(s) equals that of value(t-s)
        n = 10_000
        s, t = 1.0, 2.5
        stream = derive_stream(12, 0)
        grid = TimeGrid(np.array([s, t]))
        incs = np.array([np.diff(sample_path(spec, grid, stream).values)[0]
                         for _ in range(n)])
        direct = sample_increment(spec, t - s, derive_stream(12, 1), size=n)
        assert stats.ks_2samp(incs, direct).pvalue > 0.01


class TestGammaMoments:
    def test_exponential_mean(self):
        assert gamma_moment(GammaParams(1.0), 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_shape_two_mean(self):
        assert gamma_moment(GammaParams(1.0), 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_half_moment_identity(self):
        target = math.sqrt(math.pi) / 2.0
        assert abs(gamma_moment(GammaParams(2.0), 2.0, 0.5) - target) < 1e-12

    def test_asymptotic_values(self):
        assert subordinator_moment_asymptotic(SubordinatorSpec.gamma(1.0), 1.0, 1.0) == 1.0
        assert subordinator_moment_asymptotic(SubordinatorSpec.gamma(2.0), 20.0, 2.0) == \
            pytest.approx(100.0)

    def test_asymptotic_ratio_large_t(self):
        spec = SubordinatorSpec.gamma(1.0)
        ratio = (gamma_moment(spec.params, 1000.0, 1.6)
                 / subordinator_moment_asymptotic(spec, 1000.0, 1.6))
        assert abs(ratio - 1.0) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_moment(GammaParams(1.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_moment(GammaParams(1.0), 1.0, 0.0)


class TestTssMoments:
    def test_mean_exact(self):
        for alpha, lam, t in [(0.7, 1.0, 10.0), (0.3, 2.5, 3.0)]:
            p = TssParams(alpha, lam)
            assert tss_moment(p, t, 1.0) == pytest.approx(
                t * alpha * lam ** (alpha - 1), rel=1e-14)

    def test_second_moment_exact(self):
        p = TssParams(0.7, 1.0)
        assert tss_moment(p, 10.0, 2.0) == pytest.approx(49.0 + 2.1, rel=1e-12)

    @pytest.mark.parametrize("key", sorted(IG_MOMENTS))
    def test_fractional_against_bessel_closed_form(self, key):
        lam, t, q = key
        value = tss_moment(TssParams(0.5, lam), t, q)
        assert value == pytest.approx(IG_MOMENTS[key], rel=1e-9)

    def test_asymptotic_ratio_series(self):
        spec = SubordinatorSpec.tss(0.7, 1.0)
        for q in (1.1, 1.6):
            ratios = [tss_moment(spec.params, t, q) / subordinator_moment_asymptotic(spec, t, q)
                      for t in (10.0, 100.0, 1000.0, 10000.0)]
            gaps = [abs(r - 1.0) for r in ratios]
            assert gaps[-1] < 0.05
            assert gaps[-3] > gaps[-2] > gaps[-1]

    def test_asymptotic_ratio_q08(self):
        spec = SubordinatorSpec.tss(0.5, 2.0)
        ratio = (tss_moment(spec.params, 1000.0, 0.8)
                 / subordinator_moment_asymptotic(spec, 1000.0, 0.8))
        assert abs(ratio - 1.0) < 0.05

    def test_asymptotic_ratio_q14_large_t(self):
        spec = SubordinatorSpec.tss(0.7, 1.0)
        ratio = tss_moment(spec.params, 1e4, 1.4) / subordinator_moment_asymptotic(spec, 1e4, 1.4)
        assert abs(ratio - 1.0) < 0.02

    def test_asymptotic_value(self):
        assert subordinator_moment_asymptotic(SubordinatorSpec.tss(0.7, 1.0), 10.0, 1.0) == \
            pytest.approx(7.0, rel=1e-14)

    def test_quadrature_near_integers_continuous(self):
        p = TssParams(0.7, 1.0)
        m1 = tss_mean(p, 10.0)
        m2 = m1 ** 2 + tss_variance(p, 10.0)
        assert tss_moment(p, 10.0, 1.0 - 1e-6) == pytest.approx(m1, rel=1e-5)
        assert tss_moment(p, 10.0, 1.0 + 1e-6) == pytest.approx(m1, rel=1e-5)
        assert tss_moment(p, 10.0, 2.0 - 1e-6) == pytest.approx(m2, rel=1e-5)

    def test_domain(self):
        p = TssParams(0.5, 1.0)
        with pytest.raises(ValueError):
            tss_moment(p, 0.0, 1.0)
        with pytest.raises(ValueError):
            tss_moment(p, 1.0, 2.5)
        with pytest.raises(ValueError):
            tss_moment(p, 1.0, 0.0)

    def test_quadrature_failure_surfaces(self, monkeypatch):
        def bad_quad(*args, **kwargs):
            return 1.0, 1.0  # enormous reported error

        monkeypatch.setattr(scipy.integrate, "quad", bad_quad)
        with pytest.raises(QuadratureError):
            tss_moment(TssParams(0.5, 1.0), 1.0, 0.6)


class TestDispatchAndConsistency:
    def test_dispatch(self):
        g = SubordinatorSpec.gamma(2.0)
        t_spec = SubordinatorSpec.tss(0.5, 1.0)
        assert subordinator_moment(g, 3.0, 1.0) == gamma_moment(g.params, 3.0, 1.0)
        assert subordinator_moment(t_spec, 3.0, 1.0) == tss_moment(t_spec.params, 3.0, 1.0)
        # mean clock rates 1/nu and alpha*lam**(alpha-1) = 0.5 here
        assert g.rate == 0.5 and t_spec.rate == 0.5
        for spec in (g, t_spec):
            assert subordinator_moment_asymptotic(spec, 3.0, 1.5) == \
                pytest.approx(1.5 ** 1.5, rel=1e-14)
        with pytest.raises(ValueError):
            subordinator_moment_asymptotic(g, 0.0, 1.5)

    @pytest.mark.parametrize("spec", [SubordinatorSpec.gamma(1.0),
                                      SubordinatorSpec.tss(0.7, 1.0)])
    def test_moment_increasing_in_t(self, spec):
        for q in (0.6, 1.3):
            values = [subordinator_moment(spec, t, q)
                      for t in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0)]
            assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("spec,sid", [(SubordinatorSpec.gamma(1.0), 0),
                                          (SubordinatorSpec.tss(0.7, 1.0), 1)])
    @pytest.mark.parametrize("q", [0.6, 1.0, 1.6])
    def test_mc_moment_consistency(self, spec, sid, q):
        n = 100_000
        t = 10.0
        draws = sample_increment(spec, t, derive_stream(13, sid), size=n)
        powered = draws ** q
        assert mean_z(powered, subordinator_moment(spec, t, q)) < 3.0
