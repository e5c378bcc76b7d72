"""Stream determinism, independence, and sampler distribution checks."""

import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gmfbm import randkit
from gmfbm.randkit import (
    _SUBSTEP_LIMIT,
    _accept_in_trial_order,
    _log_stable_unit,
    _tempered_by_thinning,
    _tilted_stable_double_rejection,
    _zolotarev_log_b,
    derive_stream,
    derive_substream,
    sample_gamma,
    sample_tempered_stable_increment,
    tempered_stable_substep_count,
)
from gmfbm.selftest import mean_z
from gmfbm.subordinators import TssParams, tss_moment

N_BIG = 100_000
N_MED = 10_000


def tss_laplace(alpha, lam, dt, u):
    return math.exp(-dt * ((lam + u) ** alpha - lam ** alpha))


class TestStreams:
    def test_same_key_same_draws(self):
        a = derive_stream(1, 0).gen.standard_normal(100)
        b = derive_stream(1, 0).gen.standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_scalar_and_vector_draws_agree_on_bitstream(self):
        s1 = derive_stream(5, 9)
        s2 = derive_stream(5, 9)
        vec = s1.gen.standard_normal(4)
        scalars = [s2.gen.standard_normal() for _ in range(4)]
        np.testing.assert_array_equal(vec, scalars)

    def test_seed_sensitivity(self):
        def first(seed, sid):
            return derive_stream(seed, sid).gen.standard_normal()

        assert first(1, 0) != first(2, 0)
        assert first(1, 0) != first(1, 1)

    def test_distinct_streams_uncorrelated(self):
        a = derive_stream(1, 0).gen.standard_normal(N_MED)
        b = derive_stream(1, 1).gen.standard_normal(N_MED)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_gapped_stream_ids_uncorrelated(self):
        a = derive_stream(3, 17).gen.standard_normal(N_MED)
        b = derive_stream(3, 2**63 + 12345).gen.standard_normal(N_MED)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_substream_independent_of_parent_consumption(self):
        parent = derive_stream(11, 4)
        parent.gen.standard_normal(50)
        child_after = derive_substream(parent, 0).gen.standard_normal(20)
        child_fresh = derive_substream(derive_stream(11, 4), 0).gen.standard_normal(20)
        np.testing.assert_array_equal(child_after, child_fresh)

    def test_substreams_distinct(self):
        parent = derive_stream(11, 4)
        a = derive_substream(parent, 0).gen.standard_normal(N_MED)
        b = derive_substream(parent, 1).gen.standard_normal(N_MED)
        c = parent.gen.standard_normal(N_MED)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
        assert abs(np.corrcoef(a, c)[0, 1]) < 0.05

    def test_nested_substreams(self):
        child = derive_substream(derive_stream(1, 2), 3)
        grand = derive_substream(child, 0)
        assert grand.gen.standard_normal() != child.gen.standard_normal()
        with pytest.raises(ValueError):
            derive_substream(derive_substream(grand, 1), 0)

    def test_key_domain_errors(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 1 << 64)

    def test_words_consumed_counts_philox_words(self):
        # one 64-bit word per uniform, on root streams and substreams alike
        root = derive_stream(0, 0)
        root.gen.random(10)
        assert root.words_consumed == 10
        lane = derive_substream(derive_stream(0, 1), 3)
        lane.gen.random(10)
        assert lane.words_consumed == 10
        # double rejection makes several trials of several words per draw
        dbl = derive_stream(0, 2)
        assert tempered_stable_substep_count(0.7, 1.0, 1e4) > _SUBSTEP_LIMIT
        sample_tempered_stable_increment(dbl, 0.7, 1.0, 1e4, size=1000)
        assert dbl.words_consumed > 1000

    @given(seed=st.integers(0, 2**64 - 1), sid=st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_derivation_reproducible(self, seed, sid):
        assert derive_stream(seed, sid).gen.standard_normal() == \
            derive_stream(seed, sid).gen.standard_normal()


class TestGamma:
    @pytest.mark.parametrize("shape,tol", [(1.0, 0.01), (2.0, 0.014), (0.3, 0.006)])
    def test_mean(self, shape, tol):
        draws = sample_gamma(derive_stream(7, int(shape * 10)), shape, size=N_BIG)
        assert abs(draws.mean() - shape) < tol

    def test_laplace_transform_shape_one(self):
        # E[exp(-u G)] = 1/(1+u) for shape 1, u in {0.5, 1, 2} at n=1e5
        draws = sample_gamma(derive_stream(7, 100), 1.0, size=N_BIG)
        for u in (0.5, 1.0, 2.0):
            emp = np.exp(-u * draws)
            assert mean_z(emp, 1.0 / (1.0 + u)) < 3.0

    def test_small_shape_distribution(self):
        draws = sample_gamma(derive_stream(7, 99), 0.3, size=N_BIG)
        stat = stats.kstest(draws, "gamma", args=(0.3,)).statistic
        assert stat < 1.63 / math.sqrt(N_BIG)

    def test_positive(self):
        draws = sample_gamma(derive_stream(7, 5), 0.5, size=N_MED)
        assert np.all(draws > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_gamma(derive_stream(0, 0), 0.0, size=1)
        with pytest.raises(ValueError):
            sample_gamma(derive_stream(0, 0), -1.0, size=1)


class TestStable:
    # Kanter's positive stable law, the proposal of the thinning sampler:
    # scale**(1/alpha) times a unit draw has transform exp(-scale * u**alpha)
    @pytest.mark.parametrize("alpha,scale,u", [(0.5, 1.0, 1.0), (0.7, 2.0, 1.0)])
    def test_laplace_transform(self, alpha, scale, u):
        draws = scale ** (1.0 / alpha) * np.exp(_log_stable_unit(
            derive_stream(31, int(alpha * 10)).gen, alpha, N_BIG))
        emp = np.exp(-u * draws)
        target = math.exp(-scale * u ** alpha)
        assert mean_z(emp, target) < 3.0

    def test_positive(self):
        draws = np.exp(_log_stable_unit(derive_stream(31, 3).gen, 0.4, N_MED))
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_matches_kanter_sine_powers(self, alpha):
        # Kanter's formula as he wrote it, from the same angle and
        # exponential draws: S = sin(alpha V) sin((1-alpha) V)**((1-alpha)/alpha)
        # / (sin(V)**(1/alpha) E**((1-alpha)/alpha)), V ~ Uniform(0, pi)
        gen = derive_stream(37, 1).gen
        v = math.pi * gen.random(N_MED)
        e = gen.standard_exponential(N_MED)
        frac = (1.0 - alpha) / alpha
        kanter = (np.sin(alpha * v) * np.sin((1.0 - alpha) * v) ** frac
                  / (np.sin(v) ** (1.0 / alpha) * e ** frac))
        draws = np.exp(_log_stable_unit(derive_stream(37, 1).gen, alpha, N_MED))
        np.testing.assert_allclose(draws, kanter, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_zero_angle_is_the_finite_limit(self, alpha):
        # at V = 0, A(0) = C = alpha**alpha (1-alpha)**(1-alpha) exactly
        e = np.array([0.25, 1.0, 3.0])

        class ZeroAngle:
            def random(self, n):
                return np.zeros(n)

            def standard_exponential(self, n):
                return e[:n].copy()

        c = alpha ** alpha * (1.0 - alpha) ** (1.0 - alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = np.exp(_log_stable_unit(ZeroAngle(), alpha, e.size))
        np.testing.assert_allclose(draws, c ** (1.0 / alpha) * e ** (-(1.0 - alpha) / alpha),
                                   rtol=1e-13, atol=0.0)


class TestTemperedStable:
    def test_mean_and_variance(self):
        alpha, lam, dt = 0.7, 1.0, 10.0
        draws = sample_tempered_stable_increment(derive_stream(41, 0), alpha, lam, dt,
                                                 size=N_BIG)
        mean = alpha * lam ** (alpha - 1) * dt
        var = dt * alpha * (1 - alpha) * lam ** (alpha - 2)
        assert mean_z(draws, mean) < 3.0
        sq = (draws - draws.mean()) ** 2
        se_var = sq.std(ddof=1) / math.sqrt(N_BIG)
        assert abs(draws.var(ddof=1) - var) < 3.0 * se_var

    @pytest.mark.parametrize("alpha,lam,dt,u", [
        (0.5, 1.0, 1.0, 1.0),   # thinning regime
        (0.7, 1.0, 10.0, 0.5),  # thinning regime, several substeps
        (0.7, 1.0, 50.0, 0.05),  # double-rejection regime
        # weak tempering, where nearly every Kanter proposal is accepted (dt
        # keys the stream, so it differs from the cases above)
        (0.6, 1e-6, 2.0, 1.0),
        (0.6, 1e-3, 3.0, 2.0),
    ])
    def test_laplace_transform(self, alpha, lam, dt, u):
        draws = sample_tempered_stable_increment(
            derive_stream(43, int(dt)), alpha, lam, dt, size=N_BIG)
        emp = np.exp(-u * draws)
        target = tss_laplace(alpha, lam, dt, u)
        assert mean_z(emp, target) < 3.0

    def test_laplace_grid_per_spec(self):
        # u in {0.5, 1, 2} at n=1e5, both regimes
        for dt, sid in ((1.0, 1), (30.0, 2)):
            draws = sample_tempered_stable_increment(derive_stream(44, sid), 0.6, 1.0,
                                                     dt, size=N_BIG)
            for u in (0.5, 1.0, 2.0):
                emp = np.exp(-u * draws)
                target = tss_laplace(0.6, 1.0, dt, u)
                assert mean_z(emp, target) < 3.0

    def test_regimes_match_distribution(self):
        # thinning vs double rejection at the same law, just below, at and
        # just above the switch: two-sample KS with each sampler forced, at a
        # family-wise level of 1% over the three comparisons
        alpha, lam = 0.7, 1.0
        for n_target in (_SUBSTEP_LIMIT - 1, _SUBSTEP_LIMIT, _SUBSTEP_LIMIT + 1):
            dt = (n_target - 1e-3) * math.log(2.0) / lam ** alpha
            n_sub = tempered_stable_substep_count(alpha, lam, dt)
            assert n_sub == n_target
            thin = _tempered_by_thinning(derive_stream(45, n_sub).gen, alpha, lam,
                                         dt, N_BIG, n_sub)
            log_scale = math.log(dt) / alpha
            dbl = np.exp(log_scale + _tilted_stable_double_rejection(
                derive_stream(45, 100 + n_sub).gen, alpha, math.log(lam) + log_scale, N_BIG))
            assert stats.ks_2samp(thin, dbl).pvalue > 0.01 / 3

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_double_rejection_trials_per_draw_bounded(self, alpha, monkeypatch):
        # Devroye's O(1) claim: the mean number of trials per accepted draw
        # stays bounded uniformly in the tilt.  The trial function the
        # sampler hands to the fill loop runs 20000 trials at each span,
        # from just above the switch point to dt = 1e6 (lam = 1).  The
        # count peaks near gam = lam**alpha alpha (1-alpha) just below 1, at
        # about 7.4, and settles near 1.83 for large spans
        captured = []

        def capture(trials, n, k):
            captured.append(trials)
            return np.zeros(n)

        monkeypatch.setattr(randkit, "_accept_in_trial_order", capture)
        k = 20_000
        for i, dt in enumerate([(_SUBSTEP_LIMIT + 1 - 1e-3) * math.log(2.0),
                                10.0, 1e2, 1e4, 1e6]):
            assert tempered_stable_substep_count(alpha, 1.0, dt) > _SUBSTEP_LIMIT
            gen = derive_stream(51, int(100 * alpha) * 10 + i).gen
            _tilted_stable_double_rejection(gen, alpha, math.log(dt) / alpha, 1)
            trials_per_draw = k / captured[-1](k).size
            assert trials_per_draw < (8.0 if dt <= 10.0 else 2.2)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_zolotarev_b_and_a_match_sinc_forms(self, alpha):
        # the kernel's B(u) from three sines, and A = C / B with C =
        # alpha**alpha (1-alpha)**(1-alpha), against the textbook sinc forms
        def sinc(x):
            return np.sin(x) / np.where(x == 0.0, 1.0, x) + (x == 0.0)

        u = np.array([0.0, 1e-9, 0.3, 1.0, 2.0, 3.0, 3.14, np.nextafter(math.pi, 0.0)])
        beta = 1.0 - alpha
        b_text = sinc(u) / (sinc(alpha * u) ** alpha * sinc(beta * u) ** beta)
        a_text = (beta * sinc(beta * u)) ** beta * (alpha * sinc(alpha * u)) ** alpha / sinc(u)
        log_b = _zolotarev_log_b(u, alpha)
        assert log_b[0] == 0.0
        np.testing.assert_allclose(np.exp(log_b), b_text, rtol=1e-13, atol=0.0)
        c = alpha ** alpha * beta ** beta
        np.testing.assert_allclose(np.exp(math.log(c) - log_b), a_text, rtol=1e-13, atol=0.0)

    def test_fill_refills_in_trial_order(self):
        # trials numbered 0, 1, 2, ... of which every third is accepted: the
        # first rounds come up short, and the refills must continue the
        # sequence, so the output is the first ten accepted trials in order
        counter = iter(range(10 ** 6))

        def trials(k):
            x = np.array([next(counter) for _ in range(k)], dtype=float)
            return x[x % 3 == 0]

        np.testing.assert_array_equal(_accept_in_trial_order(trials, 10, 4),
                                      3.0 * np.arange(10))

    def test_single_draws_match_vector_draw(self):
        # size=1 runs the thinning fill loop on one increment of 3 substeps
        # per call, so some calls take its refill round; two-sample KS
        # against a vector draw of the same law
        alpha, lam, dt = 0.7, 1.0, 2.0
        assert tempered_stable_substep_count(alpha, lam, dt) <= _SUBSTEP_LIMIT
        stream = derive_stream(49, 0)
        single = [sample_tempered_stable_increment(stream, alpha, lam, dt, size=1)[0]
                  for _ in range(20_000)]
        vector = sample_tempered_stable_increment(derive_stream(49, 1), alpha, lam, dt,
                                                  size=N_BIG)
        assert stats.ks_2samp(single, vector).pvalue > 0.01

    @pytest.mark.parametrize("lam,dt", [(1e-6, 1.0), (1.0, math.log(2.0))],
                             ids=["weak", "strong"])
    def test_thinning_trials_per_substep(self, lam, dt):
        # one substep per draw, accepted with probability p ~ 1 (weak
        # tempering) or p = 1/2 (strong).  A trial takes three words, a
        # uniform and two exponentials (more on a rare ziggurat retry), and
        # the batch holds at least m/p trials: the mean trial count per
        # substep lies in [1/p, 1/p + 1)
        alpha = 0.7
        assert tempered_stable_substep_count(alpha, lam, dt) == 1
        p = math.exp(-dt * lam ** alpha)
        stream = derive_stream(50, int(lam))
        sample_tempered_stable_increment(stream, alpha, lam, dt, size=N_MED)
        trials_per_substep = stream.words_consumed / 3 / N_MED
        assert 1.0 / p <= trials_per_substep < 1.0 / p + 1.0

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.7, 0.99])
    @pytest.mark.parametrize("lam", [1e-4, 1.0, 100.0])
    def test_regime_sweep_finite_positive(self, alpha, lam):
        # substep counts from 1 to 10**6 cover both samplers, and a span with
        # lam**alpha dt = 1e40 a tilt where 1 - exp(t) in double rejection's
        # z would cancel to 0; no draw may be zero, infinite or NaN, and no
        # floating-point warning may fire.  At 1e40 the law is concentrated
        # (relative sd below 1e-19), so the mean is kappa_1 dt to rounding
        sid = int(alpha * 100) * 10 + int(math.log10(lam)) + 4
        stream = derive_stream(48, sid)
        for n_target in (1, _SUBSTEP_LIMIT, _SUBSTEP_LIMIT + 1, 10 ** 6, 1e40):
            dt = (n_target - 1e-3) * math.log(2.0) / lam ** alpha
            n_sub = tempered_stable_substep_count(alpha, lam, dt)
            assert n_sub == n_target if n_target < 1e40 else n_sub > 1e39
            with warnings.catch_warnings(), \
                    np.errstate(divide="warn", over="warn", invalid="warn"):
                warnings.simplefilter("error")
                draws = sample_tempered_stable_increment(stream, alpha, lam, dt,
                                                         size=2000)
            assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)
        mean = alpha * lam ** (alpha - 1.0) * dt
        assert abs(draws.mean() / mean - 1.0) < 1e-12

    EDGES = [(0.9995, 1.0, 10.0), (0.9999, 1.0, 10.0), (0.99999, 1.0, 100.0),
             (0.002, 1.0, 0.01), (0.005, 1.0, 0.1),
             (0.002, 1.0, 9.0), (0.002, 1.0, 100.0), (0.005, 1.0, 50.0)]

    def test_alpha_edges_keep_the_law(self):
        # near alpha = 1 double rejection's a overflows and its mode m
        # underflows; near alpha = 0 each Kanter proposal overflows while
        # dt'**(1/alpha) underflows, and above the switch (the last three
        # spans) double rejection's scale dt**(1/alpha) and tilt leave the
        # float range.  E[X**q] against the quadrature at q = 1/2 and 1, at a
        # family-wise level of 1e-4 over all the tests, with no
        # floating-point warning.  At alpha = 0.002, dt = 0.01 about 97% of
        # the draws are 0: the law's mass below the smallest double
        z_max = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * 2 * len(self.EDGES)))
        for i, (alpha, lam, dt) in enumerate(self.EDGES):
            with warnings.catch_warnings(), \
                    np.errstate(divide="warn", over="warn", invalid="warn"):
                warnings.simplefilter("error")
                draws = sample_tempered_stable_increment(derive_stream(53, i), alpha, lam, dt,
                                                         size=500_000)
            for q in (0.5, 1.0):
                z = mean_z(draws ** q, tss_moment(TssParams(alpha, lam), dt, q))
                assert z < z_max, (alpha, lam, dt, q, z)

    @pytest.mark.parametrize("dt", [10.0, np.float64(10.0)], ids=["float", "float64"])
    def test_tilt_beyond_the_float_range_keeps_the_law(self, dt):
        # dt**(1/alpha) = 10**500 overflows a Python float by itself, and a
        # float64 to inf; the draw is one exp of a log sum, so both float
        # types draw the same law: the same draws as a Python float dt, and
        # E[X**q] against the quadrature at q = 1/2 and 1, at a family-wise
        # level of 1e-4 over both float types
        alpha, lam = 0.002, 1.0
        np.testing.assert_array_equal(
            sample_tempered_stable_increment(derive_stream(54, 2), alpha, lam, dt, size=1000),
            sample_tempered_stable_increment(derive_stream(54, 2), alpha, lam, 10.0, size=1000))
        draws = sample_tempered_stable_increment(derive_stream(54, 0), alpha, lam, dt,
                                                 size=500_000)
        z_max = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * 2 * 2))
        for q in (0.5, 1.0):
            z = mean_z(draws ** q, tss_moment(TssParams(alpha, lam), 10.0, q))
            assert z < z_max, (q, z)

    def test_scale_beyond_the_float_range_draws_the_mean(self):
        # dt**(1/alpha) = 1e310 is beyond the float range though the tilt
        # lam dt**(1/alpha) = 1e300 is not; the law is concentrated at
        # kappa_1 dt = alpha lam**(alpha-1) dt = 5e159 (relative sd 1e-75)
        alpha, lam, dt = 0.5, 1e-10, 1e155
        draws = sample_tempered_stable_increment(derive_stream(54, 1), alpha, lam, dt,
                                                 size=2000)
        assert np.all(np.isfinite(draws))
        mean = alpha * lam ** (alpha - 1.0) * dt
        assert abs(draws.mean() / mean - 1.0) < 1e-12

    def test_positive(self):
        draws = sample_tempered_stable_increment(derive_stream(47, 0), 0.5, 2.0, 0.3,
                                                 size=N_MED)
        assert np.all(draws > 0.0)

    def test_domain(self):
        s = derive_stream(0, 0)
        with pytest.raises(ValueError):
            sample_tempered_stable_increment(s, 1.2, 1.0, 1.0, size=1)
        with pytest.raises(ValueError):
            sample_tempered_stable_increment(s, 0.5, -1.0, 1.0, size=1)
        with pytest.raises(ValueError):
            sample_tempered_stable_increment(s, 0.5, 1.0, 0.0, size=1)

    def test_substep_count_bound(self):
        # dt' * lam**alpha <= ln 2 guarantees substep acceptance >= 1/2
        for alpha, lam, dt in [(0.7, 1.0, 10.0), (0.3, 2.0, 5.0), (0.9, 0.1, 100.0)]:
            n_sub = tempered_stable_substep_count(alpha, lam, dt)
            assert (dt / n_sub) * lam ** alpha <= math.log(2.0) + 1e-12
