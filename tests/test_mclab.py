"""Monte Carlo estimators, decay fitting, and the LRD report."""

import json
import math
from dataclasses import asdict
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from gmfbm import process, theory
from gmfbm.mclab import (
    DecayFit,
    MomentEstimate,
    _sample_pairs,
    _second_moments,
    corr_curve_oracle,
    estimate_corr,
    estimate_cov,
    estimate_increment_sm,
    fit_decay,
    lrd_report,
)
from gmfbm.process import (
    CancellationError,
    GmfbmParams,
    TimeChangedSpec,
    exact_cov_oracle,
    exact_increment_second_moment,
    exact_var_oracle,
    sample_timechanged_pair,
)
from gmfbm.randkit import derive_stream, path_blocks
from gmfbm.subordinators import SubordinatorSpec, subordinator_moment

MIX = GmfbmParams(1.0, 1.0, 0.55, 0.8)
TSS_SPEC = TimeChangedSpec(MIX, SubordinatorSpec.tss(0.7, 1.0))
GAMMA_SPEC = TimeChangedSpec(MIX, SubordinatorSpec.gamma(1.0))
N_UNIT = 20_000
# family-wise error of the per-point z tests over a grid
FAMILY_ALPHA = 1e-4


def corr_errors(ys, yt, slope_weights=None):
    # the correlation part of the one reduction, as arrays, on the grid
    # times 1, 2, ... (which only name a row in an error)
    _, corr, _, slope_stderr = _second_moments(ys, yt, np.arange(1.0, len(ys) + 1.0),
                                               slope_weights)
    return (np.array([e.value for e in corr]), np.array([e.stderr for e in corr]),
            slope_stderr)


class TestTypes:
    def test_moment_estimate_invariants(self):
        with pytest.raises(ValueError):
            MomentEstimate(1.0, -0.1)

    def test_decay_fit_invariants(self):
        with pytest.raises(ValueError):
            DecayFit(-0.2, 0.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            DecayFit(-0.2, 0.0, 0.1, 1.4)


class TestEstimateCov:
    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_matches_oracle(self, spec):
        est = estimate_cov(spec, 1.0, 10.0, N_UNIT, 101)
        oracle = exact_cov_oracle(spec, 1.0, 10.0)
        assert abs(est.value - oracle) < 3.0 * est.stderr

    @pytest.mark.parametrize("estimator,target", [
        (estimate_cov, exact_cov_oracle(GAMMA_SPEC, 1.0, 5.0)),
        (estimate_corr, exact_cov_oracle(GAMMA_SPEC, 1.0, 5.0) / math.sqrt(
            exact_var_oracle(GAMMA_SPEC, 1.0) * exact_var_oracle(GAMMA_SPEC, 5.0))),
        (estimate_increment_sm, exact_increment_second_moment(GAMMA_SPEC, 1.0, 5.0)),
    ], ids=["estimate_cov", "estimate_corr", "estimate_increment_sm"])
    def test_coverage_over_repeated_seeds(self, estimator, target):
        # |estimate - oracle| < 3 stderr in at least 95 of 100 seeded trials
        hits = 0
        for trial in range(100):
            est = estimator(GAMMA_SPEC, 1.0, 5.0, 2000, 5000 + trial)
            hits += abs(est.value - target) < 3.0 * est.stderr
        assert hits >= 95

    def test_clt_scaling(self):
        # doubling the path count shrinks stderr by about 1/sqrt(2)
        ratios = []
        for seed in range(8):
            small = estimate_cov(GAMMA_SPEC, 1.0, 5.0, 4000, 300 + seed)
            big = estimate_cov(GAMMA_SPEC, 1.0, 5.0, 8000, 300 + seed)
            ratios.append(big.stderr / small.stderr)
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)

    def test_seed_determinism(self):
        kwargs = dict(spec=GAMMA_SPEC, s=1.0, t=5.0, n_paths=3000, master_seed=77)
        assert estimate_cov(**kwargs) == estimate_cov(**kwargs)

    def test_argument_domains(self):
        with pytest.raises(ValueError):
            estimate_cov(GAMMA_SPEC, 2.0, 1.0, 1000, 0)
        with pytest.raises(ValueError):
            estimate_cov(GAMMA_SPEC, 1.0, 2.0, 99, 0)


def corr_oracle(spec, s, t):
    return corr_curve_oracle(spec, s, [t])[0][1]


class TestGridEstimates:
    # every estimator takes one time or an increasing grid above s
    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    @pytest.mark.parametrize("estimator, oracle", [
        (estimate_cov, exact_cov_oracle),
        (estimate_corr, corr_oracle),
        (estimate_increment_sm, exact_increment_second_moment),
    ], ids=["estimate_cov", "estimate_corr", "estimate_increment_sm"])
    def test_every_point_within_family_z_bound(self, estimator, oracle, spec):
        grid = np.geomspace(2.0, 200.0, 12)
        curve = estimator(spec, 1.0, grid, N_UNIT, 110)
        bound = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * len(grid)))
        assert bound < 4.46
        assert len(curve) == len(grid)
        for t, est in zip(grid.tolist(), curve):
            assert abs(est.value - oracle(spec, 1.0, t)) < bound * est.stderr, f"t={t:g}"

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_single_time_is_estimate_cov(self, spec):
        # one time, as a float, np.float64 or 0-d array, gives one estimate:
        # the only entry of the one-point grid's list
        for estimator in (estimate_cov, estimate_corr, estimate_increment_sm):
            one = estimator(spec, 1.0, 10.0, 3000, 111)
            assert isinstance(one, MomentEstimate)
            assert estimator(spec, 1.0, [10.0], 3000, 111) == [one]
            for t in (np.float64(10.0), np.array(10.0)):
                assert estimator(spec, 1.0, t, 3000, 111) == one
        # reference: one block of paths reduced as a flat sample, bit for bit
        n = 1000
        ys, yt = sample_timechanged_pair(spec, 1.0, [10.0], derive_stream(111, 0), size=n)
        ys, yt = ys[:, 0], yt[:, 0]
        dev = (ys - ys.mean()) * (yt - yt.mean())
        assert estimate_cov(spec, 1.0, 10.0, n, 111) == MomentEstimate(
            float(dev.sum() / (n - 1)), float(dev.std(ddof=1) / math.sqrt(n)))

    def test_rerun_determinism(self):
        grid = np.geomspace(2.0, 50.0, 5)
        assert estimate_cov(TSS_SPEC, 1.0, grid, 2500, 112) == \
            estimate_cov(TSS_SPEC, 1.0, grid, 2500, 112)

    def test_unsorted_grid_with_repeat(self):
        # the grid is increasing, as the pair sampler checks
        for grid in ([8.0, 2.0, 30.0], [2.0, 8.0, 8.0, 30.0]):
            with pytest.raises(ValueError, match="increasing 1-d grid"):
                estimate_cov(GAMMA_SPEC, 1.0, grid, 1000, 113)

    def test_argument_domains(self):
        for grid in ([0.5, 2.0], [2.0, 1.0], [3.0, 1.0, 5.0], [], [[2.0, 3.0]]):
            with pytest.raises(ValueError):
                estimate_cov(GAMMA_SPEC, 1.0, grid, 1000, 0)
        with pytest.raises(ValueError):
            estimate_cov(GAMMA_SPEC, 1.0, [2.0, 3.0], 99, 0)

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_per_time_errors_calibrated_over_replicates(self, spec):
        # on criterion 7's grid, the spread of each statistic at each time
        # over 100 replicates of 1000 paths matches its mean reported
        # variance: the ratio is chi2_99 / 99 within a two-sided band at
        # family-wise level 1e-4 over 2 clocks x 3 statistics x 12 times.
        # (all 72 read 0.68-1.57).  The power is limited: the correlation's
        # error without its influence correction (the std of the
        # standardised products) still reads 0.67-1.18, inside the band
        grid = np.geomspace(100.0, 10000.0, 12)
        replicates, cells = 100, 2 * 3 * len(grid)
        draws = []
        for seed in range(4000, 4000 + replicates):
            ys, yt = _sample_pairs(spec, 1.0, grid, 1000, seed)
            draws.append([[(e.value, e.stderr) for e in stat]
                          for stat in _second_moments(ys, yt, grid)[:3]])
        value, stderr = np.moveaxis(np.array(draws), -1, 0)
        ratio = value.var(axis=0, ddof=1) / (stderr ** 2).mean(axis=0)
        dof = replicates - 1
        lo, hi = stats.chi2.ppf([0.5e-4 / cells, 1.0 - 0.5e-4 / cells], dof) / dof
        assert 0.45 < lo < hi < 1.85
        assert np.all((lo < ratio) & (ratio < hi)), ratio


class TestBlockLayout:
    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_blocks_draw_their_paths_in_block_order(self, spec):
        # block k draws paths [lo, hi) from the stream (seed, k); the
        # estimators reduce those draws concatenated in block order, bit for
        # bit.  2500 paths are three blocks, the last one short
        seed, n, grid = 114, 2500, np.geomspace(100.0, 1000.0, 5)
        blocks = path_blocks(seed, n)
        assert [(lo, hi) for _, lo, hi in blocks] == [(0, 1024), (1024, 2048), (2048, 2500)]
        draws = [sample_timechanged_pair(spec, 1.0, grid, stream, size=hi - lo)
                 for stream, lo, hi in blocks]
        # the (m, n) C-order rows the estimators reduce: a row sum's bits
        # depend on the memory layout
        ys = np.ascontiguousarray(np.vstack([y_s for y_s, _ in draws]).T)
        yt = np.ascontiguousarray(np.vstack([y_t for _, y_t in draws]).T)
        dev = (ys - ys.mean(axis=1, keepdims=True)) * (yt - yt.mean(axis=1, keepdims=True))
        assert estimate_cov(spec, 1.0, grid, n, seed) == [
            MomentEstimate(v, se) for v, se in zip((dev.sum(axis=1) / (n - 1)).tolist(),
                                                   (dev.std(axis=1, ddof=1) / math.sqrt(n)).tolist())]
        xc = np.log(grid) - np.log(grid).mean()
        corr, stderr, slope_stderr = corr_errors(ys, yt, xc / (xc @ xc))
        rep = lrd_report(spec, 1.0, grid, n, seed)
        assert (rep.mc_corr, rep.mc_stderr) == (tuple(corr.tolist()), tuple(stderr.tolist()))
        assert rep.mc_slope_paired_stderr == slope_stderr is not None
        assert rep.mc_fit == fit_decay(grid, corr)


class TestEstimateCorr:
    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_matches_oracle_ratio(self, spec):
        est = estimate_corr(spec, 1.0, 10.0, N_UNIT, 102)
        target = exact_cov_oracle(spec, 1.0, 10.0) / math.sqrt(
            exact_var_oracle(spec, 1.0) * exact_var_oracle(spec, 10.0))
        assert abs(est.value - target) < 3.0 * est.stderr

    def test_bounds(self):
        for seed in range(5):
            est = estimate_corr(GAMMA_SPEC, 1.0, 50.0, 500, seed)
            assert -1.0 <= est.value <= 1.0

    def test_self_correlation(self):
        # s == t is outside 0 < s < t, as for every estimator
        with pytest.raises(ValueError, match="need 0 < s < t"):
            estimate_corr(GAMMA_SPEC, 2.0, 2.0, 1000, 0)

    def test_bootstrap_stderr_sane(self):
        # bootstrap stderr should sit near the classical (1-rho^2)/sqrt(n)
        est = estimate_corr(GAMMA_SPEC, 1.0, 10.0, N_UNIT, 103)
        classical = (1.0 - est.value ** 2) / math.sqrt(N_UNIT)
        assert 0.5 * classical < est.stderr < 2.0 * classical

    def test_determinism(self):
        assert estimate_corr(TSS_SPEC, 1.0, 10.0, 2000, 9) == \
            estimate_corr(TSS_SPEC, 1.0, 10.0, 2000, 9)


class TestCorrErrors:
    SCALES = (1e-3, 1.0, 1e3, 1e6)
    RESAMPLES = 2000
    # 2000 resamples carry about 1.6% noise of their own in a standard error
    RATIO_BAND = (0.9, 1.1)

    @classmethod
    def columns(cls, n=2000):
        # one row pair per scale, heavy-tailed through a shared Gamma
        # variance mixture; the rows also share most of their noise, so
        # their correlations co-vary and the paired slope error is well
        # below the one that treats the rows as independent
        gen = derive_stream(31, 0).gen
        m = len(cls.SCALES)
        g = np.sqrt(gen.gamma(2.0, size=n))
        x = 2.0 + g * (gen.standard_normal(n) + 0.2 * gen.standard_normal((m, n)))
        weights = np.linspace(0.9, 0.3, m)[:, None]
        y = np.array(cls.SCALES)[:, None] * (
            3.0 + weights * x
            + g * (gen.standard_normal(n) + 0.2 * gen.standard_normal((m, n))))
        return x, y

    @staticmethod
    def plain_bootstrap(x, y, resamples):
        # reference: resample the paths by fancy indexing, one Pearson r per
        # resample and row, each resample shared by every row
        gen = derive_stream(41, 0).gen
        m, n = x.shape
        reps = np.empty((resamples, m))
        for r in range(resamples):
            idx = gen.integers(0, n, size=n)
            for j in range(m):
                xr = x[j, idx] - x[j, idx].mean()
                yr = y[j, idx] - y[j, idx].mean()
                reps[r, j] = xr @ yr / math.sqrt((xr @ xr) * (yr @ yr))
        return reps

    def test_exact_correlation(self):
        x, y = self.columns()
        corr, _, _ = corr_errors(x, y)
        for j in range(len(self.SCALES)):
            xc, yc = x[j] - x[j].mean(), y[j] - y[j].mean()
            assert corr[j] == pytest.approx(
                xc @ yc / math.sqrt((xc @ xc) * (yc @ yc)), rel=1e-10)

    def test_matches_plain_bootstrap(self):
        x, y = self.columns()
        log_t = np.log(np.geomspace(10.0, 1000.0, len(self.SCALES)))
        xc = log_t - log_t.mean()
        weights = xc / (xc @ xc)
        _, stderr, slope_stderr = corr_errors(x, y, weights)
        reps = self.plain_bootstrap(x, y, self.RESAMPLES)
        lo, hi = self.RATIO_BAND
        ratios = stderr / reps.std(axis=0, ddof=1)
        assert np.all((lo < ratios) & (ratios < hi)), ratios
        slope_ratio = slope_stderr / (np.log(reps) @ weights).std(ddof=1)
        assert lo < slope_ratio < hi

    def test_repeated_time_adds_its_weights(self):
        # lrd_report's paired error is the error of the OLS slope over the
        # grid's draws
        grid = np.array([100.0, 250.0, 800.0, 3000.0, 10000.0])
        rep = lrd_report(GAMMA_SPEC, 1.0, grid, 2000, 115)
        ys, yt = _sample_pairs(GAMMA_SPEC, 1.0, grid, 2000, 115)
        xc = np.log(grid) - np.log(grid).mean()
        _, _, expected = corr_errors(ys, yt, xc / (xc @ xc))
        assert rep.mc_slope_paired_stderr == pytest.approx(expected, rel=1e-12)

    def test_slope_stderr_needs_weights_and_positive_correlations(self):
        x, y = self.columns(n=500)
        weights = np.array([-0.5, -0.1, 0.1, 0.5])
        assert corr_errors(x, y)[2] is None
        assert corr_errors(x, y, weights)[2] > 0.0
        y[2] *= -1.0
        assert corr_errors(x, y, weights)[2] is None

    def test_constant_row_raises(self):
        # a row with zero sample variance has no correlation: it raises
        # before the division that would make it NaN
        x, y = self.columns(n=500)
        x[1] = 2.5
        with pytest.raises(ValueError, match=r"^Y_s is constant over 500 paths, "):
            corr_errors(x, y)
        x, y = self.columns(n=500)
        y[3] = 0.0
        with pytest.raises(ValueError, match=r"^Y_t is constant over 500 paths, "):
            corr_errors(x, y, np.array([-0.5, -0.1, 0.1, 0.5]))

    @pytest.mark.parametrize("scale, bad", [(1.0, np.nan), (1.0, np.inf), (1e160, 1.0)])
    def test_nonfinite_sample_variance_raises(self, scale, bad):
        # a row with a NaN or inf is not constant, and one near 1e160 squares
        # beyond the float range: each is named with its grid time (the
        # third), with no warning
        x, y = self.columns(n=500)
        y[2] *= scale
        y[2, 7] *= bad
        with pytest.raises(OverflowError, match=r"^the Monte Carlo sample variance of Y_t "
                                                r"at t = 3 is beyond the float range$"):
            corr_errors(x, y)

    def test_constant_clock_raises(self):
        # at nu = 1e9 every Gamma clock draw up to t = 10 underflows to 0,
        # so Y_s is 0 on every path
        # so Y_s is 0 on every path; every estimator shares the rule, the
        # covariance too, whose 0 with a stderr of 0 would measure nothing
        spec = TimeChangedSpec(MIX, SubordinatorSpec.gamma(1e9))
        for estimator in (estimate_corr, estimate_cov, estimate_increment_sm):
            with pytest.raises(ValueError, match=r"^Y_s is constant over 200 paths, "):
                estimator(spec, 1.0, 10.0, 200, 3)
        with pytest.raises(ValueError, match=r"^Y_s is constant over 200 paths, "):
            estimate_cov(spec, 1.0, [10.0, 20.0], 200, 3)

    def test_covariance_beyond_the_float_range_raises(self):
        # at nu = 1e-190 the clock reaches 1e192 and Y_t about 1e154: its
        # squares, and the centered products', are beyond the float range
        spec = TimeChangedSpec(MIX, SubordinatorSpec.gamma(1e-190))
        with pytest.raises(OverflowError, match=r"^the Monte Carlo sample variance of Y_t "
                                                r"at t = 100 is beyond the float range$"):
            estimate_cov(spec, 1.0, [100.0, 200.0], 200, 3)

    @pytest.mark.parametrize("row, flip, name", [
        (1e152 * derive_stream(33, 0).gen.standard_normal(500), 1.0,
         "covariance or its stderr"),
        (2.0 ** 507 * np.resize([1.0, -1.0], 500), -1.0,
         r"mean of \(Y_t - Y_s\)\*\*2 or its stderr"),
    ], ids=["covariance", "increment"])
    def test_finite_variances_with_an_overflowing_statistic_raise(self, row, flip, name):
        # each row's sample variance is finite (about 1e304 and 2**1014), but
        # with Y_t = Y_s the centered products square beyond the float
        # range, and with Y_t = -Y_s = +-2**507 the products are exactly
        # constant while the sum of (Y_t - Y_s)**2 = 2**1016 over 500 paths
        # is not finite
        x = np.ones((3, 500))
        x[1] = row
        with pytest.raises(OverflowError, match=rf"^the Monte Carlo {name} at t = 2 is "
                                                r"beyond the float range$"):
            corr_errors(x, flip * x)

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_estimate_corr_is_one_time_case(self, spec):
        ys, yt = _sample_pairs(spec, 1.0, [10.0], 3000, 114)
        corr, stderr, _ = corr_errors(ys, yt)
        assert estimate_corr(spec, 1.0, 10.0, 3000, 114) == MomentEstimate(
            float(corr[0]), float(stderr[0]))
        # reference: one block of pairs reduced as a flat sample, bit for bit
        n = 1000
        ys, yt = sample_timechanged_pair(spec, 1.0, [10.0], derive_stream(114, 0), size=n)
        corr, stderr, _ = corr_errors(ys.T, yt.T)
        assert estimate_corr(spec, 1.0, 10.0, n, 114) == MomentEstimate(
            float(corr[0]), float(stderr[0]))


class TestEstimateIncrementSm:
    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_matches_oracle(self, spec):
        est = estimate_increment_sm(spec, 1.0, 10.0, N_UNIT, 104)
        oracle = exact_increment_second_moment(spec, 1.0, 10.0)
        assert abs(est.value - oracle) < 3.0 * est.stderr

    def test_nonnegative(self):
        for seed in range(5):
            assert estimate_increment_sm(GAMMA_SPEC, 1.0, 2.0, 500, seed).value >= 0.0

    def test_grows_with_gap(self):
        values = [estimate_increment_sm(GAMMA_SPEC, 1.0, 1.0 + gap, 5000, 105).value
                  for gap in (1.0, 4.0, 16.0)]
        assert values[0] < values[1] < values[2]


class TestCorrCurveOracle:
    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_values_in_unit_interval_and_decreasing(self, spec):
        curve = corr_curve_oracle(spec, 1.0, np.geomspace(10.0, 10000.0, 10))
        corrs = [c for _, c in curve]
        assert all(0.0 < c < 1.0 for c in corrs)
        assert all(b < a for a, b in zip(corrs, corrs[1:]))

    def test_brownian_gamma_closed_form(self):
        spec = TimeChangedSpec(GmfbmParams(1.0, 1.0, 0.5, 0.5),
                               SubordinatorSpec.gamma(1.0))
        s = 2.0
        curve = corr_curve_oracle(spec, s, [8.0, 18.0, 50.0])
        for t, corr in curve:
            assert corr == pytest.approx(math.sqrt(s / t), abs=1e-10)

    def test_grid_must_exceed_s(self):
        with pytest.raises(ValueError):
            corr_curve_oracle(GAMMA_SPEC, 5.0, [4.0, 10.0])

    def test_empty_grid_raises(self):
        # an empty grid has no time above s: its own message, not []
        with pytest.raises(ValueError, match=r"^need s > 0 and a nonempty 1-d grid"):
            corr_curve_oracle(GAMMA_SPEC, 1.0, [])

    def test_two_dimensional_grid_raises(self):
        # its own message, as exact_cov_oracle, not numpy's concatenate error
        with pytest.raises(ValueError, match=r"^need s > 0 and a nonempty 1-d grid"):
            corr_curve_oracle(GAMMA_SPEC, 1.0, [[2.0, 3.0], [4.0, 5.0]])

    @pytest.mark.parametrize("lag, first", [([0.5, 3.0, 0.5, math.nan], 20.0),
                                             ([0.5, 0.5, 0.5, math.nan], 40.0)])
    def test_nonpositive_correlation_raises_naming_first_time(self, monkeypatch,
                                                               lag, first):
        # V(s) = V(t) = 1 make the correlation 1 - V(t-s)/2: <= 0 where
        # V(t-s) >= 2, NaN where V(t-s) is
        lag_var = dict(zip([9.0, 19.0, 29.0, 39.0], lag))
        monkeypatch.setattr(process, "exact_var_oracle", lambda spec, times: np.array(
            [lag_var.get(u, 1.0) for u in times.tolist()]))
        with pytest.raises(CancellationError,
                           match=f"^oracle correlation .* at t = {first:.17g} is not positive"):
            corr_curve_oracle(GAMMA_SPEC, 1.0, [10.0, 20.0, 30.0, 40.0])

    def test_one_variance_per_distinct_time(self, monkeypatch):
        # V(s) once, then V(t) and V(t-s) per grid time, two moments each:
        # 2 * (1 + 2 * 12) = 50 evaluations on lrd's 12-point grid, counted
        # over the array elements, in one moment call per order
        calls = []
        evaluations = []

        def counting_moment(sub, t, q):
            calls.append(q)
            evaluations.extend((float(u), q) for u in np.atleast_1d(t))
            return subordinator_moment(sub, t, q)

        monkeypatch.setattr(process, "subordinator_moment", counting_moment)
        curve = corr_curve_oracle(TSS_SPEC, 1.0, np.geomspace(100.0, 10000.0, 12))
        assert len(curve) == 12
        assert len(evaluations) == len(set(evaluations)) == 50
        assert len(calls) <= 2


class TestFitDecay:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 1e4, 9)
        fit = fit_decay(t, 3.0 * t ** -0.2)
        assert fit.slope == pytest.approx(-0.2, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.slope_stderr < 1e-12

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_oracle_curve_slope(self, spec):
        t = np.geomspace(100.0, 10000.0, 12)
        fit = fit_decay(t, [c for _, c in corr_curve_oracle(spec, 1.0, t)])
        assert abs(fit.slope - (-0.2)) < 0.05

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    @pytest.mark.parametrize("h1, h2", [(0.2, 0.3), (0.1, 0.4)])
    def test_oracle_slope_tends_to_minus_h2(self, spec, h1, h2):
        # for H2 < 1/2 Cov tends to V(s)/2, so the correlation decays like
        # t**-H2, the cause lrd's FAIL line gives for such a gap
        spec = TimeChangedSpec(GmfbmParams(1.0, 1.0, h1, h2), spec.subordinator)
        t = np.geomspace(1e4, 1e6, 12)
        fit = fit_decay(t, [c for _, c in corr_curve_oracle(spec, 1.0, t)])
        assert abs(fit.slope + h2) < 0.02

    def test_noise_robustness(self):
        t = np.geomspace(10.0, 1e4, 12)
        clean = 2.0 * t ** -0.3
        noise = 1.0 + 0.01 * derive_stream(55, 0).gen.standard_normal(t.size)
        noisy_fit = fit_decay(t, clean * noise)
        assert abs(noisy_fit.slope - (-0.3)) < 3.0 * noisy_fit.slope_stderr

    def test_domain(self):
        t = np.geomspace(1.0, 100.0, 4)
        with pytest.raises(ValueError, match="at least 5 points"):
            fit_decay(t, t)
        with pytest.raises(ValueError, match="strictly positive"):
            fit_decay([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -0.5, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            fit_decay([0.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.5, 1.0, 1.0, 1.0])
        # NaN passes a <= 0 check, and inf gives an inf or NaN slope
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="strictly positive"):
                fit_decay([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, bad, 1.0, 1.0, 1.0])
            with pytest.raises(ValueError, match="strictly positive"):
                fit_decay([1.0, 2.0, 3.0, 4.0, bad], [1.0, 0.5, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="two distinct t"):
            fit_decay([2.0] * 5, [1.0] * 5)
        for values in ([1.0] * 4, [1.0] * 6):
            with pytest.raises(ValueError, match="of one length"):
                fit_decay([1.0, 2.0, 3.0, 4.0, 5.0], values)


@pytest.fixture(scope="module")
def report():
    return lrd_report(GAMMA_SPEC, 1.0, np.geomspace(100.0, 10000.0, 8), 5000, 106)


class TestLrdReport:
    def test_predicted_matches_theory(self, report):
        assert report.predicted.dominant == \
            theory.corr_decay_prediction(GAMMA_SPEC.gmfbm).dominant
        assert report.is_lrd == theory.is_lrd(GAMMA_SPEC.gmfbm)

    def test_oracle_fit_near_prediction(self, report):
        assert abs(report.oracle_fit.slope - report.predicted.dominant) < 0.05

    def test_mc_fit_near_oracle_fit(self, report):
        tol = max(0.15, 3.0 * report.mc_fit.slope_stderr)
        assert abs(report.mc_fit.slope - report.oracle_fit.slope) < tol

    def test_serializable(self, report):
        payload = json.loads(json.dumps(asdict(report)))
        assert payload["predicted"]["dominant"] == pytest.approx(-0.2)
        for name in ("oracle_corr", "mc_corr", "mc_stderr"):
            assert len(payload[name]) == 8
        assert not {"oracle_curve", "mc_curve"} & set(payload)
        assert {"slope", "intercept", "slope_stderr", "r_squared"} <= \
            set(payload["oracle_fit"])

    def test_slope_paired_stderr(self, report):
        assert math.isfinite(report.mc_slope_paired_stderr)
        assert report.mc_slope_paired_stderr > 0.0
        payload = json.loads(json.dumps(asdict(report)))
        assert payload["mc_slope_paired_stderr"] == report.mc_slope_paired_stderr

    def test_slope_paired_stderr_undefined_exactly_without_mc_fit(self):
        # at 100 paths some seeds give a nonpositive correlation at 10^4
        grid = np.geomspace(100.0, 10000.0, 12)
        undefined = []
        for seed in range(1, 9):
            rep = lrd_report(GAMMA_SPEC, 1.0, grid, 100, seed)
            assert (rep.mc_slope_paired_stderr is None) == (rep.mc_fit is None)
            undefined.append(rep.mc_fit is None)
        assert any(undefined) and not all(undefined)

    def test_unsorted_grid_with_repeat(self):
        # the grid is increasing, as the pair sampler checks
        for grid in ([800.0, 100.0, 3000.0, 250.0, 10000.0],
                     [100.0, 250.0, 800.0, 800.0, 3000.0, 10000.0]):
            with pytest.raises(ValueError, match="increasing 1-d grid"):
                lrd_report(GAMMA_SPEC, 1.0, grid, 1000, 109)

    @pytest.mark.parametrize("spec", [TSS_SPEC, GAMMA_SPEC])
    def test_every_point_within_family_z_bound(self, spec):
        grid = np.geomspace(100.0, 10000.0, 12)
        rep = lrd_report(spec, 1.0, grid, 5000, 108)
        bound = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * len(grid)))
        for t, oracle, mc, se in zip(grid, rep.oracle_corr, rep.mc_corr, rep.mc_stderr):
            assert abs(mc - oracle) < bound * se, f"t={t:g}"

    def test_deterministic(self):
        grid = np.geomspace(100.0, 1000.0, 5)
        one = lrd_report(GAMMA_SPEC, 1.0, grid, 2500, 107)
        assert one.mc_slope_paired_stderr is not None
        assert lrd_report(GAMMA_SPEC, 1.0, grid, 2500, 107) == one

    def test_paired_errors_calibrated_over_seeds(self):
        # over 100 seeds on criterion 7's grid, the spread of the MC slopes
        # matches the median paired error, and each grid time's z scores
        # against the oracle have unit spread
        grid = np.geomspace(100.0, 10000.0, 12)
        slopes, slope_stderrs, z = [], [], []
        for seed in range(100):
            rep = lrd_report(GAMMA_SPEC, 1.0, grid, 2000, seed)
            slopes.append(rep.mc_fit.slope)
            slope_stderrs.append(rep.mc_slope_paired_stderr)
            z.append([(mc - oracle) / se for oracle, mc, se
                      in zip(rep.oracle_corr, rep.mc_corr, rep.mc_stderr)])
        slope_ratio = np.std(slopes, ddof=1) / np.median(slope_stderrs)
        assert 0.75 <= slope_ratio <= 1.33
        z_spread = np.std(z, axis=0, ddof=1)
        assert np.all((0.75 <= z_spread) & (z_spread <= 1.33)), z_spread
