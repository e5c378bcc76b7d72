"""Monte Carlo estimation of second-order statistics of the time-changed
process, with standard errors, power-law decay fitting, and the combined
long-range-dependence report.

Every estimator samples its paths in blocks (``randkit.path_blocks``):
block k holds paths [kB, (k+1)B), B = ``randkit.BLOCK_PATHS``, and draws
them as vectors from the stream keyed (master_seed, k).  Each block fills
its own slice of the path array, which is reduced once, so results are
bit-identical across reruns and depend on the block layout only.

Every estimator takes one time or an increasing grid t_1 < t_2 < ... above
s, and runs on one sampler: each path samples its clock once over
[s, t_1, ...], with one exact (Y_s, Y_t) pair per grid time given the
clock.  The grid times share the clock path, not the fBm draws.  One
reduction, with one rule for a bad sample, turns the draws into every
estimate.  Correlations take their standard errors from each path's
influence on the Pearson r, the nonparametric delta method or infinitesimal
jackknife (Efron and Tibshirani, *An Introduction to the Bootstrap*, 1993,
ch. 21): one pass over the paths, with no resampling and no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gmfbm import theory
from gmfbm.process import TimeChangedSpec, corr_curve_oracle, sample_timechanged_pair
from gmfbm.randkit import path_blocks
from gmfbm.theory import DecayPrediction

LRD_SLOPE_TOLERANCE = 0.05  # lrd fails when |oracle slope - predicted.dominant| reaches it


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo point estimate with its standard error."""

    value: float
    stderr: float

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(value) on log(t)."""

    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float

    def __post_init__(self):
        if self.slope_stderr < 0.0:
            raise ValueError("slope_stderr must be nonnegative")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")


def _sample_pairs(spec: TimeChangedSpec, s: float, t_grid, n_paths: int, master_seed: int):
    # (m, n_paths) draws of Y_s and Y_t, one row per time of the m-point
    # grid; each path samples its clock once over s and the grid, which the
    # pair sampler checks is increasing and above s
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    ys = np.empty((np.size(t_grid), n_paths))
    yt = np.empty_like(ys)
    for stream, lo, hi in path_blocks(master_seed, n_paths):
        y_s, y_t = sample_timechanged_pair(spec, s, t_grid, stream, size=hi - lo)
        ys[:, lo:hi], yt[:, lo:hi] = y_s.T, y_t.T
    return ys, yt


def _second_moments(ys: np.ndarray, yt: np.ndarray, t_grid, slope_weights=None):
    """The one reduction of the draws ys and yt (m, n), one row pair per
    grid time: lists of the sample covariances, Pearson r's and means of
    (Y_t - Y_s)**2 as ``MomentEstimate``s, and the paired standard error of
    ``slope_weights @ log(r)``.

    The covariance and the increment moment take their errors from the
    sample variance of the per-path terms.  Path i moves r_j by its
    influence IF_ij = zx zy - r_j (zx² + zy²) / 2, with zx and zy its
    standardised values; the weighted log slope has the influence sum_j w_j
    IF_ij / r_j, which carries the correlation across rows.  The slope
    error is None without weights or when an r is not positive.  A sample
    variance or statistic that is not finite raises ``OverflowError``
    naming its grid time; a constant Y_s or Y_t has no correlation, and
    raises ``ValueError``.  Standardised rows are bounded, so every result
    is then finite.
    """
    n = ys.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        zx = ys - ys.mean(axis=1, keepdims=True)
        zy = yt - yt.mean(axis=1, keepdims=True)
        sx = np.sqrt((zx * zx).mean(axis=1, keepdims=True))
        sy = np.sqrt((zy * zy).mean(axis=1, keepdims=True))
        dev = zx * zy
        sq = (yt - ys) ** 2
        cov, cov_se = dev.sum(axis=1) / (n - 1), dev.std(axis=1, ddof=1) / math.sqrt(n)
        sm, sm_se = sq.mean(axis=1), sq.std(axis=1, ddof=1) / math.sqrt(n)
    for name, *stats in (("sample variance of Y_s", sx[:, 0]),
                         ("sample variance of Y_t", sy[:, 0]),
                         ("covariance or its stderr", cov, cov_se),
                         ("mean of (Y_t - Y_s)**2 or its stderr", sm, sm_se)):
        bad = ~np.all(np.isfinite(stats), axis=0)
        if bad.any():
            t = np.ravel(t_grid)[np.argmax(bad)]
            raise OverflowError(f"the Monte Carlo {name} at t = {t:.17g} is beyond "
                                f"the float range")
    for name, sd in (("Y_s", sx), ("Y_t", sy)):
        if not np.all(sd > 0.0):
            raise ValueError(f"{name} is constant over {n} paths, so the Monte Carlo "
                             f"correlation of Y_s and Y_t is undefined")
    zx /= sx
    zy /= sy
    prod = zx * zy
    corr = prod.mean(axis=1)
    infl = prod - 0.5 * corr[:, None] * (zx * zx + zy * zy)
    corr_se = infl.std(axis=1, ddof=1) / math.sqrt(n)
    slope_se = None
    if slope_weights is not None and np.all(corr > 0.0):
        slope_se = float(((slope_weights / corr) @ infl).std(ddof=1) / math.sqrt(n))
    def estimates(values, stderrs):
        return [MomentEstimate(v, se) for v, se in zip(values.tolist(), stderrs.tolist())]
    return estimates(cov, cov_se), estimates(corr, corr_se), estimates(sm, sm_se), slope_se


def _estimate(which, spec, s, t, n_paths, master_seed):
    # statistic `which` of the one reduction: one estimate for one time t, a
    # list in grid order for a grid
    grid = np.atleast_1d(t)
    est = _second_moments(*_sample_pairs(spec, s, grid, n_paths, master_seed), grid)[which]
    return est if np.ndim(t) else est[0]


def estimate_cov(spec: TimeChangedSpec, s: float, t, n_paths: int,
                 master_seed: int) -> MomentEstimate | list[MomentEstimate]:
    """Sample covariance of (Y_s, Y_t), with the standard error of the
    per-path centered products: one ``MomentEstimate`` for one time t, a
    list of one per grid time for a grid.  A sample beyond the float range
    raises ``OverflowError``, and a constant one ``ValueError``.
    """
    return _estimate(0, spec, s, t, n_paths, master_seed)


def estimate_corr(spec: TimeChangedSpec, s: float, t, n_paths: int,
                  master_seed: int) -> MomentEstimate | list[MomentEstimate]:
    """Pearson correlation of (Y_s, Y_t) with its influence-function stderr,
    for t as in ``estimate_cov``: the curve that ``lrd_report`` measures."""
    return _estimate(1, spec, s, t, n_paths, master_seed)


def estimate_increment_sm(spec: TimeChangedSpec, s: float, t, n_paths: int,
                          master_seed: int) -> MomentEstimate | list[MomentEstimate]:
    """Sample mean of (Y_t - Y_s)**2 with its standard error, for t as in
    ``estimate_cov``."""
    return _estimate(2, spec, s, t, n_paths, master_seed)


def fit_decay(t, values) -> DecayFit:
    """OLS fit of log(values) against log(t); the slope estimates -d for a
    power law c * t**-d.

    Requires t and values of one length, at least 5 points with finite,
    strictly positive t and value, and at least two distinct t.
    """
    t, v = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValueError(f"need 1-d t and values of one length, got {t.shape} and {v.shape}")
    if len(t) < 5:
        raise ValueError(f"need at least 5 points, got {len(t)}")
    if not np.all((t > 0.0) & (t < np.inf) & (v > 0.0) & (v < np.inf)):
        raise ValueError("power-law fit requires finite, strictly positive t and value")
    x = np.log(t)
    y = np.log(v)
    n = len(x)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("need at least two distinct t")
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ssr = float(resid @ resid)
    sst = float((y - y.mean()) @ (y - y.mean()))
    slope_stderr = math.sqrt(ssr / (n - 2) / sxx)
    r_squared = 1.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - ssr / sst))
    return DecayFit(slope, intercept, slope_stderr, r_squared)


@dataclass(frozen=True)
class LrdReport:
    """Predicted vs measured correlation decay, plus the LRD classification.

    ``oracle_corr``, ``mc_corr`` and ``mc_stderr`` hold one value per grid
    time, in grid order.  ``mc_fit`` is None when a Monte Carlo correlation
    is not positive, so its log and the MC slope are undefined.
    ``mc_slope_paired_stderr`` is the influence-function error of the MC
    slope, paired across grid times because they share each path's clock
    (None exactly when ``mc_fit`` is); ``mc_fit.slope_stderr`` is the OLS
    residual error, which ignores the Monte Carlo noise.
    """

    predicted: DecayPrediction
    oracle_corr: tuple[float, ...]
    mc_corr: tuple[float, ...]
    mc_stderr: tuple[float, ...]
    oracle_fit: DecayFit
    mc_fit: DecayFit | None
    mc_slope_paired_stderr: float | None
    is_lrd: bool


def lrd_report(spec: TimeChangedSpec, s: float, t_grid, n_paths: int,
               master_seed: int) -> LrdReport:
    """Assemble predictions, oracle and Monte Carlo decay curves, and fits.

    Each path samples its clock once over [s, *grid] and draws one exact
    (Y_s, Y_t) pair per grid time given it, so the grid times share the
    clock path but not the fBm draws.  ``mc_slope_paired_stderr`` sums the
    per-path influences on each MC correlation across grid times with the
    OLS weights of log t.  The grid is increasing and above s, one MC row
    per grid time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    oracle_corr = tuple(c for _, c in corr_curve_oracle(spec, s, t_grid))
    oracle_fit = fit_decay(t_grid, oracle_corr)
    xc = np.log(t_grid) - np.log(t_grid).mean()
    _, corr, _, slope_stderr = _second_moments(
        *_sample_pairs(spec, s, t_grid, n_paths, master_seed), t_grid, xc / (xc @ xc))
    mc_corr = tuple(e.value for e in corr)
    return LrdReport(
        predicted=theory.corr_decay_prediction(spec.gmfbm),
        oracle_corr=oracle_corr,
        mc_corr=mc_corr,
        mc_stderr=tuple(e.stderr for e in corr),
        oracle_fit=oracle_fit,
        mc_fit=fit_decay(t_grid, mc_corr) if min(mc_corr) > 0.0 else None,
        mc_slope_paired_stderr=slope_stderr,
        is_lrd=theory.is_lrd(spec.gmfbm),
    )
