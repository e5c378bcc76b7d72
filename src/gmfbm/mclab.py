"""Monte Carlo estimation of second-order statistics of the time-changed
process, with standard errors, power-law decay fitting, and the combined
long-range-dependence report.

Every estimator samples its paths in blocks (``randkit.path_blocks``):
block k holds paths [kB, (k+1)B), B = ``randkit.BLOCK_PATHS``, and draws
them as vectors from the stream keyed (master_seed, k).  Each block fills
its own slice of the path array, which is reduced once, so results are
bit-identical across reruns and depend on the block layout only.

Every estimator runs on one sampler: each path samples its clock once over
[s, t_1, ...], an increasing grid above s, with one exact (Y_s, Y_t) pair
per grid time given the clock.  The grid times share the clock path, not
the fBm draws.
Correlations take their standard errors from each path's influence on the
Pearson r, the nonparametric delta method or infinitesimal jackknife
(Efron and Tibshirani, *An Introduction to the Bootstrap*, 1993, ch. 21):
one pass over the paths, with no resampling and no random numbers.
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


def _corr_errors(ys: np.ndarray, yt: np.ndarray, slope_weights=None):
    """Pearson r of each row pair of ys and yt (m, n), its standard error,
    and the paired standard error of ``slope_weights @ log(r)``.

    Path i moves r_j by its influence IF_ij = zx zy - r_j (zx² + zy²) / 2,
    with zx and zy its standardised values, so each error is the standard
    deviation of the per-path influences over sqrt(n); the weighted log
    slope has the influence sum_j w_j IF_ij / r_j, which carries the
    correlation across rows.  The slope error is None without weights or
    when a correlation is not positive, since its log is undefined.  A row
    whose sample variance is not finite (a value is inf or NaN, or its
    square overflows) raises ``OverflowError``; a row with zero sample
    variance has no correlation, and raises ``ValueError``.  Standardised
    rows are bounded, so every result is then finite.
    """
    n = ys.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        zx = ys - ys.mean(axis=1, keepdims=True)
        zy = yt - yt.mean(axis=1, keepdims=True)
        sx = np.sqrt((zx * zx).mean(axis=1, keepdims=True))
        sy = np.sqrt((zy * zy).mean(axis=1, keepdims=True))
    for name, sd in (("Y_s", sx), ("Y_t", sy)):
        if not np.all(np.isfinite(sd)):
            raise OverflowError(f"the sample variance of {name} over {n} paths is not finite")
        if not np.all(sd > 0.0):
            raise ValueError(f"{name} is constant over {n} paths, so the Monte Carlo "
                             f"correlation of Y_s and Y_t is undefined")
    zx /= sx
    zy /= sy
    prod = zx * zy
    corr = prod.mean(axis=1)
    infl = prod - 0.5 * corr[:, None] * (zx * zx + zy * zy)
    stderr = infl.std(axis=1, ddof=1) / math.sqrt(n)
    if slope_weights is None or not np.all(corr > 0.0):
        return corr, stderr, None
    slope_infl = (slope_weights / corr) @ infl
    return corr, stderr, float(slope_infl.std(ddof=1) / math.sqrt(n))


def estimate_cov_curve(spec: TimeChangedSpec, s: float, t_grid, n_paths: int,
                       master_seed: int) -> list[MomentEstimate]:
    """Sample covariances of (Y_s, Y_t) on an increasing grid above s, one
    estimate per grid time.

    Each path samples its clock once, over s and the grid, so the estimates
    share their clock paths (common random numbers) while each (Y_s, Y_t)
    keeps its exact joint law.  Each standard error comes from the sample
    variance of the per-path centered products.  An estimate or standard
    error beyond the float range raises ``OverflowError``.
    """
    ys, yt = _sample_pairs(spec, s, t_grid, n_paths, master_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = (ys - ys.mean(axis=1, keepdims=True)) * (yt - yt.mean(axis=1, keepdims=True))
        value = dev.sum(axis=1) / (n_paths - 1)
        stderr = dev.std(axis=1, ddof=1) / math.sqrt(n_paths)
    bad = ~(np.isfinite(value) & np.isfinite(stderr))
    if bad.any():
        raise OverflowError(f"the Monte Carlo covariance or its stderr at t = "
                            f"{np.ravel(t_grid)[np.argmax(bad)]:.17g} is beyond the float range")
    return [MomentEstimate(v, se) for v, se in zip(value.tolist(), stderr.tolist())]


def estimate_cov(spec: TimeChangedSpec, s: float, t: float, n_paths: int,
                 master_seed: int) -> MomentEstimate:
    """Sample covariance of (Y_s, Y_t) over independent paths: the one-time
    case of ``estimate_cov_curve``."""
    return estimate_cov_curve(spec, s, [t], n_paths, master_seed)[0]


def estimate_corr(spec: TimeChangedSpec, s: float, t: float, n_paths: int,
                  master_seed: int) -> MomentEstimate:
    """Pearson correlation of (Y_s, Y_t): the one-time case of the
    correlation curve that ``lrd_report`` measures, on the same sampler.

    The stderr is the standard deviation of each path's influence on r over
    sqrt(n_paths), the nonparametric delta method (Efron and Tibshirani,
    1993, ch. 21).  Like its siblings it needs 0 < s < t.
    """
    ys, yt = _sample_pairs(spec, s, [t], n_paths, master_seed)
    corr, stderr, _ = _corr_errors(ys, yt)
    return MomentEstimate(float(corr[0]), float(stderr[0]))


def estimate_increment_sm(spec: TimeChangedSpec, s: float, t: float, n_paths: int,
                          master_seed: int) -> MomentEstimate:
    """Sample mean of (Y_t - Y_s)**2 with its standard error."""
    ys, yt = _sample_pairs(spec, s, [t], n_paths, master_seed)
    sq = (yt[0] - ys[0]) ** 2
    return MomentEstimate(float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n_paths)))


def fit_decay(t, values) -> DecayFit:
    """OLS fit of log(values) against log(t); the slope estimates -d for a
    power law c * t**-d.

    Requires t and values of one length, at least 5 points with strictly
    positive t and value, and at least two distinct t.
    """
    t, v = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValueError(f"need 1-d t and values of one length, got {t.shape} and {v.shape}")
    if len(t) < 5:
        raise ValueError(f"need at least 5 points, got {len(t)}")
    if np.any(t <= 0.0) or np.any(v <= 0.0):
        raise ValueError("power-law fit requires strictly positive t and value")
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
    clock path but not the fBm draws.  Every MC correlation takes its
    stderr from the per-path influences on it, and the slope of log r on
    log t takes ``mc_slope_paired_stderr`` from the same influences summed
    across grid times with the OLS weights (Efron and Tibshirani, *An
    Introduction to the Bootstrap*, 1993, ch. 21).  The grid is increasing
    and above s, one MC row per grid time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    oracle_corr = tuple(c for _, c in corr_curve_oracle(spec, s, t_grid))
    oracle_fit = fit_decay(t_grid, oracle_corr)
    ys, yt = _sample_pairs(spec, s, t_grid, n_paths, master_seed)
    xc = np.log(t_grid) - np.log(t_grid).mean()
    corr, stderr, slope_stderr = _corr_errors(ys, yt, xc / (xc @ xc))
    return LrdReport(
        predicted=theory.corr_decay_prediction(spec.gmfbm),
        oracle_corr=oracle_corr,
        mc_corr=tuple(corr.tolist()),
        mc_stderr=tuple(stderr.tolist()),
        oracle_fit=oracle_fit,
        mc_fit=fit_decay(t_grid, corr) if np.all(corr > 0.0) else None,
        mc_slope_paired_stderr=slope_stderr,
        is_lrd=theory.is_lrd(spec.gmfbm),
    )
