"""Monte Carlo estimation of second-order statistics of the time-changed
process, with standard errors, power-law decay fitting, and the combined
long-range-dependence report.

Every estimator samples its paths in blocks (``randkit.path_blocks``):
block k holds paths [kB, (k+1)B), B = ``randkit.BLOCK_PATHS``, and draws
them as vectors from the stream keyed (master_seed, k).  Each block fills
its own slice of the path array, which is reduced once, so results are
bit-identical for a fixed master seed no matter how the blocks are spread
across workers.

Every estimator runs on one sampler: each path samples its clock once over
[s, t_1, ...], with one exact (Y_s, Y_t) pair per grid time given the
clock.  The grid times share the clock path, not the fBm draws.
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


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo point estimate with its standard error."""

    value: float
    stderr: float
    n_paths: int

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")


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


def _run_blocks(fill, n_paths: int, master_seed: int, n_workers: int) -> None:
    # fill(block) writes the paths [lo, hi) of one block in place
    blocks = path_blocks(master_seed, n_paths)
    if n_workers <= 1:
        for block in blocks:
            fill(block)
    else:
        # imported here: it pulls in logging, which a one-worker run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(fill, blocks))


def _sample_pairs(spec: TimeChangedSpec, s: float, t_grid, n_paths: int,
                  master_seed: int, n_workers: int):
    # (m, n_paths) draws of Y_s and Y_t, one row per distinct grid time in
    # increasing order, and the row of each grid time; each path samples its
    # clock once over s and the m distinct times
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    times, col = np.unique(t_grid, return_inverse=True)
    if not 0.0 < s < times[0]:
        raise ValueError(f"need 0 < s < t, got s={s}, t={times[0]}")
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    ys = np.empty((len(times), n_paths))
    yt = np.empty((len(times), n_paths))

    def fill(block) -> None:
        stream, lo, hi = block
        y_s, y_t = sample_timechanged_pair(spec, s, times, stream, size=hi - lo)
        ys[:, lo:hi], yt[:, lo:hi] = y_s.T, y_t.T

    _run_blocks(fill, n_paths, master_seed, n_workers)
    return ys, yt, col


def _corr_errors(ys: np.ndarray, yt: np.ndarray, slope_weights=None):
    """Pearson r of each row pair of ys and yt (m, n), its standard error,
    and the paired standard error of ``slope_weights @ log(r)``.

    Path i moves r_j by its influence IF_ij = zx zy - r_j (zx² + zy²) / 2,
    with zx and zy its standardised values, so each error is the standard
    deviation of the per-path influences over sqrt(n); the weighted log
    slope has the influence sum_j w_j IF_ij / r_j, which carries the
    correlation across rows.  The slope error is None without weights or
    when a correlation is not positive, since its log is undefined.
    """
    n = ys.shape[1]
    zx = ys - ys.mean(axis=1, keepdims=True)
    zy = yt - yt.mean(axis=1, keepdims=True)
    zx /= np.sqrt((zx * zx).mean(axis=1, keepdims=True))
    zy /= np.sqrt((zy * zy).mean(axis=1, keepdims=True))
    prod = zx * zy
    corr = prod.mean(axis=1)
    infl = prod - 0.5 * corr[:, None] * (zx * zx + zy * zy)
    stderr = infl.std(axis=1, ddof=1) / math.sqrt(n)
    if slope_weights is None or not np.all(corr > 0.0):
        return corr, stderr, None
    slope_infl = (slope_weights / corr) @ infl
    return corr, stderr, float(slope_infl.std(ddof=1) / math.sqrt(n))


def estimate_cov_curve(spec: TimeChangedSpec, s: float, t_grid, n_paths: int,
                       master_seed: int, n_workers: int = 1) -> list[MomentEstimate]:
    """Sample covariances of (Y_s, Y_t) at every grid time, one estimate per
    grid time in input order.

    Each path samples its clock once, over s and the distinct grid times in
    increasing order, so the estimates share their clock paths (common
    random numbers) while each (Y_s, Y_t) keeps its exact joint law.  The
    grid may be unsorted or repeat a time.  Each standard error comes from
    the sample variance of the per-path centered products.
    """
    ys, yt, col = _sample_pairs(spec, s, t_grid, n_paths, master_seed, n_workers)
    dev = (ys - ys.mean(axis=1, keepdims=True)) * (yt - yt.mean(axis=1, keepdims=True))
    value = dev.sum(axis=1) / (n_paths - 1)
    stderr = dev.std(axis=1, ddof=1) / math.sqrt(n_paths)
    return [MomentEstimate(float(value[j]), float(stderr[j]), n_paths) for j in col]


def estimate_cov(spec: TimeChangedSpec, s: float, t: float, n_paths: int,
                 master_seed: int, n_workers: int = 1) -> MomentEstimate:
    """Sample covariance of (Y_s, Y_t) over independent paths: the one-time
    case of ``estimate_cov_curve``."""
    return estimate_cov_curve(spec, s, [t], n_paths, master_seed, n_workers)[0]


def estimate_corr(spec: TimeChangedSpec, s: float, t: float, n_paths: int,
                  master_seed: int, n_workers: int = 1) -> MomentEstimate:
    """Pearson correlation of (Y_s, Y_t): the one-time case of the
    correlation curve that ``lrd_report`` measures, on the same sampler.

    The stderr is the standard deviation of each path's influence on r over
    sqrt(n_paths), the nonparametric delta method (Efron and Tibshirani,
    1993, ch. 21).  The degenerate case s == t returns correlation exactly 1.
    """
    if 0.0 < s == t and n_paths >= 100:
        return MomentEstimate(1.0, 0.0, n_paths)
    ys, yt, _ = _sample_pairs(spec, s, [t], n_paths, master_seed, n_workers)
    corr, stderr, _ = _corr_errors(ys, yt)
    return MomentEstimate(float(corr[0]), float(stderr[0]), n_paths)


def estimate_increment_sm(spec: TimeChangedSpec, s: float, t: float, n_paths: int,
                          master_seed: int, n_workers: int = 1) -> MomentEstimate:
    """Sample mean of (Y_t - Y_s)**2 with its standard error."""
    ys, yt, _ = _sample_pairs(spec, s, [t], n_paths, master_seed, n_workers)
    sq = (yt[0] - ys[0]) ** 2
    return MomentEstimate(float(sq.mean()),
                          float(sq.std(ddof=1) / math.sqrt(n_paths)), n_paths)


def fit_decay(points) -> DecayFit:
    """OLS fit of log(value) against log(t); the slope estimates -d for a
    power law c * t**-d.

    Requires at least 5 points with strictly positive t and value, and at
    least two distinct t.
    """
    pts = [(float(t), float(v)) for t, v in points]
    if len(pts) < 5:
        raise ValueError(f"need at least 5 points, got {len(pts)}")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
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
    """Predicted vs measured correlation decay, plus the LRD verdict.

    ``mc_fit`` is None when a Monte Carlo correlation is not positive, so
    its log and the MC slope are undefined.  ``mc_slope_paired_stderr`` is
    the influence-function error of the MC slope, paired across grid times
    because they share each path's clock (None exactly when ``mc_fit`` is);
    ``mc_fit.slope_stderr`` is the OLS residual error, which ignores the
    Monte Carlo noise.
    """

    s: float
    predicted: DecayPrediction
    oracle_curve: list[tuple[float, float]]
    mc_curve: list[tuple[float, float, float]]
    oracle_fit: DecayFit
    mc_fit: DecayFit | None
    mc_slope_paired_stderr: float | None
    is_lrd: bool
    n_paths: int
    master_seed: int


def lrd_report(spec: TimeChangedSpec, s: float, t_grid, n_paths: int,
               master_seed: int, n_workers: int = 1) -> LrdReport:
    """Assemble predictions, oracle and Monte Carlo decay curves, and fits.

    Each path samples its clock once over [s, *grid] and draws one exact
    (Y_s, Y_t) pair per grid time given it, so the grid times share the
    clock path but not the fBm draws.  Every MC correlation takes its
    stderr from the per-path influences on it, and the slope of log r on
    log t takes ``mc_slope_paired_stderr`` from the same influences summed
    across grid times with the OLS weights (Efron and Tibshirani, *An
    Introduction to the Bootstrap*, 1993, ch. 21).  The grid may be
    unsorted or repeat a time; the MC curve keeps its order, one row per
    grid time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    predicted = theory.corr_decay_prediction(spec)
    oracle_curve = corr_curve_oracle(spec, s, t_grid)
    oracle_fit = fit_decay(oracle_curve)
    # a repeated grid time adds its OLS weights into its one row of draws
    ys, yt, col = _sample_pairs(spec, s, t_grid, n_paths, master_seed, n_workers)
    xc = np.log(t_grid) - np.log(t_grid).mean()
    weights = np.bincount(col, weights=xc / (xc @ xc), minlength=len(ys))
    corr, stderr, slope_stderr = _corr_errors(ys, yt, weights)
    corr, stderr = corr[col], stderr[col]
    mc_curve = [(float(t), float(c), float(se))
                for t, c, se in zip(t_grid, corr, stderr)]
    mc_fit = (fit_decay([(t, c) for t, c, _ in mc_curve]) if np.all(corr > 0.0)
              else None)
    return LrdReport(
        s=float(s),
        predicted=predicted,
        oracle_curve=oracle_curve,
        mc_curve=mc_curve,
        oracle_fit=oracle_fit,
        mc_fit=mc_fit,
        mc_slope_paired_stderr=slope_stderr,
        is_lrd=theory.is_lrd(spec),
        n_paths=n_paths,
        master_seed=master_seed,
    )
