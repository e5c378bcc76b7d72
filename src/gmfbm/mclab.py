"""Monte Carlo estimation of second-order statistics of the time-changed
process, with standard errors, power-law decay fitting, and the combined
long-range-dependence report.

Every estimator samples its paths in blocks (``randkit.path_blocks``):
block k holds paths [kB, (k+1)B), B = ``randkit.BLOCK_PATHS``, and draws
them as vectors from the stream keyed (master_seed, k).  Each block fills
its own slice of the path array, which is reduced once, so results are
bit-identical for a fixed master seed no matter how the blocks are spread
across workers.

``estimate_cov_curve`` samples each path's clock once over [s, t_1, ...],
with one exact (Y_s, Y_t) pair per grid time given the clock.
``lrd_report`` samples every path once on the whole grid [s, t_1, ...],
so the correlations at all grid times share their paths (exact common
random numbers), and one set of bootstrap resamples serves every grid
time: each resample is a vector of path counts, and its correlations
follow from count-weighted moments.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from gmfbm import theory
from gmfbm.process import (
    TimeChangedSpec,
    exact_cov_oracle,
    exact_var_oracle,
    sample_timechanged_pair,
    sample_timechanged_path,
)
from gmfbm.randkit import derive_stream, path_blocks
from gmfbm.theory import DecayPrediction

# stream id reserved for bootstrap resampling, far above any block index
_BOOTSTRAP_STREAM_ID = (1 << 64) - 1
_BOOTSTRAP_RESAMPLES = 200


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
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(fill, blocks))


def _sample_pairs(spec: TimeChangedSpec, s: float, times, n_paths: int,
                  master_seed: int, n_workers: int) -> tuple[np.ndarray, np.ndarray]:
    # (len(times), n_paths) draws of Y_s and Y_t, one row per increasing
    # time above s; each path samples its clock once over [s, *times]
    ys = np.empty((len(times), n_paths))
    yt = np.empty((len(times), n_paths))

    def fill(block) -> None:
        stream, lo, hi = block
        y_s, y_t = sample_timechanged_pair(spec, s, times, stream, size=hi - lo)
        ys[:, lo:hi], yt[:, lo:hi] = y_s.T, y_t.T

    _run_blocks(fill, n_paths, master_seed, n_workers)
    return ys, yt


def _sample_paths(spec: TimeChangedSpec, times: np.ndarray, n_paths: int,
                  master_seed: int, n_workers: int) -> np.ndarray:
    # (n_paths, len(times)) values of Y at the strictly increasing times
    out = np.empty((n_paths, len(times)))

    def fill(block) -> None:
        stream, lo, hi = block
        out[lo:hi] = sample_timechanged_path(spec, times, stream, size=hi - lo)

    _run_blocks(fill, n_paths, master_seed, n_workers)
    return out


def _corr_with_bootstrap(x: np.ndarray, y: np.ndarray,
                         master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlations of x (n,) with each column of y (n, m), and
    their bootstrap replicates.

    Returns (corr, reps) of shapes (m,) and (_BOOTSTRAP_RESAMPLES, m).
    Each resample draws n path indices from the reserved bootstrap stream;
    as counts w, its moments are ``w @ cols / n`` over the columns
    [x, x², y, y², x·y], centred on the full-sample means, so no resampled
    copy of the data is built and every column shares the same resamples.
    """
    n, m = y.shape
    xc = x - x.mean()
    yc = y - y.mean(axis=0)
    cols = np.column_stack([xc, xc * xc, yc, yc * yc, xc[:, None] * yc])
    gen = derive_stream(master_seed, _BOOTSTRAP_STREAM_ID).gen
    moments = np.empty((_BOOTSTRAP_RESAMPLES + 1, cols.shape[1]))
    moments[0] = cols.mean(axis=0)
    for r in range(1, _BOOTSTRAP_RESAMPLES + 1):
        w = np.bincount(gen.integers(0, n, size=n), minlength=n)
        moments[r] = w @ cols / n
    mx, mxx = moments[:, :1], moments[:, 1:2]
    my, myy, mxy = np.split(moments[:, 2:], 3, axis=1)
    corr = (mxy - mx * my) / np.sqrt((mxx - mx * mx) * (myy - my * my))
    return corr[0], corr[1:]


def _check_estimator_args(s: float, t: float, n_paths: int,
                          allow_equal: bool = False) -> None:
    ordered = (0.0 < s <= t) if allow_equal else (0.0 < s < t)
    if not ordered:
        raise ValueError(f"need 0 < s {'<=' if allow_equal else '<'} t, "
                         f"got s={s}, t={t}")
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")


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
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    t_unique, col = np.unique(t_grid, return_inverse=True)
    _check_estimator_args(s, float(t_unique[0]), n_paths)
    ys, yt = _sample_pairs(spec, s, t_unique, n_paths, master_seed, n_workers)
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
    """Pearson correlation of (Y_s, Y_t), stderr by nonparametric bootstrap.

    The bootstrap uses 200 resamples drawn from a reserved stream id, so it
    never collides with block streams and is reproducible.  The degenerate
    case s == t returns correlation exactly 1.
    """
    _check_estimator_args(s, t, n_paths, allow_equal=True)
    if s == t:
        return MomentEstimate(1.0, 0.0, n_paths)
    ys, yt = _sample_pairs(spec, s, [t], n_paths, master_seed, n_workers)
    corr, reps = _corr_with_bootstrap(ys[0], yt[0][:, None], master_seed)
    return MomentEstimate(float(corr[0]), float(reps[:, 0].std(ddof=1)), n_paths)


def estimate_increment_sm(spec: TimeChangedSpec, s: float, t: float, n_paths: int,
                          master_seed: int, n_workers: int = 1) -> MomentEstimate:
    """Sample mean of (Y_t - Y_s)**2 with its standard error."""
    _check_estimator_args(s, t, n_paths)
    ys, yt = _sample_pairs(spec, s, [t], n_paths, master_seed, n_workers)
    sq = (yt[0] - ys[0]) ** 2
    return MomentEstimate(float(sq.mean()),
                          float(sq.std(ddof=1) / math.sqrt(n_paths)), n_paths)


def corr_curve_oracle(spec: TimeChangedSpec, s: float, t_grid) -> list[tuple[float, float]]:
    """Noise-free correlation curve Corr(Y_s, Y_t) from the exact oracles."""
    var_s = exact_var_oracle(spec, s)
    out = []
    for t in np.asarray(t_grid, dtype=float):
        if t <= s:
            raise ValueError("all grid times must exceed s")
        corr = exact_cov_oracle(spec, s, t) / math.sqrt(exact_var_oracle(spec, t) * var_s)
        out.append((float(t), corr))
    return out


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
    its log and the MC slope are undefined.  ``mc_slope_boot_stderr`` is
    the paired-bootstrap error of the MC slope (None when undefined);
    ``mc_fit.slope_stderr`` is the OLS residual error, which ignores the
    Monte Carlo noise.
    """

    s: float
    predicted: DecayPrediction
    oracle_curve: list[tuple[float, float]]
    mc_curve: list[tuple[float, float, float]]
    oracle_fit: DecayFit
    mc_fit: DecayFit | None
    mc_slope_boot_stderr: float | None
    is_lrd: bool
    n_paths: int
    master_seed: int


def _slope_boot_stderr(t: np.ndarray, reps: np.ndarray) -> float | None:
    """Standard deviation of the OLS slope of log(corr) on log(t) over the
    bootstrap replicate curves ``reps`` (resamples x grid times).

    Each replicate is a whole curve on one set of resampled paths, so the
    spread includes the Monte Carlo noise and its correlation across t.
    None when a replicate correlation is not positive: its log is undefined.
    """
    if not np.all(reps > 0.0):
        return None
    xc = np.log(t) - np.log(t).mean()
    slopes = np.log(reps) @ xc / (xc @ xc)
    return float(slopes.std(ddof=1))


def lrd_report(spec: TimeChangedSpec, s: float, t_grid, n_paths: int,
               master_seed: int, n_workers: int = 1) -> LrdReport:
    """Assemble predictions, oracle and Monte Carlo decay curves, and fits.

    Each path is sampled once, on the whole grid [s, t_1, ...], so every
    grid time sees the same paths (exact common random numbers), which
    keeps the MC curve parallel to the oracle curve and sharpens the slope
    comparison.  One set of bootstrap resamples of the paths gives the
    stderr at every grid time and the paired-bootstrap slope error
    ``mc_slope_boot_stderr``.  The grid may be unsorted or repeat a time;
    the MC curve keeps its order, one row per grid time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    predicted = theory.corr_decay_prediction(spec)
    oracle_curve = corr_curve_oracle(spec, s, t_grid)
    oracle_fit = fit_decay(oracle_curve)
    # path grids must be nondecreasing: sample the distinct times in order
    # and map each grid time back to its column
    t_unique, col = np.unique(t_grid, return_inverse=True)
    _check_estimator_args(s, float(t_unique[0]), n_paths)
    paths = _sample_paths(spec, np.concatenate([[s], t_unique]), n_paths,
                          master_seed, n_workers)
    corr, reps = _corr_with_bootstrap(paths[:, 0], paths[:, 1:], master_seed)
    corr, reps = corr[col], reps[:, col]
    mc_curve = [(float(t), float(c), float(se))
                for t, c, se in zip(t_grid, corr, reps.std(axis=0, ddof=1))]
    mc_fit = (fit_decay([(t, c) for t, c, _ in mc_curve]) if np.all(corr > 0.0)
              else None)
    return LrdReport(
        s=float(s),
        predicted=predicted,
        oracle_curve=oracle_curve,
        mc_curve=mc_curve,
        oracle_fit=oracle_fit,
        mc_fit=mc_fit,
        mc_slope_boot_stderr=_slope_boot_stderr(t_grid, reps),
        is_lrd=theory.is_lrd(spec),
        n_paths=n_paths,
        master_seed=master_seed,
    )
