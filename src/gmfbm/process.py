"""The generalized mixed process a*B^H1 + b*B^H2, its composition with a
random clock, and exact (semi-analytic) second-order oracles.

With the clock S independent of both motions, conditioning on S at two
times and using stationary increments of each motion gives

    Cov(Y_s, Y_t) = a**2/2 [m(t,2H1) + m(s,2H1) - m(t-s,2H1)]
                  + b**2/2 [m(t,2H2) + m(s,2H2) - m(t-s,2H2)]

where m(t,q) = E[S_t**q]; the cross term vanishes because the two motions
are independent and centered.  These oracle values are the ground truth the
Monte Carlo layer is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gmfbm import fbm
from gmfbm.randkit import RngStream
from gmfbm.subordinators import (
    SubordinatorSpec,
    sample_path,
    subordinator_moment,
)


class CancellationError(RuntimeError):
    """An oracle value that is exactly positive came out <= 0 or NaN, or
    rounding its cancelling terms can move it by over CANCELLATION_TOLERANCE."""


# the unit roundoff of each stored V value, and the largest rounding bound,
# relative to Cov, that an oracle covariance or correlation may carry
UNIT_ROUNDOFF = 2.0 ** -53
CANCELLATION_TOLERANCE = 1e-3


@dataclass(frozen=True)
class GmfbmParams:
    """Mixing coefficients and Hurst pair of a*B^H1 + b*B^H2.

    Construction canonicalizes to h1 <= h2 by swapping (a, h1) with (b, h2)
    when needed; the law of the sum is unchanged.
    """

    a: float
    b: float
    h1: float
    h2: float

    def __post_init__(self):
        h1 = fbm.as_hurst(self.h1)
        h2 = fbm.as_hurst(self.h2)
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"a and b must be finite, got a={a}, b={b}")
        if a == 0.0 and b == 0.0:
            raise ValueError("a and b must not both be zero")
        if h1 > h2:
            a, b = b, a
            h1, h2 = h2, h1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    def increment_variance(self, lag, out=None):
        """a**2 lag**2H1 + b**2 lag**2H2; into ``out`` (may be ``lag``) if given.

        A variance beyond the float range raises ``OverflowError``, where the
        samplers would take an inf for a repeated time.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            second = np.power(lag, 2.0 * self.h2)
            second *= self.b ** 2
            out = np.power(lag, 2.0 * self.h1, out=out)
            out *= self.a ** 2
            out += second
        if not np.isfinite(out).all():
            raise OverflowError("the increment variance a**2 lag**2H1 + b**2 lag**2H2 is "
                                "beyond the float range at a lag the clock reached")
        return out


@dataclass(frozen=True)
class TimeChangedSpec:
    """The mixed process run on a subordinator clock."""

    gmfbm: GmfbmParams
    subordinator: SubordinatorSpec


def sample_timechanged_pair(spec: TimeChangedSpec, s: float, t,
                            stream: RngStream, size: int):
    """Exact draws of (Y_s, Y_t) for 0 < s < t at O(1) cost per path and time.

    ``t`` is an increasing 1-d grid above s.  The clock is sampled once on
    [s, *t]: S_s, then one independent increment per gap; given it, each
    (Y_s, Y_t) is one exact bivariate Gaussian draw at (S_s, S_t), two
    normals per path and grid time, all from ``stream`` in that order.  The
    grid times share the clock path.  The results have shape (size, len(t))
    for the ``size`` paths of a block.  This is the workhorse of the Monte
    Carlo covariance estimator.
    """
    t_arr = np.asarray(t, dtype=float)
    times = np.append(s, t_arr)
    if t_arr.ndim != 1 or t_arr.size == 0 or not (s > 0.0 and np.all(np.diff(times) > 0.0)):
        raise ValueError(f"need 0 < s < t, t an increasing 1-d grid, got s={s}, t={t}")
    clock = sample_path(spec.subordinator, times, stream, size=size)
    # var goes positionally: the benchmark tracer's work counters call it h
    return fbm.sample_fbm_pair(clock[:, :1], clock[:, 1:],
                               spec.gmfbm.increment_variance, stream)


def sample_timechanged_path_with_clock(spec: TimeChangedSpec, grid,
                                       stream: RngStream, size: int):
    """Sample the clock on the grid and the mixed process at the clock times.

    Returns the arrays (clock_values, values), each of shape
    (size, len(grid)) with one path per row; the CLI uses both.  The clock
    and then the values are drawn from ``stream`` in that order; given the
    clock the mixture is one Gaussian, drawn exactly by one factorization
    and one normal vector per path.
    """
    clock = sample_path(spec.subordinator, grid, stream, size=size)
    return clock, fbm.fbm_values_at_times(clock, spec.gmfbm.increment_variance, stream)


def sample_timechanged_path(spec: TimeChangedSpec, grid, stream: RngStream,
                            size: int) -> np.ndarray:
    """Sample ``size`` clock paths on the grid, then the mixed process at
    the clock times: shape (size, len(grid))."""
    return sample_timechanged_path_with_clock(spec, grid, stream, size=size)[1]


# ---------------------------------------------------------------------------
# Exact second-order oracles
# ---------------------------------------------------------------------------

def exact_var_oracle(spec: TimeChangedSpec, t):
    """Var(Y_t) = a**2 m(t, 2H1) + b**2 m(t, 2H2), for one time (a float
    result) or a 1-d array of times (an array, one moment call per order).

    The variance is exactly positive, so one that underflows to 0 (as at
    a = b = 1e-200, where a**2 does) raises ``FloatingPointError``, naming
    the first such time.
    """
    p = spec.gmfbm
    var = (p.a ** 2 * subordinator_moment(spec.subordinator, t, 2.0 * p.h1)
           + p.b ** 2 * subordinator_moment(spec.subordinator, t, 2.0 * p.h2))
    zero = np.ravel(var) == 0.0
    if zero.any():
        raise FloatingPointError(f"Var(Y_t) = a**2 m(t, 2H1) + b**2 m(t, 2H2) underflows to 0 "
                                 f"at t = {np.ravel(t)[np.argmax(zero)]:.17g}")
    return var


def _cov_oracle(spec: TimeChangedSpec, s: float, t: np.ndarray,
                correlation: bool = False) -> np.ndarray:
    # Cov(Y_s, Y_t) = (V(t) + V(s) - V(|t-s|)) / 2 for a 1-d t, over
    # sqrt(V(t) V(s)) for the correlation, from one exact_var_oracle call
    # over the positive times, which raises if a V underflows to 0;
    # V(0) = Var(Y_0) = 0.  Both values are exactly positive for s, t > 0,
    # so the first <= 0 or NaN raises, as does the first Cov that rounding
    # the three V values can move by more than CANCELLATION_TOLERANCE of itself
    every = np.concatenate([[s], t, np.abs(t - s)])
    var = np.zeros(every.size)
    var[every > 0.0] = exact_var_oracle(spec, every[every > 0.0])
    var_s, var_t, var_lag = var[0], var[1:t.size + 1], var[t.size + 1:]
    values = cov = 0.5 * (var_t + var_s - var_lag)
    bound = UNIT_ROUNDOFF * (cov + var_lag)  # u (V(t) + V(s) + V(t-s)) / 2
    if correlation:
        # V(s) is scaled by 4**k into [1/2, 2), so that the product cannot
        # underflow, and the quotient back by 2**k; powers of 2 scale
        # exactly, so the bits are those of values / sqrt(V(t) V(s))
        k = -(math.frexp(var_s)[1] // 2)
        values = np.ldexp(values / np.sqrt(var_t * math.ldexp(var_s, 2 * k)), k)
    bad = ~(values > 0.0) | (bound > CANCELLATION_TOLERANCE * cov)
    if bad.any():
        j = np.argmax(bad)
        name = "correlation" if correlation else "covariance"
        if values[j] > 0.0:
            raise CancellationError(
                f"oracle {name} at t = {t[j]:.17g} has a rounding error bound of "
                f"{bound[j] / cov[j]:.3g} of its value, above {CANCELLATION_TOLERANCE:g}: "
                f"V(t) + V(s) - V(t-s) cancels")
        raise CancellationError(
            f"oracle {name} {values[j]:.3g} at t = {t[j]:.17g} is not positive: "
            f"V(t) + V(s) - V(t-s) lost its digits to cancellation")
    return values


def exact_cov_oracle(spec: TimeChangedSpec, s: float, t):
    """Cov(Y_s, Y_t) = (V(t) + V(s) - V(|t-s|)) / 2 with V = exact_var_oracle.

    ``t`` is one time (a float result) or a 1-d grid of times (an array).
    V is evaluated at the positive times of {s}, t and |t-s|, in one call.
    Stationary clock increments turn E[|S_t - S_s|**2H] into m(|t-s|, 2H).
    The covariance is positive; a value <= 0 or NaN, or one that rounding
    the V values can move by over 1e-3 of it, raises ``CancellationError``.
    """
    t_arr = np.asarray(t, dtype=float)
    if not (s > 0.0 and t_arr.ndim <= 1 and np.all(t_arr > 0.0)):
        raise ValueError(f"need s > 0 and t > 0, got s={s}, t={t}")
    cov = _cov_oracle(spec, s, t_arr.ravel())
    return float(cov[0]) if t_arr.ndim == 0 else cov


def corr_curve_oracle(spec: TimeChangedSpec, s: float, t_grid) -> list[tuple[float, float]]:
    """Noise-free correlation curve, (t, Corr(Y_s, Y_t)) per grid time t > s.

    Corr = Cov / sqrt(V(t) V(s)), with Cov formed as in ``exact_cov_oracle``
    from the same one exact_var_oracle call and with the same check; a failed
    check raises ``CancellationError`` naming the first such grid time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not (s > 0.0 and t_grid.ndim == 1 and t_grid.size > 0 and np.all(t_grid > s)):
        raise ValueError(f"need s > 0 and a nonempty 1-d grid of times above s, "
                         f"got s={s} and a grid of shape {t_grid.shape}")
    corr = _cov_oracle(spec, s, t_grid, correlation=True)
    return [(float(t), float(c)) for t, c in zip(t_grid, corr)]


def exact_increment_second_moment(spec: TimeChangedSpec, s: float, t: float) -> float:
    """E[(Y_t - Y_s)**2] = Var(Y_t) + Var(Y_s) - 2 Cov(Y_s, Y_t).

    By clock-increment stationarity this collapses to
    V(t-s) = a**2 m(t-s, 2H1) + b**2 m(t-s, 2H2), which is what is computed.
    """
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    return exact_var_oracle(spec, t - s)
