"""Subordinators (random clocks): path sampling and moment oracles.

Two families are supported:

* Tempered stable, index alpha in (0,1) and tempering lambda > 0, with
  Laplace transform per unit time exp(-((lambda+u)**alpha - lambda**alpha)).
* Gamma process with parameter nu > 0: the increment over t is
  Gamma(shape t/nu, rate 1).

Moments E[X_t**q] come in three flavours: exact (Gamma-function ratio for
the Gamma family, Laplace-transform quadrature for tempered stable),
large-t asymptotic (r*t)**q with r = ``SubordinatorSpec.rate`` the mean
clock rate (1/nu resp. alpha*lambda**(alpha-1)), and Monte Carlo via the
samplers in ``randkit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gmfbm.fbm import TimeGrid, as_time_grid
from gmfbm.randkit import (
    RngStream,
    sample_gamma,
    sample_tempered_stable_increment,
)

_QUAD_EPSREL = 1e-10
_REL_TOL = 1e-8
_ABS_FLOOR = 1e-14


class QuadratureError(RuntimeError):
    """Fractional-moment quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class TssParams:
    """Tempered stable subordinator parameters."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma process parameter; increment over t has shape t/nu, rate 1."""

    nu: float

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class SubordinatorSpec:
    """Tagged choice of subordinator family plus its parameters."""

    kind: str
    params: TssParams | GammaParams

    def __post_init__(self):
        if self.kind == "tss":
            if not isinstance(self.params, TssParams):
                raise ValueError("kind 'tss' requires TssParams")
        elif self.kind == "gamma":
            if not isinstance(self.params, GammaParams):
                raise ValueError("kind 'gamma' requires GammaParams")
        else:
            raise ValueError(f"unknown subordinator kind {self.kind!r}")

    @property
    def rate(self) -> float:
        """Mean clock rate E[X_t] / t: alpha*lam**(alpha-1) (TSS), 1/nu (Gamma)."""
        if self.kind == "gamma":
            return 1.0 / self.params.nu
        return tss_mean(self.params, 1.0)

    @classmethod
    def tss(cls, alpha: float, lam: float) -> "SubordinatorSpec":
        return cls("tss", TssParams(alpha, lam))

    @classmethod
    def gamma(cls, nu: float) -> "SubordinatorSpec":
        return cls("gamma", GammaParams(nu))


@dataclass(frozen=True)
class SubordinatorPath:
    """Sampled clock: nondecreasing nonnegative values on a time grid.

    ``values`` has shape (len(grid),) for one path or (B, len(grid)) for a
    block of B paths, one row per path.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != len(self.grid):
            raise ValueError("values must match the grid length")
        if np.any(values[..., 0] < 0.0) or np.any(np.diff(values, axis=-1) < 0.0):
            raise ValueError("subordinator values must be nonnegative and nondecreasing")
        object.__setattr__(self, "values", values)


def sample_increment(spec: SubordinatorSpec, dt: float, stream: RngStream, size=None):
    """Increment of the subordinator over a span dt (dt = 0 gives 0)."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return 0.0 if size is None else np.zeros(size)
    if spec.kind == "gamma":
        return sample_gamma(stream, dt / spec.params.nu, size=size)
    return sample_tempered_stable_increment(
        stream, spec.params.alpha, spec.params.lam, dt, size=size)


def sample_path(spec: SubordinatorSpec, grid, stream: RngStream,
                size=None) -> SubordinatorPath:
    """Sample the clock on a grid by summing independent increments over gaps.

    Each gap takes one vector draw across the block; ``size`` paths give
    values of shape (size, len(grid)), and ``size=None`` one path.
    """
    grid = as_time_grid(grid)
    count = 1 if size is None else size
    gaps = np.diff(grid.times, prepend=0.0)
    incs = np.column_stack([sample_increment(spec, g, stream, size=count)
                            for g in gaps])
    values = np.cumsum(incs, axis=-1)
    return SubordinatorPath(grid, values[0] if size is None else values)


# ---------------------------------------------------------------------------
# Gamma moments
# ---------------------------------------------------------------------------

def gamma_moment(params: GammaParams, t: float, q: float) -> float:
    """Exact E[Gamma_t**q] = Gamma(t/nu + q) / Gamma(t/nu), via log-Gamma."""
    if not t > 0.0 or not q > 0.0:
        raise ValueError("need t > 0 and q > 0")
    x = t / params.nu
    return math.exp(math.lgamma(x + q) - math.lgamma(x))


# ---------------------------------------------------------------------------
# Tempered stable moments
# ---------------------------------------------------------------------------

def _laplace_exponent(alpha: float, lam: float, t: float, u: float) -> float:
    # t*((lam+u)**alpha - lam**alpha), evaluated without cancellation
    return t * lam ** alpha * math.expm1(alpha * math.log1p(u / lam))


def tss_mean(params: TssParams, t: float) -> float:
    return t * params.alpha * params.lam ** (params.alpha - 1.0)


def tss_variance(params: TssParams, t: float) -> float:
    return t * params.alpha * (1.0 - params.alpha) * params.lam ** (params.alpha - 2.0)


def tss_moment(params: TssParams, t: float, q: float) -> float:
    """High-precision E[X_t**q] for the tempered stable clock, 0 < q <= 2.

    q = 1 and q = 2 come from exact cumulants.  Fractional orders combine
    the Gamma-integral for a negative power, x**(-p) =
    1/Gamma(p) int u**(p-1) e**(-ux) du, with the exact mean (or second
    moment) of the transform phi(u) = exp(-psi(u)):

        q in (0,1):  E[X**q] = E[X * X**-(1-q)]
                   = 1/Gamma(1-q) int_0^inf u**(-q) psi'(u) phi(u) du
        q in (1,2):  E[X**q] = E[X**2 * X**-(2-q)]
                   = 1/Gamma(2-q) int_0^inf u**(1-q) (psi'(u)**2 - psi''(u))
                     phi(u) du

    Both integrands are positive and smooth with exponential decay, the
    endpoint singularity u**(p-1) is handled by an algebraic-weight
    quadrature rule, and the formulas are continuous at q = 1 and q = 2.
    """
    # scipy is imported here, where the quadrature runs, so that commands
    # that never need it do not pay for loading it
    from scipy.integrate import quad

    if not t > 0.0:
        raise ValueError("need t > 0")
    if not 0.0 < q <= 2.0:
        raise ValueError(f"q must lie in (0, 2], got {q}")
    alpha, lam = params.alpha, params.lam
    m1 = tss_mean(params, t)
    if q == 1.0:
        return m1
    if q == 2.0:
        return m1 * m1 + tss_variance(params, t)

    var = tss_variance(params, t)
    if q < 1.0:
        p = 1.0 - q

        def smooth(u: float) -> float:
            # psi'(u) phi(u), all through log1p so nothing cancels
            x = u / lam
            return m1 * math.exp((alpha - 1.0) * math.log1p(x)
                                 - _laplace_exponent(alpha, lam, t, u))
    else:
        p = 2.0 - q

        def smooth(u: float) -> float:
            # (psi'(u)**2 - psi''(u)) phi(u): two positive terms
            x = u / lam
            log1px = math.log1p(x)
            psi = _laplace_exponent(alpha, lam, t, u)
            return (m1 * m1 * math.exp(2.0 * (alpha - 1.0) * log1px - psi)
                    + var * math.exp((alpha - 2.0) * log1px - psi))

    # integrand support ends where phi has decayed to exp(-120); decay scale
    # of psi is ~1/m1 and its curvature scale is lam
    u_cut = lam * math.expm1(math.log1p(120.0 / (t * lam ** alpha)) / alpha)
    c0 = min(1.0 / m1, lam, u_cut)
    total = 0.0
    err_total = 0.0
    # weighted piece: integrates smooth(u) * u**(p-1) with the singular
    # factor built into the rule
    val, err = quad(smooth, 0.0, c0, weight="alg", wvar=(p - 1.0, 0.0),
                    epsabs=_ABS_FLOOR, epsrel=_QUAD_EPSREL, limit=200)
    total += val
    err_total += err
    lo = c0
    for hi in sorted({10.0 * c0, 100.0 * c0, lam, u_cut}):
        if hi <= lo or lo >= u_cut:
            continue
        hi = min(hi, u_cut)
        val, err = quad(lambda u: smooth(u) * u ** (p - 1.0), lo, hi,
                        epsabs=_ABS_FLOOR, epsrel=_QUAD_EPSREL, limit=200)
        total += val
        err_total += err
        lo = hi
    prefactor = math.exp(-math.lgamma(p))
    result = prefactor * total
    if err_total * prefactor > max(_REL_TOL * abs(result), _ABS_FLOOR):
        raise QuadratureError(
            f"moment quadrature error {err_total * prefactor:g} exceeds tolerance "
            f"for alpha={alpha}, lambda={lam}, t={t}, q={q} (value {result:g})")
    return result


# ---------------------------------------------------------------------------
# Uniform dispatch
# ---------------------------------------------------------------------------

def subordinator_moment(spec: SubordinatorSpec, t: float, q: float) -> float:
    """Exact q-th moment of the clock at time t, dispatched by kind."""
    if spec.kind == "gamma":
        return gamma_moment(spec.params, t, q)
    return tss_moment(spec.params, t, q)


def subordinator_moment_asymptotic(spec: SubordinatorSpec, t: float, q: float) -> float:
    """Large-t approximation (rate*t)**q of the q-th clock moment, with
    ``spec.rate`` the mean clock rate."""
    if not t > 0.0 or not q > 0.0:
        raise ValueError("need t > 0 and q > 0")
    return (spec.rate * t) ** q
