"""Subordinators (random clocks): path sampling and moment oracles.

Two families are supported:

* Tempered stable, index alpha in (0,1) and tempering lambda > 0, with
  Laplace transform per unit time exp(-((lambda+u)**alpha - lambda**alpha)).
* Gamma process with parameter nu > 0: the increment over t is
  Gamma(shape t/nu, rate 1).

Moments E[X_t**q] come in three flavours: exact (Gamma-function ratio for
the Gamma family, Bell polynomials and quadrature for tempered stable),
large-t asymptotic (r*t)**q with r = ``SubordinatorSpec.rate`` the mean
clock rate (1/nu resp. alpha*lambda**(alpha-1)), and Monte Carlo via the
samplers in ``randkit``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from gmfbm.randkit import (
    RngStream,
    sample_gamma,
    sample_tempered_stable_increment,
)

_REL_TOL = 1e-8
# Gauss-Jacobi nodes on [0, c0], Gauss-Legendre nodes per panel and panels
# per decade of u on [c0, u_cut]; the error check reruns both rules with
# half the nodes.  _MAX_PANELS bounds the work as alpha -> 0.
_HEAD_NODES = 24
_PANEL_NODES = 24
_PANELS_PER_DECADE = 2
_MAX_PANELS = 4096
_TSS_MAX_ORDER = 4  # the highest order tss_moment takes


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
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma process parameter; increment over t has shape t/nu, rate 1."""

    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")


@dataclass(frozen=True)
class SubordinatorSpec:
    """A subordinator family, named by the type of its parameters."""

    params: TssParams | GammaParams

    def __post_init__(self):
        if not isinstance(self.params, (TssParams, GammaParams)):
            raise ValueError("params must be TssParams or GammaParams, "
                             f"got {type(self.params).__name__}")

    @property
    def kind(self) -> str:
        """``"tss"`` for ``TssParams``, ``"gamma"`` for ``GammaParams``."""
        return "gamma" if isinstance(self.params, GammaParams) else "tss"

    @property
    def rate(self) -> float:
        """Mean clock rate E[X_t] / t: alpha*lam**(alpha-1) (TSS), 1/nu (Gamma)."""
        if self.kind == "gamma":
            return 1.0 / self.params.nu
        return _tss_bell(self.params, 1.0, 1)[0][0]

    @classmethod
    def tss(cls, alpha: float, lam: float) -> "SubordinatorSpec":
        return cls(TssParams(alpha, lam))

    @classmethod
    def gamma(cls, nu: float) -> "SubordinatorSpec":
        return cls(GammaParams(nu))


def sample_increment(spec: SubordinatorSpec, dt: float, stream: RngStream,
                     size: int) -> np.ndarray:
    """``size`` increments of the subordinator over a span dt (dt = 0 gives 0)."""
    if not dt >= 0.0:
        raise ValueError("dt must be nonnegative")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    if dt == 0.0:
        return np.zeros(size)
    if spec.kind == "gamma":
        return sample_gamma(stream, dt / spec.params.nu, size=size)
    return sample_tempered_stable_increment(
        stream, spec.params.alpha, spec.params.lam, dt, size=size)


def sample_path(spec: SubordinatorSpec, times, stream: RngStream,
                size: int) -> np.ndarray:
    """Sample ``size`` clock paths at nondecreasing ``times`` >= 0 by summing
    independent increments over the gaps (a repeated time gives a zero gap).

    Returns the nonnegative, nondecreasing clock values, shape
    (size, len(times)) with one row per path.  Each gap takes one vector
    draw across the block.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a nonempty finite 1-d array")
    gaps = np.diff(times, prepend=0.0)
    incs = np.column_stack([sample_increment(spec, g, stream, size=size)
                            for g in gaps])
    return np.cumsum(incs, axis=-1)


# ---------------------------------------------------------------------------
# Gamma moments
# ---------------------------------------------------------------------------

def _time_array(t) -> np.ndarray:
    # one time or a 1-d array of times, each finite and positive
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim > 1 or not np.all(np.isfinite(t_arr) & (t_arr > 0.0)):
        raise ValueError(f"need finite t > 0, one time or a 1-d array, got t={t}")
    return t_arr


# Bernoulli numbers B_0..B_12, for the large-x series of ln Gamma(x + q) - ln Gamma(x)
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0,
              -691 / 2730)
_GAMMA_SERIES_TERMS = 10


def _lgamma_ratio_series(q: float) -> tuple[list[float], float]:
    """The coefficients c_1..c_10 of ln Gamma(x + q) - ln Gamma(x) = q ln x +
    sum_k c_k x**-k (DLMF 5.11.8), c_k = (-1)**(k+1) (B_{k+1}(q) - B_{k+1}(0))
    / (k (k+1)), and the x from which the omitted terms are below 2**-53.

    That switch is set by the first two omitted terms, c_11 and c_12, since
    either one can vanish alone (B_13(q) does at q = 1/2).  Where q is so
    large (about 1e22 and up) that they leave the float range, it is inf.
    """
    coeffs = []
    for k in range(1, _GAMMA_SERIES_TERMS + 3):
        poly = 0.0  # (B_{k+1}(q) - B_{k+1}(0)) / q by Horner's rule
        for j in range(k + 1):
            poly = poly * q + math.comb(k + 1, j) * _BERNOULLI[j]
        coeffs.append((-1) ** (k + 1) * q * poly / (k * (k + 1)))
    switch = max((abs(coeffs[k - 1]) * 2.0**53) ** (1.0 / k)
                 for k in (_GAMMA_SERIES_TERMS + 1, _GAMMA_SERIES_TERMS + 2))
    return coeffs[:_GAMMA_SERIES_TERMS], switch


def _inverse_power_series(coeffs: list[float], x: float) -> float:
    # sum_k coeffs[k-1] x**-k, by Horner's rule in 1/x
    total = 0.0
    for c in reversed(coeffs):
        total = (total + c) / x
    return total


def gamma_moment(params: GammaParams, t, q: float):
    """Exact E[Gamma_t**q] = Gamma(x + q) / Gamma(x), x = t/nu: x and x(x + 1)
    at q = 1 and 2, as in ``tss_moment``.  Other orders take x**q times the
    exponential of the large-x series of ``_lgamma_ratio_series`` from its
    switch on, and exp(lgamma(x + q) - lgamma(x)) below it, where that
    difference loses only the few digits of lgamma(x) (the switch is below
    50 for q <= 3).

    ``t`` is one time (a float result) or a 1-d array of times (an array).
    """
    t_arr = _time_array(t)
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    # in Python floats, where a value beyond the float range becomes inf or
    # NaN with no numpy warning, and then raises below
    xs = [u / params.nu for u in t_arr.ravel().tolist()]
    if q in (1.0, 2.0):
        out = np.array([x if q == 1.0 else x * (x + 1.0) for x in xs])
    else:
        coeffs, switch = _lgamma_ratio_series(q)
        try:
            out = np.array([math.pow(x, q) * math.exp(_inverse_power_series(coeffs, x))
                            if x >= switch else math.exp(math.lgamma(x + q) - math.lgamma(x))
                            for x in xs])
        except OverflowError:  # math.pow and math.exp raise where x * x returns inf
            out = np.array(math.inf)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"the order-{q} moment is beyond the float range at t/nu = {max(xs)}")
    return float(out[0]) if t_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Tempered stable moments
# ---------------------------------------------------------------------------

def _tss_bell(params: TssParams, ts, n: int):
    """The cumulants kappa_j t = t alpha (1-alpha)...(j-1-alpha) lam**(alpha-j), j <= n,
    multiplied in that order, and the partial Bell polynomials B_{n,k}(kappa t), k <= n,
    by B_{m,k} = sum_i binom(m-1, i-1) kappa_i t B_{m-i,k-1} (Comtet 1974, 3.3)."""
    alpha, kappa, c = params.alpha, [], ts * params.alpha
    bell = [[]]  # bell[m][k-1] = B_{m,k}
    for m in range(1, n + 1):
        try:  # a float ** beyond the float range raises; the callers check for inf
            kappa.append(c * params.lam ** (alpha - m))
        except OverflowError:
            kappa.append(c * math.inf)
        c = c * (m - alpha)
        bell.append([kappa[-1]] + [sum(math.comb(m - 1, i - 1) * kappa[i - 1] * bell[m - i][k - 2]
                                   for i in range(1, m - k + 2)) for k in range(2, m + 1)])
    return kappa, bell[n]


@functools.lru_cache(maxsize=64)
def _gauss_rule(p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, 1] for the weight x**(p-1), p > 0.

    Golub-Welsch (Math. Comp. 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the Jacobi polynomials with exponents (0, p-1) shifted
    to [0, 1], and the weights are the squared first eigenvector components
    times int_0^1 x**(p-1) dx = 1/p.  p = 1 is Gauss-Legendre.  Built on
    first use and cached per (p, n).
    """
    k = np.arange(1.0, n)
    # recurrence coefficients of the monic Jacobi polynomials on [-1, 1]
    # with weight (1+y)**(p-1), mapped to [0, 1] by x = (1+y)/2.  They are
    # written in p with the integer parts summed first, so that at k = 1
    # the factors k-1+p and 2k-2+p are p itself and p near 0 keeps its digits
    diag = np.empty(n)
    diag[0] = (p - 1.0) / (p + 1.0)
    diag[1:] = (p - 1.0) ** 2 / ((2.0 * k - 1.0 + p) * (2.0 * k + 1.0 + p))
    off_sq = (4.0 * k * k * (k - 1.0 + p) ** 2
              / ((2.0 * k - 1.0 + p) ** 2 * (2.0 * k + p) * (2.0 * k - 2.0 + p)))
    off = 0.5 * np.sqrt(off_sq)
    nodes, vecs = np.linalg.eigh(np.diag(0.5 * (1.0 + diag)) + np.diag(off, 1)
                                 + np.diag(off, -1))
    weights = vecs[0] ** 2 / p
    # the eigenvalues carry an absolute error of about one ulp of 1, which
    # for p near 0 can put the smallest node at or below 0
    nodes = np.clip(nodes, np.finfo(float).tiny, 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def tss_moment(params: TssParams, t, q: float):
    """High-precision E[X_t**q] for the tempered stable clock, 0 < q <= 4.

    One rule for every order.  Write n = ceil(q), p = n - q and x = 1 +
    u/lambda.  The law tilted by e**(-uX) has cumulants kappa_j t
    x**(alpha-j), so a monomial of the partial Bell polynomial B_{n,k} of
    ``_tss_bell`` carries x**(k alpha - n), and with phi(u) = exp(-psi(u))

        E[X**n e**(-uX)] = phi(u) sum_k B_{n,k}(kappa t) x**(k alpha - n).

    An integer order is that sum at u = 0.  Any other order puts
    X**(-p) = 1/Gamma(p) int u**(p-1) e**(-uX) du into E[X**n X**(-p)]:

        E[X**q] = 1/Gamma(p) sum_k B_{n,k} int_0^inf u**(p-1) x**(k alpha - n) phi(u) du.

    Each integrand is u**(p-1) times a positive function smooth(u) that is
    analytic on the positive axis (its nearest singularity is u = -lambda)
    and decays like exp(-psi(u)); the rule is continuous at the integers.
    The integral is cut where psi = 120 and computed with numpy alone, in
    two pieces:

    * on [0, c0], c0 = min(1/E[X_t], lambda), a Gauss-Jacobi rule with the
      weight u**(p-1) built in, so the endpoint singularity costs nothing;
    * on [c0, u_cut], Gauss-Legendre panels uniform in log u.  At small
      alpha the integrand spreads over tens of decades (u_cut is about
      lambda * (120/(t lambda**alpha))**(1/alpha)), so the panel count
      grows with the number of decades, and every node is handled through
      log u so nothing overflows.

    The error estimate is the gap to the same panels with half the nodes;
    if it exceeds ``_REL_TOL`` relative, or the result is not a finite
    positive number, ``QuadratureError`` names the failing t and no value
    is returned.  A moment at an integer order, or a quantity the
    quadrature starts from, beyond the float range raises ``OverflowError``.

    ``t`` is one time (a float result) or a 1-d array of times (an array).
    The nodes of every t are evaluated in one numpy pass and summed per t.
    """
    t_arr = _time_array(t)
    if not 0.0 < q <= _TSS_MAX_ORDER:
        raise ValueError(f"q must lie in (0, {_TSS_MAX_ORDER}], got {q}")
    ts, n = t_arr.ravel(), math.ceil(q)
    # a value beyond the float range becomes inf with no numpy warning, and
    # then raises below, before the quadrature sees it
    with np.errstate(over="ignore"):
        kappa, bell = _tss_bell(params, ts, n)
        out = sum(bell)
        scale = ts * params.lam ** params.alpha
    setup = [out] if q == n else kappa + [scale]
    what = "moment" if q == n else "moment's set-up (the clock's mean, variance or t lam**alpha)"
    if not np.all(np.isfinite(setup)):
        raise OverflowError(f"the order-{q} {what} is beyond the float range at t = {ts.max()}")
    if q != n:
        out = _tss_fractional_moment(params, ts, q, n, kappa[0], bell, scale)
    return float(out[0]) if t_arr.ndim == 0 else out


def _tss_fractional_moment(params: TssParams, ts: np.ndarray, q: float, n: int,
                           m1: np.ndarray, bell: list, scale: np.ndarray) -> np.ndarray:
    # the quadrature of tss_moment at a fractional q, n = ceil(q), at the
    # times ts, from the mean, the Bell polynomials B_{n,k} and t lam**alpha
    alpha, lam = params.alpha, params.lam
    p = n - q
    log_lam = math.log(lam)
    # per t, the start s0 = log c0 of the panels, their count and width
    s0, panels, width = [], [], []
    for t, t_scale, t_m1 in zip(ts.tolist(), scale.tolist(), m1.tolist()):
        # the integrand ends where phi has decayed to exp(-120); decay scale
        # of psi is ~1/m1 and its curvature scale is lam.  log u_cut is
        # formed without u_cut itself, which overflows for alpha near 0;
        # below reach 1e-8, exp(-reach) rounds toward 1 and expm1 is exact
        reach = math.log1p(120.0 / t_scale) / alpha
        s_cut = log_lam + (reach + math.log1p(-math.exp(-reach)) if reach > 1e-8
                           else math.log(math.expm1(reach)))
        s0.append(math.log(min(1.0 / t_m1, lam)))
        panels.append(math.ceil(_PANELS_PER_DECADE * (s_cut - s0[-1]) / math.log(10.0)))
        if panels[-1] > _MAX_PANELS:
            raise QuadratureError(
                f"moment integrand spans {panels[-1]:g} panels (limit {_MAX_PANELS}) "
                f"for alpha={alpha}, lambda={lam}, t={t}, q={q}")
        width.append((s_cut - s0[-1]) / panels[-1])
    s0, panels, width = np.array(s0), np.array(panels), np.array(width)
    # the tail panels of every t in a row: the t each belongs to, its index
    owner = np.repeat(np.arange(ts.size), panels)
    panel = np.arange(owner.size) - np.repeat(np.cumsum(panels) - panels, panels)

    def weighted_sums(n_head: int, n_tail: int) -> np.ndarray:
        # the nodes of each t in one block, head then tail panels
        size = n_head + n_tail * panels
        start = np.cumsum(size) - size
        head = np.zeros(size.sum(), dtype=bool)
        head[(start[:, None] + np.arange(n_head)).ravel()] = True
        s, log_w = np.empty(head.size), np.empty(head.size)
        # Gauss-Jacobi on [0, c0]: u = c0*x, weight c0**p * w
        x, w = _gauss_rule(p, n_head)
        s[head] = (s0[:, None] + np.log(x)).ravel()
        log_w[head] = (p * s0[:, None] + np.log(w)).ravel()
        # Gauss-Legendre panels in s = log u: du u**(p-1) = ds exp(p*s)
        x, w = _gauss_rule(1.0, n_tail)
        s_tail = (s0[owner, None] + width[owner, None] * (panel[:, None] + x)).ravel()
        s[~head] = s_tail
        log_w[~head] = np.log((width[owner, None] * w).ravel()) + p * s_tail
        # sum of weight * smooth(u) over the nodes u = exp(s) of each t, in
        # one numpy pass, with the log weights folded into the exponent and
        # log1p(u/lam) taken through logaddexp.  Each block is summed on its
        # own, so a t gets the same bits alone or in an array
        log1px = np.logaddexp(0.0, s - log_lam)
        log_phi = log_w - np.repeat(scale, size) * np.expm1(alpha * log1px)

        blocks = list(zip(start.tolist(), (start + size).tolist()))

        def per_t(exponent: float) -> np.ndarray:
            terms = np.exp(exponent * log1px + log_phi)
            return np.array([np.add.reduce(terms[lo:hi]) for lo, hi in blocks])

        # sum_k B_{n,k} x**(k alpha - n) phi(u): positive terms
        return sum(b * per_t(k * alpha - n) for k, b in enumerate(bell, 1))

    prefactor = math.exp(-math.lgamma(p))
    # an overflow here (t near 1e250) is reported by the check below, once
    with np.errstate(over="ignore", invalid="ignore"):
        result = prefactor * weighted_sums(_HEAD_NODES, _PANEL_NODES)
        err = np.abs(result - prefactor * weighted_sums(_HEAD_NODES // 2, _PANEL_NODES // 2))
    bad = ~(np.isfinite(result) & (result > 0.0) & (err <= _REL_TOL * result))
    if bad.any():
        i = np.argmax(bad)
        raise QuadratureError(
            f"moment quadrature error {err[i]:g} exceeds tolerance "
            f"for alpha={alpha}, lambda={lam}, t={ts[i]}, q={q} (value {result[i]:g})")
    return result


# ---------------------------------------------------------------------------
# Uniform dispatch
# ---------------------------------------------------------------------------

def subordinator_moment(spec: SubordinatorSpec, t, q: float):
    """Exact q-th moment of the clock at time t, dispatched by kind; ``t``
    is one time (a float result) or a 1-d array of times (an array)."""
    if spec.kind == "gamma":
        return gamma_moment(spec.params, t, q)
    return tss_moment(spec.params, t, q)


def subordinator_moment_asymptotic(spec: SubordinatorSpec, t: float, q: float) -> float:
    """Large-t approximation (rate*t)**q of the q-th clock moment, with
    ``spec.rate`` the mean clock rate.  Beyond the float range it raises
    ``OverflowError``, and where it underflows to 0 ``FloatingPointError``."""
    if not t > 0.0 or not q > 0.0:
        raise ValueError("need t > 0 and q > 0")
    # a finite rate*t whose power leaves the float range raises by itself
    if spec.rate * t == math.inf:
        raise OverflowError(f"the order-{q} moment is beyond the float range at t = {t}")
    moment = (spec.rate * t) ** q
    if moment == 0.0:
        raise FloatingPointError(f"the order-{q} moment (rate*t)**q underflows to 0 at t = {t}")
    return moment
