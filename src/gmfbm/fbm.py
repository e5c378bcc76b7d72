"""Fractional Brownian motion: covariance, exact Gaussian sampling on
arbitrary grids (Cholesky), and a circulant-embedding sampler for long
regular grids.

The process B^H is centered Gaussian with B_0 = 0 and

    E[B_s B_t] = (s**2H + t**2H - |t-s|**2H) / 2,   0 < H < 1.

The Cholesky and pair samplers serve any centered process, zero at 0, with
stationary increments of variance v(lag), covariance (v(s) + v(t) -
v(|t-s|)) / 2, given as ``var(lag, out=None)``: ``power_variance`` is
B^H's v(lag) = lag**2H, and ``gmfbm.process`` mixes two.

No matrix is perturbed: a step within the rank tolerance of LAPACK's
semidefinite Cholesky (dpstrf; Higham 2002, Sec. 10.3) is a repeat, a
stack LAPACK still rejects is factored by eigh, and only an eigenvalue
below -1e-6 of the largest raises ConditioningError.
"""

from __future__ import annotations

import numpy as np

from gmfbm.randkit import RngStream


class ConditioningError(RuntimeError):
    """A covariance eigenvalue below -1e-6 of the largest: not rounding."""


def as_hurst(h) -> float:
    """Validate a Hurst index: a float in the open interval (0,1)."""
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst index must lie in (0,1), got {h}")
    return h


def _finite_nonnegative(times) -> bool:
    # written so that NaN fails too
    return bool(np.all((times >= 0.0) & (times < np.inf)))


def fbm_cov_matrix(times, h) -> np.ndarray:
    """Covariance matrix of B^H at the finite nonnegative 1-d ``times``; symmetric
    positive semidefinite (singular where a time repeats or is 0)."""
    var = power_variance(h)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if not _finite_nonnegative(times):
        raise ValueError("times must be finite and nonnegative")
    return _cov_matrix_at(times, var)


def power_variance(h):
    """The increment variance lag**2H of B^H as the samplers take it, a
    function ``var(lag, out=None)`` that writes into ``out`` when given."""
    two_h = 2.0 * as_hurst(h)
    return lambda lag, out=None: np.power(lag, two_h, out=out)


def _cov_matrix_at(times: np.ndarray, var) -> np.ndarray:
    # covariance matrices of the rows of ``times`` (shape (..., n)) for the
    # increment variance var(lag), built in place in one (..., n, n) array:
    # a stack of them is the peak memory of a block
    pw = var(times)
    cov = np.subtract(times[..., :, None], times[..., None, :])
    np.abs(cov, out=cov)
    var(cov, out=cov)
    np.subtract(pw[..., :, None], cov, out=cov)
    cov += pw[..., None, :]
    cov *= 0.5
    return cov


def _clip_rounding(lam: np.ndarray, what: str) -> np.ndarray:
    # eigenvalues (last axis) of a matrix that is nonnegative definite in
    # exact arithmetic: clip the rounding below 0, raise on a real deficit
    lo, hi = lam.min(axis=-1), lam.max(axis=-1)
    if np.any(lo < -1e-6 * hi):
        raise ConditioningError(f"{what} is not nonnegative definite "
                                f"(min/max eigenvalue {np.min(lo / hi):.3g})")
    return np.maximum(lam, 0.0)


def _factor(cov: np.ndarray) -> np.ndarray:
    # a square root L with L @ L.T == cov for each matrix of the stack:
    # LAPACK's Cholesky, or V sqrt(W) from eigh for a stack it rejects
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        lam, vecs = np.linalg.eigh(cov)
        lam = _clip_rounding(lam, f"an fBm covariance on {cov.shape[-1]} points")
        return vecs * np.sqrt(lam)[..., None, :]


def fbm_values_at_times(times, var, stream: RngStream, size=None) -> np.ndarray:
    """Exact joint Gaussian sample at finite nondecreasing ``times`` of the
    process with increasing increment variance ``var`` (B^H: power_variance(h)).

    ``times`` is one grid of shape (n,) or a stack of per-path grids of
    shape (B, n), one row per path; the result has the shape of ``times``,
    with a leading ``size`` axis when ``size`` is given.  Repeated
    consecutive times (which subordinated clocks produce) and leading zeros
    are allowed: such a time gets an independent unit dummy variable in
    the covariance, and after sampling it is overwritten by the previous
    value, or by the exact zero at time 0.  Since the dummy is independent
    of every other variable, the values at the distinct positive times keep
    their exact joint law.  A time whose step from the previous one has
    increment variance var(step) <= n*u*var(t_last) (u = eps/2;
    var(t_last) is the largest diagonal entry) is a numerical repeat and is
    collapsed the same way, so each collapsed step changes the value by a
    variance of at most n*u*var(t_last).  A var(t_last) that underflows to 0
    at t_last > 0 would collapse every step, and raises FloatingPointError.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim not in (1, 2) or times.shape[-1] == 0:
        raise ValueError("times must be a nonempty 1-d array or a 2-d stack of rows")
    steps = np.diff(times, axis=-1, prepend=0.0)
    if not (np.all(steps >= 0.0) and _finite_nonnegative(times)):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
    n = times.shape[-1]
    v_last = var(times[..., -1:])
    if np.any((v_last == 0.0) & (times[..., -1:] > 0.0)):
        raise FloatingPointError("var(t) underflows to 0 at a positive last time t of a row")
    dummy = var(steps) <= n * np.finfo(float).eps / 2.0 * v_last
    real = ~dummy
    cov = _cov_matrix_at(times, var)
    cov *= real[..., :, None] & real[..., None, :]
    diag = np.arange(n)
    cov[..., diag, diag] += dummy
    chol = _factor(cov)
    batch = () if size is None else (size,)
    z = stream.gen.standard_normal(batch + times.shape)
    sampled = np.einsum("...ij,...j->...i", chol, z)
    # forward fill: column 0 of the padded array is the exact zero at time 0
    src = np.maximum.accumulate(np.where(dummy, 0, diag + 1), axis=-1)
    padded = np.concatenate([np.zeros(sampled.shape[:-1] + (1,)), sampled], axis=-1)
    return np.take_along_axis(padded, np.broadcast_to(src, sampled.shape), axis=-1)


def sample_fbm_pair(u, v, var, stream: RngStream):
    """Exact bivariate draws (X_u, X_v), finite 0 <= u <= v, of the process
    with increment variance ``var`` (B^H: power_variance(h)).

    ``u`` and ``v`` are arrays of elementwise pairs, one per path of a
    block; the results have their broadcast shape.  This is the O(1)
    sampler the Monte Carlo covariance estimator runs on: X_u from its
    variance, then X_v from its conditional law given X_u: two normals.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if not (_finite_nonnegative(u_arr) and _finite_nonnegative(v_arr)):
        raise ValueError("times must be finite and nonnegative")
    if not np.all(u_arr <= v_arr):
        raise ValueError("need u <= v")
    shape = np.broadcast_shapes(u_arr.shape, v_arr.shape)
    z = stream.gen.standard_normal((2,) + shape)
    var_u = np.broadcast_to(var(u_arr), shape)
    var_v = var(v_arr)
    b_u = np.sqrt(var_u) * z[0]
    cov_uv = np.broadcast_to(0.5 * (var_u + var_v - var(v_arr - u_arr)), shape)
    # conditional X_v | X_u; where u == 0 the slope is 0/0, fix it to 0
    slope = np.divide(cov_uv, var_u, out=np.zeros(shape), where=var_u > 0.0)
    resid = var_v - slope * cov_uv
    b_v = slope * b_u + np.sqrt(np.maximum(resid, 0.0)) * z[1]
    return b_u, b_v


def _fgn_autocov(n: int, dt: float, hh: float) -> np.ndarray:
    # autocovariance of fractional Gaussian noise at lags 0..n
    k = np.arange(n + 1, dtype=float)
    two_h = 2.0 * hh
    return 0.5 * dt ** two_h * ((k + 1.0) ** two_h - 2.0 * k ** two_h
                                + np.abs(k - 1.0) ** two_h)


def sample_fgn_regular(n: int, dt: float, h, stream: RngStream, size=None) -> np.ndarray:
    """n fractional-Gaussian-noise increments on step dt, O(n log n).

    Circulant embedding of the increment autocovariance: the covariance is
    embedded in a circulant of order 2n whose eigenvalues come from one FFT;
    a complex Gaussian vector shaped by sqrt(eigenvalues) transforms back to
    an exact stationary sample.  This minimal embedding of fGn is
    nonnegative definite for every H (Dietrich & Newsam 1997; Craigmile
    2003), so negative eigenvalues are rounding and are clipped to 0; one
    below -1e-6 of the largest raises ConditioningError.  Cumulative sums
    reproduce B^H on the grid dt, 2dt, ..., n*dt.  The result has shape
    (n,), with a leading ``size`` axis when ``size`` is given.
    """
    hh = as_hurst(h)
    if n < 1 or dt <= 0.0:
        raise ValueError("need n >= 1 and dt > 0")
    gamma = _fgn_autocov(n, dt, hh)
    circ = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = _clip_rounding(np.fft.fft(circ).real,
                         f"the circulant embedding (n={n}, H={hh})")
    m = 2 * n
    batch = () if size is None else (size,)
    z_ends = stream.gen.standard_normal(batch + (2,))
    z_re = stream.gen.standard_normal(batch + (n - 1,))
    z_im = stream.gen.standard_normal(batch + (n - 1,))
    xi = np.empty(batch + (m,), dtype=complex)
    xi[..., 0] = z_ends[..., 0]
    xi[..., n] = z_ends[..., 1]
    xi[..., 1:n] = (z_re + 1j * z_im) / np.sqrt(2.0)
    xi[..., n + 1:] = np.conj(xi[..., n - 1:0:-1])
    spectrum = np.sqrt(lam / m) * xi
    sample = np.fft.fft(spectrum, axis=-1).real
    return sample[..., :n]
