"""Deterministic, splittable random streams, the block layout of Monte
Carlo paths, and the batched samplers used throughout the toolkit.

Streams are counter-mode Philox generators keyed by ``(master_seed,
stream_id)``.  Distinct key pairs yield statistically independent bit
streams, and the sequence for a fixed key is reproducible across runs.
Substreams occupy disjoint 2**128-wide blocks of the 256-bit Philox
counter, so deriving them never consumes randomness from the parent.

Every sampler draws a block: ``size`` is a required int, and the result is
an array of that length (``size=1`` is a draw of one).  The tempered
stable samplers keep the accepted trials of i.i.d. batches in trial order.
"""

from __future__ import annotations

import math

import numpy as np

_U64 = 1 << 64
_LN2 = math.log(2.0)

# Monte Carlo paths per block; each block draws from one stream.
BLOCK_PATHS = 1024

# Beyond this many tilting-rejection substeps per increment the exact
# double-rejection sampler is cheaper (cost O(1) vs O(dt * lam**alpha)).
# Median us per draw, thinning/double rejection, at 6 and 7 substeps (2-core
# x86 host, blocks of 1024, lam = 1): alpha 0.3 1.70/2.29, 1.97/1.71; 0.5
# 1.64/1.66, 1.92/1.53; 0.7 1.67/2.27, 2.00/1.76; 0.9 1.76/1.93, 2.04/2.07.
_SUBSTEP_LIMIT = 6


def _check_u64(name: str, value: int) -> int:
    value = int(value)
    if not 0 <= value < _U64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


class RngStream:
    """A value-like random stream addressed by (master_seed, stream_id).

    ``words_consumed`` is the number of raw 64-bit Philox words the stream
    has used so far, read from the generator state, so a rejection sampler
    counts every trial it made.  A stream must not be shared by two workers
    at the same time; derive one stream per unit of concurrent work instead.
    """

    __slots__ = ("master_seed", "stream_id", "lanes", "gen", "_start")

    def __init__(self, master_seed: int, stream_id: int, lanes: tuple[int, ...] = ()):
        self.master_seed = _check_u64("master_seed", master_seed)
        self.stream_id = _check_u64("stream_id", stream_id)
        if len(lanes) > 2:
            raise ValueError("substream nesting deeper than 2 is not supported")
        self.lanes = tuple(_check_u64("lane", lane) for lane in lanes)
        # Lane k occupies counter block k+1 in words 2..3; the root stream
        # sits at block 0 and would need 2**130 draws to leave it.
        words = [0, 0, 0, 0]
        for depth, lane in enumerate(self.lanes):
            if lane + 1 >= _U64:
                raise ValueError("lane index too large")
            words[2 + depth] = lane + 1
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        counter = np.array(words, dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        # the start position of words_consumed: the counter is nonzero only
        # in words 2..3, and the buffer starts empty
        self._start = 4 * ((words[3] << 64 | words[2]) << 128) + 4

    @property
    def words_consumed(self) -> int:
        """Raw 64-bit words drawn from the generator since construction."""
        state = self.gen.bit_generator.state
        # each step of the 256-bit counter yields 4 words, of which
        # buffer_pos are used (4 when the buffer is empty)
        counter = sum(int(word) << (64 * i)
                      for i, word in enumerate(state["state"]["counter"]))
        return 4 * counter + int(state["buffer_pos"]) - self._start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RngStream(master_seed={self.master_seed}, "
                f"stream_id={self.stream_id}, lanes={self.lanes}, "
                f"words_consumed={self.words_consumed})")


def derive_stream(master_seed: int, stream_id: int) -> RngStream:
    """Create the independent stream keyed by (master_seed, stream_id).

    Gaps in the stream_id space are harmless: independence comes from the
    keyed Philox construction, not from consecutive allocation.
    """
    return RngStream(master_seed, stream_id)


def derive_substream(stream: RngStream, lane: int) -> RngStream:
    """Split off substream ``lane`` of ``stream``.

    Derivation depends only on the stream identity, never on how much of
    the parent has been consumed.
    """
    return RngStream(stream.master_seed, stream.stream_id, stream.lanes + (int(lane),))


def path_blocks(master_seed: int, n_paths: int) -> list[tuple[RngStream, int, int]]:
    """Split paths 0..n_paths-1 into blocks of ``BLOCK_PATHS``.

    Block k is the triple (stream, lo, hi): it holds paths [lo, hi) =
    [k*BLOCK_PATHS, (k+1)*BLOCK_PATHS), clipped to n_paths, and draws them
    all from the stream keyed (master_seed, k), so results are bit-identical
    across reruns and depend on the block layout only.
    """
    return [(derive_stream(master_seed, k), lo, min(lo + BLOCK_PATHS, n_paths))
            for k, lo in enumerate(range(0, n_paths, BLOCK_PATHS))]


def sample_gamma(stream: RngStream, shape: float, size: int) -> np.ndarray:
    """``size`` Gamma(shape, rate 1) variates.

    Valid for any shape > 0, including the shape < 1 regime that fine path
    grids produce (the generator's small-shape path handles it).
    """
    if not shape > 0.0:
        raise ValueError(f"gamma shape must be positive, got {shape}")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    return stream.gen.standard_gamma(shape, size=size)


def _log_stable_unit(gen: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    # log S for Kanter's (Ann. Probab. 1975) positive alpha-stable law with
    # Laplace transform exp(-u**alpha), the thinning sampler's proposal: S =
    # (A(V) / E**(1-alpha))**(1/alpha), V ~ Uniform(0, pi), E ~ Exp(1), A =
    # C / B.  At small alpha S itself leaves the float range.
    log_a = _zolotarev_log_c(alpha) - _zolotarev_log_b(gen.random(n) * math.pi, alpha)
    return (log_a - (1.0 - alpha) * np.log(gen.standard_exponential(n))) / alpha


def _accept_in_trial_order(trials, n: int, k: int) -> np.ndarray:
    # The first n accepted trials of a rejection sequence are an exact
    # sample.  trials(k) returns the accepted values of k i.i.d. trials in
    # trial order; a short round is refilled at its acceptance rate.
    out = np.empty(n)
    filled = 0
    while filled < n:
        x = trials(k)[:n - filled]
        out[filled:filled + x.size] = x
        filled += x.size
        k = (n - filled) * min(-(-k // max(x.size, 1)), 64)
    return out


def _tempered_by_thinning(gen: np.random.Generator, alpha: float, lam: float,
                          dt: float, n: int, n_sub: int) -> np.ndarray:
    # Exponential tilting: a stable proposal x over dt' = dt/n_sub is kept
    # when an Exp(1) draw exceeds lam * x, with exact acceptance probability
    # p = exp(-dt' * lam**alpha) >= 1/2 as dt' * lam**alpha <= ln 2.  One batch
    # 3 sd (+2) above the mean trial count m/p is short in 0.1-0.3% of calls.
    # Each proposal dt'**(1/alpha) S is formed in logs: at small alpha the
    # factor underflows while S overflows.  One beyond the float range, or
    # whose lam * x is, is inf, accepted with probability 0; one below it
    # rounds to 0.
    dt_sub = dt / n_sub
    log_scale = math.log(dt_sub) / alpha
    m = n * n_sub
    p = math.exp(-dt_sub * lam ** alpha)

    def trials(k):
        with np.errstate(over="ignore"):
            x = np.exp(log_scale + _log_stable_unit(gen, alpha, k))
            return x[gen.standard_exponential(k) > lam * x]

    k = math.ceil((m + 3.0 * math.sqrt(m * (1.0 - p))) / p) + 2
    return _accept_in_trial_order(trials, m, k).reshape(n, n_sub).sum(axis=1)


def _zolotarev_log_c(alpha: float) -> float:
    return math.log(alpha ** alpha * (1.0 - alpha) ** (1.0 - alpha))


def _zolotarev_log_b(u: np.ndarray, alpha: float) -> np.ndarray:
    # log of Zolotarev's B(u) = sinc(u) / (sinc(alpha u)**alpha
    # sinc((1-alpha) u)**(1-alpha)) on [0, pi), from three sines: the sinc
    # denominators collapse to the constant C = alpha**alpha
    # (1-alpha)**(1-alpha), and A(u) = C / B(u).  B(0) = 1 exactly.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = (_zolotarev_log_c(alpha)
                 + np.log(np.sin(u)) - alpha * np.log(np.sin(alpha * u))
                 - (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u)))
    log_b[u == 0.0] = 0.0
    return log_b


def _tilted_stable_double_rejection(gen: np.random.Generator, alpha: float,
                                    log_lam: float, n: int) -> np.ndarray:
    # Devroye's double rejection for the exponentially tilted positive
    # stable law (density proportional to exp(-lam*x) times the unit stable
    # density): log draws from log lam.  Expected cost is O(1) uniformly in
    # the tilt, which is what makes large time spans affordable.  A trial
    # runs the outer angle stage, then the inner stage, and is dropped if
    # either rejects.  The outer acceptance ratio is kept in log space; with
    # lam**alpha in the thousands it overflows otherwise.
    b = (1.0 - alpha) / alpha
    log_c = _zolotarev_log_c(alpha)
    log_b_lam = math.log(b) + log_lam
    lam_alpha = math.exp(alpha * log_lam)
    gam = lam_alpha * alpha * (1.0 - alpha)
    sqrt_gam = math.sqrt(gam)
    c1 = math.sqrt(math.pi / 2.0)
    c3 = (2.0 + c1) * sqrt_gam
    xi = (1.0 + math.sqrt(2.0) * c3) / math.pi
    psi = c3 * math.exp(-gam * math.pi * math.pi / 8.0) / math.sqrt(math.pi)
    w1 = c1 * xi / sqrt_gam
    w2 = 2.0 * math.sqrt(math.pi) * psi
    w3 = xi * math.pi

    def trials(k):
        # outer stage: sample the Zolotarev angle U from a three-piece
        # envelope, accept against the marginal ratio
        v = gen.random(k)
        w = gen.random(k)
        if gam >= 1.0:
            u_ang = np.where(v < w1 / (w1 + w2),
                             np.abs(gen.standard_normal(k)) / sqrt_gam,
                             math.pi * (1.0 - w * w))
        else:
            u_ang = np.where(v < w3 / (w2 + w3), math.pi * w,
                             math.pi * (1.0 - w * w))
        # 1 - Uniform[0,1) lies in (0,1], so its log is finite
        log_u1 = np.log(1.0 - gen.random(k))
        ok = u_ang < math.pi
        u_ang, log_u1 = u_ang[ok], log_u1[ok]
        log_b = _zolotarev_log_b(u_ang, alpha)
        zeta = np.exp(0.5 * log_b)
        z = -1.0 / np.expm1(np.log1p(alpha / sqrt_gam * zeta) / -alpha)  # no cancellation
        d = np.where(u_ang > 0.0, psi / np.sqrt(math.pi - u_ang), 0.0)
        d += xi * np.exp(-gam * u_ang * u_ang / 2.0) if gam >= 1.0 else xi
        # lam**alpha expm1(-log B) = -lam**alpha (1 - 1/B), exact near B = 1
        log_accept = (log_u1 + lam_alpha * np.expm1(-log_b)
                      + np.log(math.pi * d / ((1.0 + c1) * sqrt_gam / zeta + z)))
        ok = log_accept <= 0.0
        log_b, z, log_accept = log_b[ok], z[ok], log_accept[ok]
        # inner stage: sample X around the conditional mode
        # m = (b lam / a)**alpha, a = A(u)**(1/(1-alpha)), accept with the
        # exact density ratio.  It runs in units of m, y = X/m: as alpha -> 1
        # a overflows and m underflows, while m**-b = A(u) / (b lam)**(1-alpha)
        # and a m = b lam m**-b stay finite
        j = log_b.size
        log_m_pow = log_c - log_b - (1.0 - alpha) * log_b_lam  # log m**-b
        am = np.exp(log_m_pow + log_b_lam)
        delta = np.sqrt(alpha / am)
        a1 = delta * c1
        a3 = z / am
        v2 = gen.random(j) * (a1 + delta + a3)
        n_half = gen.standard_normal(j)
        e1 = gen.standard_exponential(j)
        below = v2 < a1
        above = v2 >= a1 + delta
        y = np.where(below, 1.0 - delta * np.abs(n_half),
                     np.where(above, 1.0 + delta + e1 * a3,
                              1.0 + delta * gen.random(j)))
        bonus = np.where(below, n_half * n_half / 2.0, np.where(above, e1, 0.0))
        ok = y > 0.0
        y, log_m_pow, am, bonus, log_accept = (y[ok], log_m_pow[ok], am[ok], bonus[ok],
                                             log_accept[ok])
        # a (X - m) + lam (X**-b - m**-b), with lam m**-b = a m / b; the draw
        # is X**-b = m**-b y**-b, returned as its log
        log_y = np.log(y)
        cost = am * (y - 1.0) + am / b * np.expm1(-b * log_y) - bonus
        return (log_m_pow - b * log_y)[cost <= -log_accept]

    return _accept_in_trial_order(trials, n, 2 * n)


def tempered_stable_substep_count(alpha: float, lam: float, dt: float) -> int:
    """Number of tilting-rejection substeps for an increment over ``dt``."""
    return max(1, math.ceil(dt * lam ** alpha / _LN2))


def sample_tempered_stable_increment(stream: RngStream, alpha: float,
                                     lam: float, dt: float, size: int) -> np.ndarray:
    """``size`` increments of the tempered stable subordinator over time ``dt``.

    The law has Laplace transform exp(-dt*((lam+u)**alpha - lam**alpha)).
    For moderate dt*lam**alpha the increment is built from tilting-rejection
    substeps (each substep a stable proposal accepted with probability
    exp(-lam*x), valid by independent increments); for large spans the exact
    double-rejection sampler takes over so the cost stays O(1) per draw.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    n_sub = tempered_stable_substep_count(alpha, lam, dt)
    if n_sub <= _SUBSTEP_LIMIT:
        return _tempered_by_thinning(stream.gen, alpha, lam, dt, size, n_sub)
    # dt**(1/alpha) S, S tilted by lam dt**(1/alpha), is one exp of a log
    # sum, so only the draw itself must be a float; one below it rounds to 0
    log_scale = math.log(dt) / alpha
    with np.errstate(over="ignore"):
        x = np.exp(log_scale + _tilted_stable_double_rejection(
            stream.gen, alpha, math.log(lam) + log_scale, size))
    if not np.all(np.isfinite(x)):
        raise OverflowError(f"a tempered stable draw over dt = {dt:g} is not a finite float")
    return x
