"""The nine acceptance criteria, one implementation shared by ``gmfbm
selftest`` and the acceptance tests.

Each criterion runs at full size with its own fixed seeds, so every run
draws the same numbers and reports the same headline values.  ``CRITERIA``
lists ``(number, name, fn)`` with ``fn() -> (ok, detail)``: on success
``detail`` carries the headline numbers, on failure it names the first
sub-check that failed and its value.  ``run_selftest`` prints one line per
criterion and reports whether all passed.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from gmfbm import mclab, theory
from gmfbm.fbm import (fbm_cov_matrix, fbm_values_at_times, power_variance,
                       sample_fgn_regular)
from gmfbm.process import (
    GmfbmParams,
    TimeChangedSpec,
    corr_curve_oracle,
    exact_cov_oracle,
    exact_increment_second_moment,
    exact_var_oracle,
)
from gmfbm.randkit import derive_stream, sample_tempered_stable_increment
from gmfbm.subordinators import (
    GammaParams,
    SubordinatorSpec,
    TssParams,
    gamma_moment,
    sample_increment,
    subordinator_moment,
    subordinator_moment_asymptotic,
    tss_mean,
    tss_moment,
    tss_variance,
)

MIX = GmfbmParams(1.0, 1.0, 0.55, 0.8)
TSS_SPEC = TimeChangedSpec(MIX, SubordinatorSpec.tss(0.7, 1.0))
GAMMA_SPEC = TimeChangedSpec(MIX, SubordinatorSpec.gamma(1.0))
BOTH_SPECS = [("tss", TSS_SPEC), ("gamma", GAMMA_SPEC)]
ST_PAIRS = [(1.0, 5.0), (1.0, 10.0), (2.0, 20.0)]


class _Failed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    # an explicit check, unlike assert, also runs under python -O
    if not ok:
        raise _Failed(message)


def _close(actual: float, expected: float, rel: float = 1e-6) -> bool:
    # the comparison pytest.approx(expected, rel=rel) makes
    return abs(actual - expected) <= max(rel * abs(expected), 1e-12)


def _criterion(body):
    # a body returns its detail or raises _Failed; fn() -> (ok, detail)
    @functools.wraps(body)
    def fn():
        try:
            return True, body()
        except _Failed as exc:
            return False, str(exc)
    return fn


def mean_z(samples: np.ndarray, target: float) -> float:
    """|sample mean - target| in standard errors of the mean."""
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    return float(abs(samples.mean() - target) / se)


def max_entrywise_z(paths: np.ndarray, cov: np.ndarray) -> float:
    n = paths.shape[0]
    emp = paths.T @ paths / n
    se = (paths[:, :, None] * paths[:, None, :]).std(axis=0, ddof=1) / math.sqrt(n)
    return float(np.max(np.abs(emp - cov) / se))


def max_cross_z(a: np.ndarray, b: np.ndarray) -> float:
    n = a.shape[0]
    ea = a.T @ a / n
    eb = b.T @ b / n
    sa = (a[:, :, None] * a[:, None, :]).std(axis=0, ddof=1) / math.sqrt(n)
    sb = (b[:, :, None] * b[:, None, :]).std(axis=0, ddof=1) / math.sqrt(n)
    return float(np.max(np.abs(ea - eb) / np.hypot(sa, sb)))


def monotone_approach(gaps, floor=1e-10):
    # monotone in the last three points, except where the ratio has already
    # hit 1 at machine precision (gamma q=1 is exactly 1 analytically)
    tail = [max(g, floor) for g in gaps[-3:]]
    return tail[0] >= tail[1] >= tail[2]


@_criterion
def fbm_correctness():
    seed = 2024
    grid = np.arange(1.0, 17.0)
    n_paths = 50_000
    worst = 0.0
    for idx, h in enumerate((0.3, 0.5, 0.75)):
        cov = fbm_cov_matrix(grid, h)
        chol = fbm_values_at_times(grid, power_variance(h),
                                   derive_stream(seed, 2 * idx), size=n_paths)
        fgn = np.cumsum(sample_fgn_regular(16, 1.0, h,
                                           derive_stream(seed, 2 * idx + 1),
                                           size=n_paths), axis=1)
        worst = max(worst, max_entrywise_z(chol, cov))   # sampler vs covariance
        worst = max(worst, max_entrywise_z(fgn, cov))    # circulant vs covariance
        worst = max(worst, max_cross_z(chol, fgn))       # sampler agreement
        _require(worst < 3.0, f"H={h}: max |z|={worst:.2f}")
    return f"entrywise max |z| = {worst:.2f} < 3 over H in (0.3, 0.5, 0.75)"


@_criterion
def subordinator_moment_oracles():
    n = 100_000
    worst_z = 0.0
    # Gamma: Monte Carlo vs exact moment, q in {0.6, 1.0, 1.6}, t/nu in {1, 10}
    for sid, t in enumerate((1.0, 10.0)):
        draws = sample_increment(SubordinatorSpec.gamma(1.0), t,
                                 derive_stream(3001, sid), size=n)
        for q in (0.6, 1.0, 1.6):
            z = mean_z(draws ** q, gamma_moment(GammaParams(1.0), t, q))
            worst_z = max(worst_z, z)
            _require(z < 3.0, f"gamma t={t} q={q}: z={z:.2f}")
    # exact identity at half-integer order
    gap = abs(gamma_moment(GammaParams(2.0), 2.0, 0.5) - math.sqrt(math.pi) / 2.0)
    _require(gap < 1e-12, f"half-order identity gap {gap:.1e}")
    # tempered stable: cumulant identities and quadrature vs Monte Carlo
    params = TssParams(0.7, 1.0)
    t = 10.0
    m1 = tss_mean(params, t)
    m2 = m1 * m1 + tss_variance(params, t)
    rel1 = abs(tss_moment(params, t, 1.0) - m1) / m1
    rel2 = abs(tss_moment(params, t, 2.0) - m2) / m2
    _require(rel1 < 1e-8, f"tss first cumulant rel gap {rel1:.1e}")
    _require(rel2 < 1e-8, f"tss second moment rel gap {rel2:.1e}")
    draws = sample_tempered_stable_increment(derive_stream(3002, 0), 0.7, 1.0, t,
                                             size=n)
    for q in (0.8, 1.1, 1.6):
        z = mean_z(draws ** q, tss_moment(params, t, q))
        worst_z = max(worst_z, z)
        _require(z < 3.0, f"tss t={t} q={q}: z={z:.2f}")
    return (f"max MC |z| = {worst_z:.2f} < 3; half-order identity gap "
            f"{gap:.1e} < 1e-12; cumulants to 1e-8")


@_criterion
def asymptotic_moment_ratios():
    t_grid = (10.0, 100.0, 1000.0, 10000.0)
    summary = []
    for name, spec, qs, bound in [("gamma", GAMMA_SPEC, (0.6, 1.0, 1.6, 2.0), 0.02),
                                  ("tss", TSS_SPEC, (1.1, 1.6), 0.05)]:
        for q in qs:
            gaps = [abs(subordinator_moment(spec.subordinator, t, q)
                        / subordinator_moment_asymptotic(spec.subordinator, t, q)
                        - 1.0) for t in t_grid]
            _require(gaps[-1] < bound,      # final ratio within 2% (gamma), 5% (tss)
                     f"{name} q={q}: final |ratio-1|={gaps[-1]:.2e}")
            _require(monotone_approach(gaps),
                     f"{name} q={q}: not monotone, gaps {gaps[-3:]}")
            summary.append(f"{name} q={q}: {gaps[-1]:.2e}")
    return f"final |ratio-1|: {'; '.join(summary)}"


@_criterion
def covariance_identity_vs_mc():
    n = 100_000
    worst = 0.0
    for name, spec in BOTH_SPECS:
        for s, t in ST_PAIRS:
            est = mclab.estimate_cov(spec, s, t, n, 1234)
            oracle = exact_cov_oracle(spec, s, t)
            z = abs(est.value - oracle) / est.stderr
            worst = max(worst, z)
            _require(z < 3.0, f"{name} (s,t)=({s:g},{t:g}): z={z:.2f}")
    return f"max |z| = {worst:.2f} < 3 over both clocks and three (s,t)"


@_criterion
def covariance_asymptotic_ratios():
    r3, r5 = (exact_cov_oracle(TSS_SPEC, 1.0, t) / theory.cov_asymptotic(TSS_SPEC, 1.0, t)
              for t in (1e3, 1e5))
    _require(abs(r3 - 1.0) < 0.10, f"tss ratio at t=1e3: {r3:.4f}")
    _require(abs(r5 - 1.0) < 0.03, f"tss ratio at t=1e5: {r5:.4f}")
    # Gamma formula ratio: converges to a t-independent constant, reported
    # below; the formula's extra factor 2 puts that constant near 1/2, not 1
    ratios = [exact_cov_oracle(GAMMA_SPEC, 1.0, t)
              / theory.cov_asymptotic(GAMMA_SPEC, 1.0, t)
              for t in np.geomspace(1e3, 1e5, 7)]
    constant = ratios[-1]
    spread = max(abs(r - constant) for r in ratios)
    _require(spread < 0.03 * constant,
             f"gamma ratio spread {spread:.4f} around {constant:.4f}")
    return (f"tss ratio: {r3:.4f} at t=1e3, {r5:.4f} at t=1e5; gamma formula "
            f"ratio constant = {constant:.4f}")


@_criterion
def increment_second_moment():
    n = 100_000
    worst_rel = 0.0
    worst_z = 0.0
    for name, spec in BOTH_SPECS:
        for s, t in ST_PAIRS:
            # the oracle's V(t-s) against its definition V(t) + V(s) - 2 Cov
            value = exact_increment_second_moment(spec, s, t)
            direct = (exact_var_oracle(spec, t) + exact_var_oracle(spec, s)
                      - 2.0 * exact_cov_oracle(spec, s, t))
            rel = abs(value - direct) / direct
            worst_rel = max(worst_rel, rel)
            _require(rel < 1e-6, f"{name} (s,t)=({s:g},{t:g}): identity rel gap {rel:.1e}")
            est = mclab.estimate_increment_sm(spec, s, t, n, 1234)
            z = abs(est.value - value) / est.stderr
            worst_z = max(worst_z, z)
            _require(z < 3.0, f"{name} (s,t)=({s:g},{t:g}): z={z:.2f}")
    return (f"identity rel gap = {worst_rel:.1e} < 1e-6; max MC |z| = "
            f"{worst_z:.2f} < 3")


@_criterion
def decay_exponents():
    grid = np.geomspace(100.0, 10000.0, 12)
    details = []
    for name, spec in BOTH_SPECS:
        rep = mclab.lrd_report(spec, 1.0, grid, 100_000, 1234)
        _require(_close(rep.predicted.dominant, -0.2),
                 f"{name}: predicted dominant {rep.predicted.dominant:+.4f}")
        oracle_gap = abs(rep.oracle_fit.slope - rep.predicted.dominant)
        _require(oracle_gap < 0.05, f"{name}: |oracle slope - predicted| = {oracle_gap:.4f}")
        mc = rep.mc_fit
        _require(mc is not None,
                 f"{name}: mc slope undefined, a correlation is not positive")
        mc_gap = abs(mc.slope - rep.oracle_fit.slope)
        _require(mc_gap < max(0.15, 3.0 * mc.slope_stderr),
                 f"{name}: |mc slope - oracle slope| = {mc_gap:.4f}")
        _require(rep.is_lrd, f"{name}: not classified long-range dependent")
        # the gate reads the OLS stderr; the paired influence one is shown
        # beside it because it also carries the Monte Carlo noise
        details.append(f"{name}: oracle {rep.oracle_fit.slope:+.4f}, "
                       f"mc {mc.slope:+.4f} (stderr ols {mc.slope_stderr:.4f}, "
                       f"paired {rep.mc_slope_paired_stderr:.4f})")
    for h1, h2 in [(0.55, 0.8), (0.3, 0.6), (0.7, 0.7), (0.9, 0.9)]:
        _require(theory.is_lrd(GmfbmParams(1.0, 1.0, h1, h2)),
                 f"(H1,H2)=({h1},{h2}) not classified long-range dependent")
    return f"predicted -0.2; {'; '.join(details)}"


@_criterion
def degeneracy_suite():
    for name, kind in [("tss", SubordinatorSpec.tss(0.7, 1.0)),
                       ("gamma", SubordinatorSpec.gamma(1.0))]:
        # single-component reduction: oracle equals the one-motion formula exactly
        single = TimeChangedSpec(GmfbmParams(2.0, 0.0, 0.6, 0.8), kind)
        s, t = 1.0, 9.0
        m = lambda tt: subordinator_moment(kind, tt, 1.2)
        cov = exact_cov_oracle(single, s, t)
        _require(_close(cov, 4.0 * 0.5 * (m(t) + m(s) - m(t - s)), rel=1e-12),
                 f"{name} single-component cov {cov!r}")
        var = exact_var_oracle(single, t)
        _require(_close(var, 4.0 * m(t), rel=1e-12), f"{name} single-component var {var!r}")
        # equal-index reduction scales by a**2 + b**2 exactly
        base = TimeChangedSpec(GmfbmParams(1.0, 0.0, 0.7, 0.8), kind)
        both = TimeChangedSpec(GmfbmParams(1.5, 2.0, 0.7, 0.7), kind)
        cov = exact_cov_oracle(both, 1.0, 7.0)
        _require(_close(cov, (1.5 ** 2 + 2.0 ** 2) * exact_cov_oracle(base, 1.0, 7.0),
                        rel=1e-12), f"{name} equal-index cov {cov!r}")
    # Brownian motions on a unit-rate Gamma clock: corr = sqrt(s/t)
    spec = TimeChangedSpec(GmfbmParams(1.0, 1.0, 0.5, 0.5),
                           SubordinatorSpec.gamma(1.0))
    worst = 0.0
    for s, t in [(1.0, 2.0), (1.0, 100.0), (3.0, 17.0)]:
        (_, corr), = corr_curve_oracle(spec, s, [t])
        worst = max(worst, abs(corr - math.sqrt(s / t)))
        _require(worst < 1e-10, f"Brownian-Gamma (s,t)=({s:g},{t:g}): corr gap {worst:.1e}")
    return f"reductions exact to 1e-12; Brownian-Gamma corr gap {worst:.1e} < 1e-10"


@_criterion
def reproducibility():
    n = 20_000
    for name, spec in BOTH_SPECS:
        for estimator in (mclab.estimate_cov, mclab.estimate_corr,
                          mclab.estimate_increment_sm):
            base = estimator(spec, 1.0, 10.0, n, 1234)
            rerun = estimator(spec, 1.0, 10.0, n, 1234)
            threaded = estimator(spec, 1.0, 10.0, n, 1234, n_workers=4)
            _require(base == rerun == threaded,
                     f"{name}/{estimator.__name__}: results differ across runs")
    return "estimators bit-identical across reruns and worker counts"


CRITERIA = [
    (1, "fbm correctness", fbm_correctness),
    (2, "subordinator moment oracles", subordinator_moment_oracles),
    (3, "asymptotic moment ratios", asymptotic_moment_ratios),
    (4, "covariance identity vs mc", covariance_identity_vs_mc),
    (5, "covariance asymptotic ratios", covariance_asymptotic_ratios),
    (6, "increment second moment", increment_second_moment),
    (7, "decay exponents", decay_exponents),
    (8, "degeneracy suite", degeneracy_suite),
    (9, "reproducibility", reproducibility),
]


def run_criterion(number: int, name: str, fn) -> tuple[bool, float, str]:
    """Run one criterion; return (ok, elapsed seconds, status line)."""
    t0 = time.monotonic()
    ok, detail = fn()
    elapsed = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    return ok, elapsed, f"[{number}/{len(CRITERIA)}] {status} {name} ({detail}; {elapsed:.1f}s)"


def run_selftest() -> bool:
    """Run every criterion, print its status line; True if all passed."""
    passed = 0
    for criterion in CRITERIA:
        ok, _, line = run_criterion(*criterion)
        print(line, flush=True)
        passed += ok
    print(f"selftest: {passed} of {len(CRITERIA)} criteria passed")
    return passed == len(CRITERIA)
