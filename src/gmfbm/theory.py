"""Reference large-t formulas for the covariance and the increment second
moment of the time-changed process, evaluated literally, plus the
long-range-dependence classifier.

These are the conventional two-term (covariance) and three-term (increment)
approximations this toolkit exists to stress-test.  Where their constants
disagree with the exact oracles in ``process`` (a factor 2 in the Gamma
covariance, a factor H2 in the increment leading term), the diagnostics
surface the measured ratio rather than silently correcting the formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from gmfbm.process import GmfbmParams, TimeChangedSpec


@dataclass(frozen=True)
class DecayPrediction:
    """Predicted power-law exponents of the correlation decay in t.

    ``exponent_mixed`` = 2*H1 - H2 - 1, ``exponent_pure`` = H2 - 1; the
    stated prediction is that the correlation decays like ``dominant``,
    the larger of the two.  The covariance also holds the constant V(s)/2,
    so the correlation has a third term, t**-H2 (``exponent_plateau``),
    which the stated prediction lacks; it leads for H2 < 1/2, and
    ``dominant_of_three`` is the largest of all three exponents.
    """

    exponent_mixed: float
    exponent_pure: float
    dominant: float
    exponent_plateau: float
    dominant_of_three: float


def _check_fixed_times(s: float, t: float) -> None:
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")


def _prefactor(spec: TimeChangedSpec) -> float:
    # the Gamma formulas are conventionally stated with a factor 2
    return 2.0 if spec.subordinator.kind == "gamma" else 1.0


def cov_asymptotic(spec: TimeChangedSpec, s: float, t: float) -> float:
    """Two-term large-t covariance formula, with r the mean clock rate
    (alpha lam**(alpha-1) for TSS, 1/nu for Gamma) and k the stated
    prefactor (1 for TSS, 2 for Gamma):

        k a**2 H1 s r**2H1 t**(2H1-1) + k b**2 H2 s r**2H2 t**(2H2-1)
    """
    _check_fixed_times(s, t)
    p = spec.gmfbm
    k = _prefactor(spec)
    rate = spec.subordinator.rate
    return (k * p.a ** 2 * p.h1 * s * rate ** (2.0 * p.h1) * t ** (2.0 * p.h1 - 1.0)
            + k * p.b ** 2 * p.h2 * s * rate ** (2.0 * p.h2) * t ** (2.0 * p.h2 - 1.0))


def increment_sm_asymptotic(spec: TimeChangedSpec, s: float, t: float) -> float:
    """Three-term reference formula for E[(Y_t - Y_s)**2], per block

        TSS:    c H r**2H (t**2H - 2 t**(2H-1) + s**2H)
        Gamma:  2c H r**2H (t**2H - 2 s t**(2H-1) + s**2H)

    summed over both blocks, with c the squared mixing weight and r the
    mean clock rate.  The TSS middle term has no s factor; both formulas
    are evaluated as stated.
    """
    _check_fixed_times(s, t)
    p = spec.gmfbm
    k = _prefactor(spec)
    rate = spec.subordinator.rate
    middle = s if spec.subordinator.kind == "gamma" else 1.0

    def block(coeff: float, h: float) -> float:
        scale = k * coeff ** 2 * h * rate ** (2.0 * h)
        return scale * (t ** (2.0 * h) - 2.0 * middle * t ** (2.0 * h - 1.0) + s ** (2.0 * h))

    return block(p.a, p.h1) + block(p.b, p.h2)


def corr_decay_prediction(p: GmfbmParams) -> DecayPrediction:
    """Predicted correlation-decay exponents for a parameter set.

    The exponents depend on the Hurst indices alone (a clock only changes
    constants, so pass a spec's ``gmfbm``).  With h1 <= h2 canonical, the
    pure term h2 - 1 always dominates the mixed term 2*h1 - h2 - 1.
    """
    mixed = 2.0 * p.h1 - p.h2 - 1.0
    pure = p.h2 - 1.0
    return DecayPrediction(
        exponent_mixed=mixed,
        exponent_pure=pure,
        dominant=max(mixed, pure),
        exponent_plateau=-p.h2,
        dominant_of_three=max(mixed, pure, -p.h2),
    )


def is_lrd(p: GmfbmParams) -> bool:
    """Long-range dependence criterion 2*H1 - H2 < 1 (canonical h1 <= h2).

    Note the condition is implied by the ordering itself
    (2*h1 - h2 <= h2 < 1), so it holds for every valid parameter set; it is
    evaluated literally all the same.
    """
    return 2.0 * p.h1 - p.h2 < 1.0
