"""The reference large-t covariance formula, evaluated literally, the
predicted correlation-decay exponents and the long-range-dependence
classifier.

The covariance formula is the conventional two-term approximation this
toolkit exists to stress-test.  Where its constant disagrees with the exact
oracles in ``process`` (a factor 2 for the Gamma clock), ``cov-table``
surfaces the measured ratio rather than silently correcting the formula.
"""

from __future__ import annotations

import math
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


def cov_asymptotic(spec: TimeChangedSpec, s: float, t: float) -> float:
    """Two-term large-t covariance formula, with r the mean clock rate
    (alpha lam**(alpha-1) for TSS, 1/nu for Gamma) and k the stated
    prefactor (1 for TSS, 2 for Gamma):

        k a**2 H1 s r**2H1 t**(2H1-1) + k b**2 H2 s r**2H2 t**(2H2-1)

    The formula is positive, so a value that underflows to 0 raises
    ``FloatingPointError``; one beyond the float range ``OverflowError``.
    """
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    p = spec.gmfbm
    k = 2.0 if spec.subordinator.kind == "gamma" else 1.0
    rate = spec.subordinator.rate
    try:  # a float ** leaves the float range by raising, a float * by inf
        cov = (k * p.a ** 2 * p.h1 * s * rate ** (2.0 * p.h1) * t ** (2.0 * p.h1 - 1.0)
               + k * p.b ** 2 * p.h2 * s * rate ** (2.0 * p.h2) * t ** (2.0 * p.h2 - 1.0))
    except OverflowError:
        cov = math.inf
    if not cov < math.inf:  # also NaN, a weight 0 times an inf rate
        raise OverflowError(f"the asymptotic covariance is beyond the float range at t = {t}")
    if cov == 0.0:
        raise FloatingPointError(f"the asymptotic covariance underflows to 0 at t = {t}")
    return cov


def corr_decay_prediction(p: GmfbmParams) -> DecayPrediction:
    """Predicted correlation-decay exponents for a parameter set.

    The exponents depend on the Hurst indices alone (a clock only changes
    constants, so pass a spec's ``gmfbm``).  With h1 <= h2 canonical, the
    pure term h2 - 1 always dominates the mixed term 2*h1 - h2 - 1.  A
    motion of weight 0 is absent, so the other one's index is both H1 and H2.
    """
    h1 = p.h2 if p.a == 0.0 else p.h1
    h2 = p.h1 if p.b == 0.0 else p.h2
    mixed = 2.0 * h1 - h2 - 1.0
    pure = h2 - 1.0
    return DecayPrediction(
        exponent_mixed=mixed,
        exponent_pure=pure,
        dominant=max(mixed, pure),
        exponent_plateau=-h2,
        dominant_of_three=max(mixed, pure, -h2),
    )


def is_lrd(p: GmfbmParams) -> bool:
    """Long-range dependence criterion 2*H1 - H2 < 1 (canonical h1 <= h2).

    Note the condition is implied by the ordering itself
    (2*h1 - h2 <= h2 < 1), so it holds for every valid parameter set; it is
    evaluated literally all the same.
    """
    return 2.0 * p.h1 - p.h2 < 1.0
