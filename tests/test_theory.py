"""Reference-formula evaluators and the LRD classifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfbm.process import GmfbmParams, TimeChangedSpec, exact_cov_oracle
from gmfbm.subordinators import SubordinatorSpec
from gmfbm.theory import (
    corr_decay_prediction,
    cov_asymptotic,
    is_lrd,
)

weights = st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3)
hursts = st.floats(0.05, 0.95)


def tss_spec(a=1.0, b=1.0, h1=0.55, h2=0.8, alpha=0.7, lam=1.0):
    return TimeChangedSpec(GmfbmParams(a, b, h1, h2),
                           SubordinatorSpec.tss(alpha, lam))


def gamma_spec(a=1.0, b=1.0, h1=0.55, h2=0.8, nu=1.0):
    return TimeChangedSpec(GmfbmParams(a, b, h1, h2), SubordinatorSpec.gamma(nu))


class TestCovAsymptotics:
    def test_underflow_raises(self):
        # r = 1e-300: r**2H1 and r**2H2 underflow, and the formula is positive
        with pytest.raises(FloatingPointError,
                           match=r"^the asymptotic covariance underflows to 0 at t = 100\.0$"):
            cov_asymptotic(gamma_spec(nu=1e300), 1.0, 100.0)

    def test_tss_single_block_value(self):
        spec = tss_spec(a=1.0, b=0.0)
        for t in (10.0, 250.0):
            expected = 0.55 * 0.7 ** 1.1 * t ** 0.1
            assert cov_asymptotic(spec, 1.0, t) == pytest.approx(expected, rel=1e-12)

    def test_gamma_single_block_value(self):
        spec = gamma_spec(a=1.0, b=0.0, h1=0.6, h2=0.9)
        expected = 2.0 * 0.6 * 100.0 ** 0.2
        assert cov_asymptotic(spec, 1.0, 100.0) == pytest.approx(expected, rel=1e-12)

    @given(s=st.floats(0.1, 5.0), t_mult=st.floats(1.5, 100.0),
           a=weights, b=weights, h1=hursts, h2=hursts)
    @settings(max_examples=100, deadline=None)
    def test_linear_in_s(self, s, t_mult, a, b, h1, h2):
        spec = tss_spec(a=a, b=b, h1=h1, h2=h2)
        t = 2.0 * s * t_mult
        one = cov_asymptotic(spec, s, t)
        two = cov_asymptotic(spec, 2.0 * s, t)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    @given(s=st.floats(0.1, 5.0), t_mult=st.floats(1.5, 100.0),
           a=weights, b=weights, h1=hursts, h2=hursts)
    @settings(max_examples=100, deadline=None)
    def test_positive(self, s, t_mult, a, b, h1, h2):
        t = s * t_mult
        assert cov_asymptotic(tss_spec(a=a, b=b, h1=h1, h2=h2), s, t) > 0.0
        assert cov_asymptotic(gamma_spec(a=a, b=b, h1=h1, h2=h2), s, t) > 0.0

    def test_tss_ratio_tends_to_one(self):
        spec = tss_spec()
        r3 = exact_cov_oracle(spec, 1.0, 1e3) / cov_asymptotic(spec, 1.0, 1e3)
        r5 = exact_cov_oracle(spec, 1.0, 1e5) / cov_asymptotic(spec, 1.0, 1e5)
        assert abs(r3 - 1.0) < 0.10
        assert abs(r5 - 1.0) < 0.03

    def test_gamma_ratio_constant_reported(self):
        # the Gamma covariance formula carries an extra factor 2, so the
        # oracle/formula ratio settles near 1/2 rather than 1
        spec = gamma_spec()
        ratios = [exact_cov_oracle(spec, 1.0, t) / cov_asymptotic(spec, 1.0, t)
                  for t in (1e3, 1e4, 1e5)]
        assert max(ratios) - min(ratios) < 0.03 * ratios[-1]
        assert ratios[-1] == pytest.approx(0.5, abs=0.01)

    def test_time_order_required(self):
        with pytest.raises(ValueError):
            cov_asymptotic(tss_spec(), 2.0, 1.0)


class TestDecayPrediction:
    def test_reference_pair(self):
        p = GmfbmParams(1.0, 1.0, 0.55, 0.8)
        pred = corr_decay_prediction(p)
        assert pred.exponent_mixed == pytest.approx(-0.7)
        assert pred.exponent_pure == pytest.approx(-0.2)
        assert pred.dominant == pytest.approx(-0.2)
        assert pred.exponent_plateau == -0.8
        assert pred.dominant_of_three == pytest.approx(-0.2)
        assert is_lrd(p)

    def test_h2_term_leads_below_one_half(self):
        # Cov tends to V(s)/2, so the correlation decays like t**-H2, which
        # the stated prediction (dominant -0.7 here) lacks
        pred = corr_decay_prediction(GmfbmParams(1.0, 1.0, 0.2, 0.3))
        assert pred.dominant == pytest.approx(-0.7)
        assert pred.exponent_plateau == -0.3
        assert pred.dominant_of_three == -0.3

    def test_equal_indices(self):
        pred = corr_decay_prediction(GmfbmParams(1.0, 1.0, 0.6, 0.6))
        assert pred.exponent_mixed == pytest.approx(-0.4)
        assert pred.exponent_pure == pytest.approx(-0.4)
        assert pred.dominant == pytest.approx(-0.4)

    @pytest.mark.parametrize("a,b,h1,h2,h", [(1.0, 0.0, 0.55, 0.8, 0.55),
                                             (0.0, 1.0, 0.55, 0.8, 0.8),
                                             (0.0, 1.0, 0.8, 0.55, 0.55),
                                             (2.0, 0.0, 0.3, 0.8, 0.3)])
    def test_zero_weight_reads_the_motion_left(self, a, b, h1, h2, h):
        # a motion of weight 0 is absent: the process is B^H alone, so its
        # index is both H1 and H2, whichever order the pair was given in
        pred = corr_decay_prediction(GmfbmParams(a, b, h1, h2))
        assert pred == corr_decay_prediction(GmfbmParams(1.0, 1.0, h, h))
        assert pred.dominant == pytest.approx(h - 1.0)
        assert pred.exponent_plateau == -h

    @given(a=weights, b=weights, h1=hursts, h2=hursts)
    @settings(max_examples=100, deadline=None)
    def test_dominant_negative(self, a, b, h1, h2):
        pred = corr_decay_prediction(GmfbmParams(a, b, h1, h2))
        assert pred.dominant < 0.0
        assert pred.dominant == max(pred.exponent_mixed, pred.exponent_pure)
        assert pred.dominant_of_three == max(pred.dominant, pred.exponent_plateau)


class TestIsLrd:
    @pytest.mark.parametrize("h1,h2", [(0.55, 0.8), (0.3, 0.6), (0.9, 0.9)])
    def test_reference_pairs(self, h1, h2):
        assert is_lrd(GmfbmParams(1.0, 1.0, h1, h2))

    @given(a=weights, b=weights, h1=hursts, h2=hursts)
    @settings(max_examples=100, deadline=None)
    def test_swap_invariance(self, a, b, h1, h2):
        assert is_lrd(GmfbmParams(a, b, h1, h2)) == is_lrd(GmfbmParams(b, a, h2, h1))

    @given(a=weights, b=weights, h1=hursts, h2=hursts)
    @settings(max_examples=100, deadline=None)
    def test_holds_under_canonical_ordering(self, a, b, h1, h2):
        # 2 h1 - h2 <= h2 < 1 once h1 <= h2, so the criterion is implied by
        # the ordering; verify the literal evaluation agrees
        assert is_lrd(GmfbmParams(a, b, h1, h2))
