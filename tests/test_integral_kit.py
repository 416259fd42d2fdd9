import inspect
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from wallisqm.errors import ConvergenceError, DomainError
from wallisqm.gamma_kit import wallis_ratio
from wallisqm.integral_kit import (G_rational, QuadratureResult,
                                   RationalMomentQuery, beta_trig_integral,
                                   coulomb_to_norm_ratio, gaussian_moment,
                                   lorentz_coulomb_integral,
                                   lorentz_norm_integral, quad_semiinfinite,
                                   rational_moment)
from wallisqm.integral_kit import (_COULOMB_RATIO_L_MAX, _DIFF_TOL, _MAX_LEVEL, _PREDICT_TOL,
                                   _nodes)

PI = math.pi
SQRT_PI = math.sqrt(PI)


class TestGaussianMoment:
    def test_zeroth(self):
        assert gaussian_moment(0) == pytest.approx(SQRT_PI / 2.0, rel=1e-15)

    def test_first(self):
        # elementary antiderivative -e^{-x^2}/2
        assert gaussian_moment(1) == 0.5

    def test_third(self):
        # recurrence I_3 = ((3-1)/2)·I_1 = I_1
        assert gaussian_moment(3) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("m", range(2, 61))
    def test_recurrence(self, m):
        assert gaussian_moment(m) == pytest.approx(
            0.5 * (m - 1) * gaussian_moment(m - 2), rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            gaussian_moment(-1)

    @pytest.mark.parametrize("m", [True, 1.5, math.nan, math.inf, "3"])
    def test_rejects_non_integer(self, m):
        with pytest.raises(DomainError):
            gaussian_moment(m)

    def test_largest_argument(self):
        # the last moment below the overflow threshold; the next raises
        # DomainError where it raised OverflowError
        assert math.isfinite(gaussian_moment(342))
        assert gaussian_moment(342) == pytest.approx(
            0.5 * math.exp(math.lgamma(171.5)), rel=1e-13)
        for m in (343, 400, 10**6):
            with pytest.raises(DomainError):
                gaussian_moment(m)

    def test_exact_over_the_whole_domain(self):
        # exact factorials: about one rounding of the quotient and one of √π
        with mp.workdps(50):
            for m in range(343):
                ref = mp.gamma(mp.mpf(m + 1) / 2) / 2
                assert abs(gaussian_moment(m) / ref - 1) <= 4.5e-16, m


class TestRationalMoment:
    def test_arctan_case(self):
        assert rational_moment(RationalMomentQuery(0.0, 1.0)) == pytest.approx(
            PI / 2.0, rel=1e-14)

    def test_m2_n2(self):
        # (1/2)·Gamma(3/2)·Gamma(1/2)/Gamma(2) = pi/4
        assert rational_moment(RationalMomentQuery(2.0, 2.0)) == pytest.approx(
            PI / 4.0, rel=1e-14)

    def test_elementary_substitution(self):
        # u = 1 + x^2 gives exactly 1/2
        assert rational_moment(RationalMomentQuery(1.0, 2.0)) == pytest.approx(
            0.5, rel=1e-14)

    @pytest.mark.parametrize("m,n", [(2.0, 1.5), (0.0, 0.5), (1.0, 1.0)])
    def test_divergent_rejected(self, m, n):
        with pytest.raises(DomainError):
            RationalMomentQuery(m, n)

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            RationalMomentQuery(-0.5, 3.0)


class TestBetaTrig:
    def test_constant_integrand(self):
        assert beta_trig_integral(0.5, 0.5) == pytest.approx(PI / 2.0, rel=1e-14)

    def test_sin_cos(self):
        assert beta_trig_integral(1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_matches_rational_moment(self):
        assert beta_trig_integral(1.5, 0.5) == pytest.approx(PI / 4.0, rel=1e-14)

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("n", [1.0, 2.0, 3.5, 5.0, 8.0])
    def test_tangent_substitution_identity(self, m, n):
        if 2.0 * n - m <= 1.0:
            return
        # rational_moment is beta_trig_integral; the reference is the trig
        # integral itself, by 30-digit quadrature
        lhs = rational_moment(RationalMomentQuery(m, n))
        p, q = (m + 1.0) / 2.0, n - (m + 1.0) / 2.0
        with mp.workdps(30):
            rhs = float(mp.quad(lambda t: mp.sin(t) ** (2 * p - 1) * mp.cos(t) ** (2 * q - 1),
                                [0, mp.pi / 2]))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta_trig_integral(0.0, 1.0)


class TestGRational:
    def test_seed(self):
        assert G_rational(0) == pytest.approx(PI / 2.0, rel=1e-15)

    def test_first_steps(self):
        assert G_rational(1) == pytest.approx(PI / 4.0, rel=1e-15)
        assert G_rational(2) == pytest.approx(3.0 * PI / 16.0, rel=1e-15)

    @pytest.mark.parametrize("l", [0, 1, 2, 10, 100, 300])
    def test_wallis_ratio_identity(self, l):
        assert G_rational(l) == pytest.approx(PI / 2.0 * wallis_ratio(l), rel=1e-12)


class TestLorentzIntegrals:
    def test_norm_values(self):
        assert lorentz_norm_integral(0) == pytest.approx(PI / 4.0, rel=1e-14)
        assert lorentz_norm_integral(1) == pytest.approx(PI / 32.0, rel=1e-14)
        assert lorentz_norm_integral(2) == pytest.approx(3.0 * PI / 512.0, rel=1e-14)

    def test_norm_matches_rational_moment(self):
        for l in range(0, 26):
            q = RationalMomentQuery(2.0 * l + 2.0, 2.0 * l + 2.0)
            assert lorentz_norm_integral(l) == pytest.approx(
                rational_moment(q), rel=1e-13)

    @pytest.mark.parametrize("l", range(0, 101))
    def test_norm_reduction_chain(self, l):
        # I_{2l+2,2l+2} = G_{l+1}/2^{2l+1}
        assert lorentz_norm_integral(l) == pytest.approx(
            math.ldexp(G_rational(l), -(2 * l + 1)), rel=1e-13)

    def test_coulomb_values(self):
        assert lorentz_coulomb_integral(0) == 0.5
        assert lorentz_coulomb_integral(1) == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert lorentz_coulomb_integral(2) == pytest.approx(1.0 / 60.0, rel=1e-15)

    @pytest.mark.parametrize("l", list(range(0, 85)))
    def test_coulomb_duplication_form(self, l):
        with mp.workdps(30):
            dup = mp.ldexp(mp.sqrt(mp.pi) * mp.gamma(l + 1) / mp.gamma(l + mp.mpf(1.5)),
                           -(2 * l + 2))
        assert lorentz_coulomb_integral(l) == pytest.approx(float(dup), rel=1e-13)

    def test_coulomb_correctly_rounded_over_its_domain(self):
        # (l!)²/(2(2l+1)!) as an exact rational, built by the ratio
        # I_l/I_(l-1) = l/(2(2l+1))
        exact = Fraction(1, 2)
        for l in range(509):
            if l:
                exact *= Fraction(l, 2 * (2 * l + 1))
            assert lorentz_coulomb_integral(l) == float(exact), l
        assert exact == Fraction(math.factorial(508) ** 2, 2 * math.factorial(1017))

    def test_coulomb_matches_rational_moment(self):
        q = RationalMomentQuery(201.0, 202.0)
        assert lorentz_coulomb_integral(100) == pytest.approx(
            rational_moment(q), rel=1e-12)

    @pytest.mark.parametrize("fn", [lorentz_norm_integral, lorentz_coulomb_integral])
    def test_largest_argument(self, fn):
        # the last l whose integral is a normal double; beyond it DomainError,
        # where 0.0 or a subnormal came back silently
        assert fn(508) >= sys.float_info.min
        expected = coulomb_to_norm_ratio(508) if fn is lorentz_coulomb_integral else 1.0
        assert fn(508) / lorentz_norm_integral(508) == pytest.approx(expected, rel=1e-12)
        for l in (509, 600):
            with pytest.raises(DomainError):
                fn(l)

    @pytest.mark.parametrize("l", [True, -1, 2.5, math.nan, math.inf])
    def test_rejects_bad_l(self, l):
        for fn in (G_rational, lorentz_norm_integral, lorentz_coulomb_integral,
                   coulomb_to_norm_ratio):
            with pytest.raises(DomainError):
                fn(l)

    def test_ratio_values(self):
        assert coulomb_to_norm_ratio(0) == pytest.approx(2.0 / PI, rel=1e-14)
        assert coulomb_to_norm_ratio(1) == pytest.approx(8.0 / (3.0 * PI), rel=1e-14)

    def test_ratio_limit_is_the_last_finite_product(self):
        # bisect for the largest l whose (l + 1/2)·π is finite; past it the
        # quotient read 0.0 (at 6·10³⁰⁷), against about 1 - 1/(4l)
        lo, hi = 0, int(sys.float_info.max)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if math.isfinite((mid + 0.5) * math.pi) else (lo, mid - 1)
        assert lo == _COULOMB_RATIO_L_MAX
        assert abs(coulomb_to_norm_ratio(lo) - 1.0) <= 1e-13
        with pytest.raises(DomainError):
            coulomb_to_norm_ratio(lo + 1)
        with pytest.raises(DomainError):
            coulomb_to_norm_ratio(6e307)

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 17, 40])
    def test_ratio_matches_quotient(self, l):
        quotient = lorentz_coulomb_integral(l) / lorentz_norm_integral(l)
        assert coulomb_to_norm_ratio(l) == pytest.approx(quotient, rel=1e-13)


class TestQuadrature:
    def test_gaussian(self):
        res = quad_semiinfinite(lambda x: math.exp(-x * x))
        assert abs(res.value - SQRT_PI / 2.0) < 1e-10
        assert abs(res.value - SQRT_PI / 2.0) <= 10.0 * res.abs_error_estimate
        assert res.evaluations > 0

    def test_lorentzian(self):
        res = quad_semiinfinite(lambda x: 1.0 / (1.0 + x * x))
        assert abs(res.value - PI / 2.0) < 1e-10

    def test_rational_fourth_power(self):
        res = quad_semiinfinite(lambda x: x ** 4 / (1.0 + x * x) ** 4)
        assert abs(res.value - PI / 32.0) < 1e-9

    def test_error_estimate_within_tol(self):
        res = quad_semiinfinite(lambda x: math.exp(-x))
        assert res.abs_error_estimate <= 1e-10
        assert abs(res.value - 1.0) <= 10.0 * res.abs_error_estimate

    def test_one_tolerance(self):
        # f is the whole interface; the stop rule's thresholds, derived from
        # the one tolerance 1e-10, are the doubles 1e-13 and 1e-12
        assert list(inspect.signature(quad_semiinfinite).parameters) == ["f"]
        assert (_DIFF_TOL, _PREDICT_TOL) == (1e-13, 1e-12)
        with pytest.raises(TypeError):
            quad_semiinfinite(math.exp, 1e-10)

    def test_divergent_integrand_raises(self):
        with pytest.raises(ConvergenceError) as info:
            quad_semiinfinite(lambda x: 1.0 / (1.0 + x))
        assert info.value.best_estimate is not None
        assert info.value.evaluations > 0

    def test_divergent_pinned(self):
        # best estimate, last difference and evaluation count, bit for bit
        with pytest.raises(ConvergenceError) as info:
            quad_semiinfinite(lambda x: 1.0 / (1.0 + x))
        assert info.value.best_estimate == 634.010051599295
        assert info.value.error_estimate == 0.30957899640623054
        assert info.value.evaluations == 12289
        assert str(info.value) == ("quadrature did not reach tol = 1e-10 within 10 refinements "
                                   "(last difference 3.096e-01)")

    def test_levels(self):
        # e^{-x²} stops at level 5 (step 2^-5), where the contraction from
        # level 4 predicts the error, after the 229 evaluations of levels 0
        # through 5
        res = quad_semiinfinite(lambda x: math.exp(-x * x))
        assert (res.levels, res.evaluations) == (5, 229)

    @pytest.mark.parametrize("level", range(_MAX_LEVEL + 1))
    def test_nodes_are_finite_at_every_level(self, level):
        # t <= _T_MAX = 6 keeps π·sinh t <= 633.7, so exp stays finite and
        # every node is kept; w/x² underflows to 0 at the far tail
        nodes = _nodes(level)
        assert len(nodes) == (7 if level == 0 else 3 * 2 ** level)
        assert all(math.isfinite(v) for node in nodes for v in node)

    def test_result_is_frozen_record(self):
        res = QuadratureResult(1.0, 1e-12, 42, 3)
        with pytest.raises(AttributeError):
            res.value = 2.0


def _raising(x):
    if x < 1e-9:
        raise ZeroDivisionError("near zero")
    if x > 30.0:
        raise OverflowError("tail")
    return x * math.exp(-x)


# integrand -> (value, abs_error_estimate, evaluations); the results
# are pinned bit for bit, so any change to the node sweep that alters the
# summation order, the truncation test or the evaluation count shows here.
# The prediction decides the first three and gaussian-moment-12, the
# difference test the exponential and the three tails
PINNED_QUADRATURES = [
    ("gaussian", lambda x: math.exp(-x * x),
     (0.8862269254527579, 5.48909572128396e-12, 229)),
    ("lorentzian", lambda x: 1.0 / (1.0 + x * x),
     (1.5707963267948966, 3.239419367174591e-14, 119)),
    ("rational-fourth-power", lambda x: x ** 4 / (1.0 + x * x) ** 4,
     (0.09817477042468106, 2.707219684080881e-12, 89)),
    ("exponential", lambda x: math.exp(-x),
     (1.0, 1.4210854715202004e-14, 229)),
    ("gaussian-moment-12", lambda x: x ** 12 * math.exp(-x * x),
     (143.94263890752217, 2.0455479288375808e-12, 133)),
    # the one case of the integral table up to l = 15 that the rounding
    # floor decides: its estimate is the floor, 64ε·|Q|
    ("gaussian-moment-10", lambda x: x ** 10 * math.exp(-x * x),
     (26.17138889227676, 3.7191780524319653e-13, 151)),
    ("raises-overflow-and-zero-division", _raising,
     (0.9999999999998238, 4.0967229608668276e-14, 181)),
    ("nan-tail", lambda x: x * math.exp(-x) if x < 30.0 else math.nan,
     (0.9999999999998238, 4.0967229608668276e-14, 185)),
    ("minus-inf-tail", lambda x: x * math.exp(-x) if x < 30.0 else -math.inf,
     (0.9999999999998238, 4.0967229608668276e-14, 185)),
]


@pytest.mark.parametrize("name,f,expected", PINNED_QUADRATURES,
                         ids=[case[0] for case in PINNED_QUADRATURES])
def test_quadrature_bit_identical(name, f, expected):
    res = quad_semiinfinite(f)
    assert (res.value, res.abs_error_estimate, res.evaluations) == expected
