import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallisqm import gamma_kit
from wallisqm.errors import DomainError
from wallisqm.gamma_kit import (BoundsTriple, GammaRatioQuery, _lgamma_diff,
                                _log_gamma_ratio, _two_sum,
                                duplication_residual, gamma_ratio,
                                kazarinoff_bounds, log_gamma,
                                quartic_root_bounds, wallis_ratio,
                                wendel_deviation)

SQRT_PI = math.sqrt(math.pi)

# reference: mpmath loggamma at 40 digits
_LGAMMA_REFS = [
    (0.001, 6.907178885383853661684),
    (0.01, 4.599479878042021701581),
    (0.1, 2.252712651734205902006),
    (0.25, 1.288022524698077457371),
    (0.5, 0.5723649429247000870717),
    (0.75, 0.2032809514312953714814),
    (3.5, 1.200973602347074224816),
    (10.0, 12.80182748008146961121),
    (30.0, 71.25703896716800901007),
    (100.0, 359.134205369575398776),
    (1000.0, 5905.220423209181211826),
    (10000.0, 82099.71749644237727265),
    (100000.0, 1051287.708973656894901),
    (1000000.0, 12815504.56914761165998),
    (10000000.0, 151180949.3694739139401),
    (100000000.0, 1742068066.103834709276),
]


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_at_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(math.log(SQRT_PI), rel=1e-15)

    def test_at_ten(self):
        # Gamma(10) = 9!, an exact integer
        assert log_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), rel=1e-15)

    @pytest.mark.parametrize("x,ref", _LGAMMA_REFS)
    def test_accuracy_grid(self, x, ref):
        assert log_gamma(x) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestGammaRatio:
    def test_two_over_three_halves(self):
        # Gamma(1.5) = sqrt(pi)/2 by the recurrence, so Gamma(2)/Gamma(1.5) = 2/sqrt(pi)
        q = GammaRatioQuery(x=1.0, a=1.0, b=0.5)
        assert gamma_ratio(q) == pytest.approx(2.0 / SQRT_PI, rel=1e-14)

    def test_identical_shifts(self):
        assert gamma_ratio(GammaRatioQuery(7.3, 0.9, 0.9)) == 1.0

    def test_one_over_three_halves(self):
        q = GammaRatioQuery(x=1.0, a=0.0, b=0.5)
        assert gamma_ratio(q) == pytest.approx(2.0 / SQRT_PI, rel=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            GammaRatioQuery(x=1.0, a=-2.0, b=0.0)
        with pytest.raises(DomainError):
            GammaRatioQuery(x=1.0, a=0.0, b=-1.0)

    @pytest.mark.parametrize("x,a,b", [
        (math.inf, 1.0, 0.5), (math.nan, 1.0, 0.5),
        (2.0, math.inf, 0.5), (2.0, 1.0, math.nan),
    ])
    def test_non_finite_rejected(self, x, a, b):
        # inf - inf inside the two-sum would otherwise make the ratio nan
        with pytest.raises(DomainError):
            gamma_ratio(GammaRatioQuery(x, a, b))

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, x):
        # Gamma(x+1) = x Gamma(x)
        assert gamma_ratio(GammaRatioQuery(x, 1.0, 0.0)) == pytest.approx(x, rel=1e-13)

    @pytest.mark.parametrize("x", [100.0, 1e3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (1.0, 0.5), (2.0, 0.0), (0.5, 1.5)])
    def test_stirling_ratio_asymptotic(self, x, a, b):
        dev = abs(gamma_ratio(GammaRatioQuery(x, a, b)) * x ** (b - a) - 1.0)
        assert dev < 10.0 / x


def _mp_rel_err(value, ref):
    return float(abs(mp.mpf(value) / ref - 1))


class TestLogGammaRatioKernel:
    @given(st.one_of(st.integers(0, 2**53).map(float), st.floats(-1e300, 1e300)),
           st.floats(-1e300, 1e300))
    @example(1e6, 0.3)
    @settings(max_examples=200, deadline=None)
    def test_two_sum_is_exact(self, x, a):
        s, e = _two_sum(x, a)
        assert s == x + a
        assert Fraction(s) + Fraction(e) == Fraction(x) + Fraction(a)

    @given(st.integers(0, 2**40), st.sampled_from([0.0, 0.5, 1.0, 1.5]),
           st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    @settings(max_examples=50, deadline=None)
    def test_dyadic_offsets_keep_plain_difference(self, n, a, b):
        # no residue to fold: integer and half-integer tables keep their bits
        assume(n + a > 0.0 and n + b > 0.0)
        assert _log_gamma_ratio(n, a, b) == _lgamma_diff(n + a, n + b)

    @given(st.floats(-3.0, 12.0), st.floats(-0.9, 3.0), st.floats(-0.9, 3.0))
    @example(6.0, 0.3, 0.0)
    @example(10.0, 0.3, 0.0)
    @example(10.0, 1.0 / 3.0, 2.0 / 3.0)
    @settings(max_examples=150, deadline=None)
    def test_gamma_ratio_matches_50_digit_reference(self, log10_x, a, b):
        x = 10.0 ** log10_x
        assume(x + a > 0.0 and x + b > 0.0)
        with mp.workdps(50):
            X = mp.mpf(x)
            ref = mp.exp(mp.loggamma(X + mp.mpf(a)) - mp.loggamma(X + mp.mpf(b)))
            assert _mp_rel_err(gamma_ratio(GammaRatioQuery(x, a, b)), ref) <= 1e-13

    @given(st.floats(1e-3, 16.0), st.floats(-0.9, 3.0, exclude_max=True, exclude_min=True),
           st.floats(17.0, 150.0), st.booleans())
    @example(2.0, 0.0, 38.0, False)  # wendel_deviation(2.0, 40.0)'s ratio
    @example(16.0, 2.999, 150.0, True)
    @settings(max_examples=150, deadline=None)
    def test_offsets_far_apart_take_the_shift_loops(self, x, near, far, swap):
        # x + far exceeds _DIRECT_MAX while x + near is below _SHIFT_MIN, so
        # _lgamma_diff shifts the small argument up: u's loop, or v's if swapped
        assume(x + near > 0.0)
        a, b = (far, near) if swap else (near, far)
        with mp.workdps(50):
            X = mp.mpf(x)
            ref = mp.exp(mp.loggamma(X + mp.mpf(a)) - mp.loggamma(X + mp.mpf(b)))
            assert _mp_rel_err(gamma_ratio(GammaRatioQuery(x, a, b)), ref) <= 1e-12


class TestWallisRatio:
    def test_small_values(self):
        assert wallis_ratio(0) == 1.0
        assert wallis_ratio(1) == 0.5          # 1!!/2!! by hand
        assert wallis_ratio(2) == 0.375        # (3*1)/(4*2) by hand

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            wallis_ratio(-1)

    @pytest.mark.parametrize("n", range(100, 151))
    def test_path_overlap(self, n):
        gamma_path = gamma_ratio(GammaRatioQuery(float(n), 0.5, 1.0)) / SQRT_PI
        assert wallis_ratio(n) == pytest.approx(gamma_path, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 5, 50, 149, 151, 1000, 10_000])
    def test_gamma_identity(self, n):
        # W_n * sqrt(pi) * Gamma(n+1)/Gamma(n+1/2) = 1
        prod = wallis_ratio(n) * SQRT_PI * gamma_ratio(GammaRatioQuery(float(n), 1.0, 0.5))
        assert prod == pytest.approx(1.0, abs=1e-12)


class TestKazarinoff:
    def test_n1_triple(self):
        t = kazarinoff_bounds(1)
        assert t.lower == pytest.approx(math.sqrt(1.25), rel=1e-15)
        assert t.value == pytest.approx(2.0 / SQRT_PI, rel=1e-14)
        assert t.upper == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert t.satisfied

    def test_n100(self):
        assert kazarinoff_bounds(100).satisfied

    def test_large_n_width(self):
        t = kazarinoff_bounds(10**6)
        assert t.satisfied
        assert (t.upper - t.lower) < 2.5e-4 * t.value

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_property(self, n):
        assert kazarinoff_bounds(n).satisfied

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            kazarinoff_bounds(0)

    def test_certificate_only_past_a_million(self, monkeypatch):
        # doubles resolve the sandwich at every n <= 10⁶, so there a value
        # outside the double bounds is a fault and is reported as violated;
        # past 10⁶ the verdict falls back on the quartic certificate
        calls = []

        def certificate(x):
            calls.append(x)
            return True

        monkeypatch.setattr(gamma_kit, "_quartic_satisfied", certificate)
        monkeypatch.setattr(gamma_kit, "_log_gamma_ratio", lambda x, a, b: 0.25 * math.log(x))
        assert not kazarinoff_bounds(10**6).satisfied
        assert not kazarinoff_bounds(100).satisfied
        assert calls == []
        assert kazarinoff_bounds(10**6 + 1).satisfied
        assert calls == [10**6 + 1]

    @pytest.mark.parametrize("n", [10**7, 10**8, 10**9, 10**12, 10**15, 2**53, 10**300]
                             + [int(10.0 ** random.Random(29 + i).uniform(7.0, 308.23))
                                for i in range(20)], ids=lambda n: f"{n:.4g}")
    def test_certified_up_to_the_largest_double(self, n):
        # the quartic sandwich implies this one for n >= 1/8, and it is
        # certified at every n; the reported doubles stay as they were
        t = kazarinoff_bounds(n)
        assert t.satisfied
        assert (t.lower, t.value, t.upper) == (math.sqrt(n + 0.25),
                                               math.exp(_log_gamma_ratio(n, 1.0, 0.5)),
                                               math.sqrt(n + 0.5))


class TestQuarticRootBounds:
    def test_x1_triple(self):
        t = quartic_root_bounds(1.0)
        assert t.lower == pytest.approx(1.6171875 ** 0.25, rel=1e-15)
        assert t.value == pytest.approx(2.0 / SQRT_PI, rel=1e-14)
        assert t.upper == pytest.approx(1.625 ** 0.25, rel=1e-15)
        assert t.satisfied

    @pytest.mark.parametrize("x", [0.5, 50.0])
    def test_satisfied(self, x):
        assert quartic_root_bounds(x).satisfied

    def test_width_at_50(self):
        t = quartic_root_bounds(50.0)
        assert (t.upper - t.lower) < 1e-6 * t.value

    def test_certified_beyond_double_resolution(self):
        # the three doubles collide here, but the sandwich genuinely holds
        t = quartic_root_bounds(1e5)
        assert t.satisfied

    @pytest.mark.parametrize("x", [1e13, 1e15, 1e100, 1e300, 1.7e308])
    def test_certified_up_to_the_largest_double(self, x):
        # the margins of value⁴ are about 1/(128x⁴) relative, below what a
        # fixed 50 digits resolve from x ~ 3e12
        t = quartic_root_bounds(x)
        assert t.satisfied
        assert math.isfinite(t.lower) and math.isfinite(t.upper)

    def test_bounds_where_x_squared_overflows(self):
        x = 1e154  # x² finite: the radicand expression, bit for bit
        t = quartic_root_bounds(x)
        assert t.upper == (x * x + 0.5 * x + 0.125) ** 0.25
        assert t.lower == (x * x + 0.5 * x + 0.125 - 1.0 / (128.0 * x)) ** 0.25
        x = 1e300  # x² overflows: √x, the 1/(8x) correction below an ulp
        t = quartic_root_bounds(x)
        assert t.lower == t.upper == math.sqrt(x)

    @pytest.mark.parametrize("x", [0.0510237, 9.99, 10.0, 10.01]
                             + [10.0 ** random.Random(13 + i).uniform(5.0, 308.23)
                                for i in range(20)])
    def test_verdict_holds_at_30_more_digits(self, x):
        # the domain edge, the shift to w >= 10 on either side of 10, and
        # log-uniform x up to the largest double
        digits = max(40, 4 * math.floor(math.log10(x)) + 25) + 30
        with mp.workdps(digits):
            X = mp.mpf(x)
            value4 = (mp.gamma(X + 1) / mp.gamma(X + mp.mpf("0.5"))) ** 4
            upper4 = X * X + X / 2 + mp.mpf("0.125")
            assert upper4 - 1 / (128 * X) < value4 < upper4
        assert quartic_root_bounds(x).satisfied
        assert gamma_kit._quartic_satisfied(x)

    def test_certificate_only_past_300(self, monkeypatch):
        # doubles resolve the sandwich at every x <= 300, so there a value
        # outside the double bounds is a fault and is reported as violated;
        # past 300 the verdict falls back on the certificate
        calls = []

        def certificate(x):
            calls.append(x)
            return True

        monkeypatch.setattr(gamma_kit, "_quartic_satisfied", certificate)
        assert all(quartic_root_bounds(x).satisfied for x in (0.06, 1.0, 300.0))
        assert calls == []
        monkeypatch.setattr(gamma_kit, "_log_gamma_ratio", lambda x, a, b: 0.25 * math.log(x))
        assert not quartic_root_bounds(300.0).satisfied
        assert not quartic_root_bounds(1.0).satisfied
        assert calls == []
        assert quartic_root_bounds(300.5).satisfied
        assert calls == [300.5]

    @pytest.mark.parametrize("x", [0.0510237, 10.0, 1e5, 1e15, 1e300])
    def test_certificate_refuses_a_perturbed_stirling_table(self, monkeypatch, x):
        # the certified value⁴ is the value's own: 1 % off in the leading
        # coefficient moves it outside a margin of 1/(128x⁴) from x ~ 10
        (p, q), *rest = gamma_kit._STIRLING_PQ
        monkeypatch.setattr(gamma_kit, "_STIRLING_PQ", ((101 * p, 100 * q), *rest))
        assert gamma_kit._quartic_satisfied(x) is (x < 1.0)

    def test_stirling_table_is_exact(self):
        # B_2k/(2k(2k-1)) from the Bernoulli recurrence, and the double
        # kernel's coefficients are its first five, each rounded once
        bernoulli = [Fraction(1)]
        for m in range(1, 19):
            bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
        assert [Fraction(p, q) for p, q in gamma_kit._STIRLING_PQ] == [
            bernoulli[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, 10)]
        assert gamma_kit._STIRLING == (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0,
                                       -1.0 / 1680.0, 1.0 / 1188.0)

    @pytest.mark.parametrize("x", [-1.0, 0.0, 0.05, math.inf, math.nan])
    def test_domain_rejected(self, x):
        with pytest.raises(DomainError):
            quartic_root_bounds(x)


class TestWendel:
    @pytest.mark.parametrize("x", [0.3, 1.0, 17.0, 1e5])
    def test_exact_zero_at_integer_shifts(self, x):
        assert wendel_deviation(x, 0.0) == 0.0
        assert wendel_deviation(x, 1.0) == 0.0

    def test_large_x(self):
        assert abs(wendel_deviation(1e6, 0.5)) < 1e-6

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_monotone_decay(self, s):
        devs = [abs(wendel_deviation(10.0 ** p, s)) for p in range(1, 7)]
        assert all(d2 <= d1 for d1, d2 in zip(devs, devs[1:]))

    @given(st.floats(0.0, 12.0), st.floats(1e-3, 1.0 - 1e-3))
    @example(6.0, 0.3)
    @example(10.0, 0.3)
    @settings(max_examples=150, deadline=None)
    def test_matches_50_digit_reference(self, log10_x, s):
        x = 10.0 ** log10_x
        with mp.workdps(50):
            X, S = mp.mpf(x), mp.mpf(s)
            ref = mp.expm1(mp.loggamma(X + S) - mp.loggamma(X) - S * mp.log(X))
            assert _mp_rel_err(wendel_deviation(x, s), ref) <= 1e-9

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            wendel_deviation(1.0, -2.0)
        with pytest.raises(DomainError):
            wendel_deviation(0.0, 0.5)


class TestDuplication:
    def test_l0(self):
        assert abs(duplication_residual(0)) < 1e-15

    def test_l1(self):
        # Gamma(3) = 2 and 4*Gamma(2)*Gamma(3/2)/sqrt(pi) = 2 exactly
        assert abs(duplication_residual(1)) < 1e-13

    def test_l20(self):
        assert abs(duplication_residual(20)) < 1e-12

    def test_up_to_500(self):
        assert max(abs(duplication_residual(l)) for l in range(501)) < 1e-12


def test_bounds_triple_is_plain_record():
    t = BoundsTriple(0.0, 0.5, 1.0, True)
    assert (t.lower, t.value, t.upper, t.satisfied) == (0.0, 0.5, 1.0, True)
