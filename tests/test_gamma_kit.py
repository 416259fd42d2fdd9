import math
import random
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallisqm import gamma_kit
from wallisqm import wallis_series as ws
from wallisqm.errors import DomainError
from wallisqm.gamma_kit import (_DIRECT_MAX, _SHIFT_MIN, BoundsTriple,
                                GammaRatioQuery, _log_gamma_ratio,
                                _stirling_tail, duplication_residual,
                                gamma_ratio, kazarinoff_bounds,
                                quartic_root_bounds, wallis_ratio,
                                wendel_deviation)

SQRT_PI = math.sqrt(math.pi)

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

    @pytest.mark.parametrize("u", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive_argument(self, u):
        # Γ(-1/2) is finite, but the kernel takes logs: x+a and x+b must be > 0
        with pytest.raises(DomainError):
            GammaRatioQuery(x=2.0, a=u - 2.0, b=0.5)
        with pytest.raises(DomainError):
            GammaRatioQuery(x=2.0, a=0.5, b=u - 2.0)

    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 3.5, 10.0, 30.0, 100.0,
                                   1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_accuracy_grid(self, x):
        # Γ(x+1)/Γ(x+1/2), the paper's ratio, through the direct branch up
        # to 31 and the Stirling branch beyond, within the documented 1e-13
        with mp.workdps(50):
            X = mp.mpf(x)
            ref = mp.gamma(X + 1) / mp.gamma(X + mp.mpf(0.5))
            assert _mp_rel_err(gamma_ratio(GammaRatioQuery(x, 1.0, 0.5)), ref) < 1e-13

    @pytest.mark.parametrize("x", [1.0 + 1e-6, 1.0 - 1e-9, 2.0 + 1e-10])
    def test_mixed_case_near_the_roots_of_lgamma(self, x):
        # lnΓ(x) vanishes at 1 and 2, where libm's lgamma is accurate only in
        # absolute terms; against lnΓ(x+40) ≈ 110 that is still far inside
        # the documented 1e-12 of the plain difference in the mixed case
        with mp.workdps(50):
            X = mp.mpf(x)
            for a, b, ref in [(0.0, 40.0, mp.gamma(X) / mp.gamma(X + 40)),
                              (40.0, 0.0, mp.gamma(X + 40) / mp.gamma(X))]:
                assert _mp_rel_err(gamma_ratio(GammaRatioQuery(x, a, b)), ref) < 1e-12

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


# The kernel as a composition of three helpers, the form it had before its
# two-sums, lgamma difference and Stirling tails were written out inline, and
# before its fold reused the Stirling branch's log(v), with the mixed case
# (one argument below _SHIFT_MIN, the other above _DIRECT_MAX) taken as the
# plain lgamma difference.  The kernel must return the same double as this
# reference for every argument, compared with ==; the sequence terms built on
# it likewise.

def _two_sum(a: float, b: float) -> tuple[float, float]:
    """s, e with s = fl(a + b) and s + e = a + b exactly (Knuth two-sum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _lgamma_diff(u: float, v: float) -> float:
    """lnΓ(u) - lnΓ(v) for u, v > 0, without the cancellation that a plain
    lgamma difference suffers at large, near-equal arguments."""
    if max(u, v) <= _DIRECT_MAX or min(u, v) < _SHIFT_MIN:
        return math.lgamma(u) - math.lgamma(v)
    d = u - v
    return math.fsum([
        d * math.log(v),
        (u - 0.5) * math.log1p(d / v),
        -d,
        _stirling_tail(u),
        -_stirling_tail(v),
    ])


def _reference(x: float, a: float, b: float) -> float:
    """lnΓ(x+a) - lnΓ(x+b) for x+a, x+b > 0, the sums taken exactly.

    The shifted arguments are rounded to u = fl(x+a) and v = fl(x+b); their
    two-sum residues are folded back in to first order as ψ(w)·(u_lo - v_lo),
    w = max(u, v).  Equal residues (integer or half-integer offsets of an
    integer x) leave exactly _lgamma_diff(u, v).
    """
    u, u_lo = _two_sum(x, a)
    v, v_lo = _two_sum(x, b)
    d = _lgamma_diff(u, v)
    if u_lo != v_lo:
        w = max(u, v)
        d += (math.log(w) - 0.5 / w) * (u_lo - v_lo)
    return d


def _reference_a(n: int) -> float:
    return math.exp(2.0 * _reference(n, 0.0, 0.5) - math.log(n + 0.5))


def _reference_scaled_a(n: int) -> float:
    return math.exp(2.0 * _reference(n, 1.0, 0.5) - math.log(n + 0.5))


def _reference_b(p, n: int) -> float:
    return math.exp(_reference(p.m, n, n + 0.5) + _reference(p.k, n, n + 1.5))


# integral x up to 2^511, as int and as double; real x in [1e-3, 1e12], and
# in [1e-3, 40] for the mixed case (< 16) and the direct branch (<= 32)
_KERNEL_X = st.one_of(
    st.integers(1, 2**511),
    st.integers(1, 2**511).map(float),
    st.floats(-3.0, 12.0).map(lambda e: 10.0 ** e),
    st.floats(1e-3, 40.0),
)
# the dyadic table offsets, real offsets in (-0.9, 3), and integer or
# half-integer offsets up to 2^52
_KERNEL_OFFSET = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True),
    st.integers(0, 2**52).map(float),
    st.integers(0, 2**51).map(lambda k: k + 0.5),
)


def _kernel_draw(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        x = rng.randrange(1, 2 ** rng.randrange(1, 512) + 1)
        x = float(x) if rng.random() < 0.5 else x
    elif kind == 1:
        x = 10.0 ** rng.uniform(-3.0, 12.0)
    else:
        x = rng.uniform(1e-3, 40.0)

    def offset():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice([0.0, 0.5, 1.0, 1.5])
        if kind == 1:
            return rng.uniform(-0.9, 3.0)
        k = float(rng.randrange(0, 2 ** rng.randrange(1, 52)))
        return k if kind == 2 else k + 0.5

    return x, offset(), offset()


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

    @given(_KERNEL_X, _KERNEL_OFFSET, _KERNEL_OFFSET)
    @example(500, 0.0, 0.5)  # a_seq(500) before its index became a double
    @example(2**511 - 1, 0.0, 0.5)
    @example(3.0, 30.0, 0.5)  # the mixed case, u above 32 and v below 16
    @example(8.0, 8.0 - 2.0**-49, 24.0 + 2.0**-47)  # u just below 16, v just above 32
    @example(8.0, 24.0 + 2.0**-47, 8.0 - 2.0**-49)  # the same, swapped
    @example(7.3, 1.0, 0.5)  # the direct branch, with a residue to fold
    @example(1e10, 1.0 / 3.0, 2.0 / 3.0)  # the fold past the direct branch
    @example(0.3, 2.0**52, 2.0**52 + 0.5)  # b_seq's slots at its largest n
    # the Stirling branch's fold with w = v, then w = u: a b_seq term whose
    # n+m and n+m+1/2 straddle 1024, so their two-sum residues differ (at
    # most n the two sums round alike, and there is no residue to fold)
    @example(0.87, 1023.0, 1023.5)
    @example(0.87, 1023.5, 1023.0)
    @settings(max_examples=500, deadline=None)
    def test_kernel_bits_match_the_composed_reference(self, x, a, b):
        assume(x + a > 0.0 and x + b > 0.0)
        assert _log_gamma_ratio(x, a, b) == _reference(x, a, b)

    def test_kernel_bits_match_on_a_seeded_sweep_of_every_branch(self):
        rng = random.Random(16)
        hits = Counter()
        while len(hits) < 6 or min(hits.values()) < 300:
            x, a, b = _kernel_draw(rng)
            if not (x + a > 0.0 and x + b > 0.0):
                continue
            assert _log_gamma_ratio(x, a, b) == _reference(x, a, b), (x, a, b)
            u, u_lo = _two_sum(x, a)
            v, v_lo = _two_sum(x, b)
            if max(u, v) <= _DIRECT_MAX:
                hits["direct"] += 1
            elif min(u, v) < _SHIFT_MIN:
                hits["mixed direct"] += 1
            else:
                hits["stirling"] += 1
                if u_lo != v_lo:  # the fold reuses log(v) unless u > v
                    hits["stirling fold, w = u" if u > v else "stirling fold, w = v"] += 1
            if u_lo != v_lo:
                hits["fold"] += 1
            assert hits.total() < 200_000, hits

    def test_sequence_terms_match_their_composed_references(self):
        rng = random.Random(17)
        for _ in range(2000):
            n = rng.randrange(1, 2 ** rng.randrange(1, 512))
            assert ws.a_seq(n) == _reference_a(n), n
            assert ws.scaled_a(n) == _reference_scaled_a(n), n
        params = [ws.GeneralizedParams(0.5, 0.5), ws.GeneralizedParams(0.5, 1.0),
                  ws.GeneralizedParams(-0.4, 2.3), ws.GeneralizedParams(0.0, -0.75)]
        for _ in range(2000):
            n = rng.randrange(1, 2 ** rng.randrange(2, 53) - 1)
            p = rng.choice(params)
            assert ws.b_seq(p, n) == _reference_b(p, n), (p, n)

    def test_stirling_tail_is_only_called_from_its_threshold(self, monkeypatch):
        # the kernel writes the tail out and reads _STIRLING at each call:
        # doubling every coefficient leaves it alone outside its Stirling
        # branch (both arguments >= _SHIFT_MIN, one above _DIRECT_MAX) and
        # moves it inside; where u = v or x is huge the tails cancel or sit
        # below an ulp, so only part of the draws inside show the change
        rng = random.Random(18)
        draws = []
        while len(draws) < 50_000:
            x, a, b = _kernel_draw(rng)
            if x + a > 0.0 and x + b > 0.0:
                draws.append((x, a, b, _log_gamma_ratio(x, a, b)))
        monkeypatch.setattr(gamma_kit, "_STIRLING", tuple(2.0 * c for c in gamma_kit._STIRLING))
        changed = 0
        for x, a, b, d in draws:
            u, v = x + a, x + b
            if max(u, v) <= _DIRECT_MAX or min(u, v) < _SHIFT_MIN:
                assert _log_gamma_ratio(x, a, b) == d, (x, a, b)
            else:
                changed += _log_gamma_ratio(x, a, b) != d
        assert changed >= 10_000
        monkeypatch.undo()
        # wendel_deviation and duplication_residual call the tail itself,
        # always with w >= _SHIFT_MIN, where five terms keep full accuracy
        calls = []

        def tail(w):
            calls.append(w)
            return _stirling_tail(w)

        monkeypatch.setattr(gamma_kit, "_stirling_tail", tail)
        for _ in range(2000):
            wendel_deviation(10.0 ** rng.uniform(-3.0, 12.0), rng.uniform(1e-3, 40.0))
        for l in range(200):
            duplication_residual(l)
        assert len(calls) > 3000
        assert min(calls) >= _SHIFT_MIN

    @pytest.mark.parametrize("lo,hi", [(1, 3000), (10**7 - 500, 10**7 + 1)])
    def test_a_terms_are_the_public_terms(self, lo, hi):
        assert ws._a_terms(lo, hi) == [ws.a_seq(i) for i in range(lo, hi)]

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
    @example(16.0, -2.0**-48, 16.0 + 2.0**-47, False)  # u just below 16, v just above 32
    @example(16.0, -2.0**-48, 16.0 + 2.0**-47, True)
    @settings(max_examples=150, deadline=None)
    def test_offsets_far_apart_take_the_shift_loops(self, x, near, far, swap):
        # where x + far exceeds _DIRECT_MAX while x + near is below
        # _SHIFT_MIN, the kernel takes the plain lgamma difference, with no
        # recurrence shift of the small argument, in either order
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

    def test_correctly_rounded_up_to_150(self):
        # (2n-1)!!/(2n)!! as an exact rational, built factor by factor
        exact = Fraction(1)
        for n in range(151):
            if n:
                exact *= Fraction(2 * n - 1, 2 * n)
            assert exact == Fraction(math.comb(2 * n, n), 4 ** n)
            assert wallis_ratio(n) == float(exact), n

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

    def test_proven_rule_only_past_a_million(self, monkeypatch):
        # doubles resolve the sandwich at every n <= 10⁶, so there a value
        # outside the double bounds is a fault and is reported as violated;
        # past 10⁶ the verdict is the proven sandwich, whatever the value
        monkeypatch.setattr(gamma_kit, "_log_gamma_ratio", lambda x, a, b: 0.25 * math.log(x))
        assert not kazarinoff_bounds(100).satisfied
        assert not kazarinoff_bounds(10**6).satisfied
        assert kazarinoff_bounds(10**6 + 1).satisfied

    @given(st.floats(min_value=0.0, max_value=308.0).map(
        lambda u: min(max(int(10.0 ** u), 1), 10**308)))
    @example(1)
    @example(10**6)
    @example(10**6 + 1)
    @example(10**308)
    @settings(max_examples=100, deadline=None)
    def test_verdict_holds_at_30_more_digits(self, n):
        # n log-uniform in [1, 10³⁰⁸]: the lower margin is about 1/(64n²)
        # relative, so 2·log10(n) + 30 digits resolve both sides
        with mp.workdps(int(2 * math.log10(n)) + 30):
            N = mp.mpf(n)
            value = mp.gamma(N + 1) / mp.gamma(N + mp.mpf("0.5"))
            assert mp.sqrt(N + mp.mpf("0.25")) < value < mp.sqrt(N + mp.mpf("0.5"))
        assert kazarinoff_bounds(n).satisfied

    @pytest.mark.parametrize("n", [10**7, 10**8, 10**9, 10**12, 10**15, 2**53, 10**300]
                             + [int(10.0 ** random.Random(29 + i).uniform(7.0, 308.23))
                                for i in range(20)], ids=lambda n: f"{n:.4g}")
    def test_certified_up_to_the_largest_double(self, n):
        # the quartic sandwich implies this one for n >= 1/8, and it is
        # proven at every x > 300; the reported doubles stay as they were
        t = kazarinoff_bounds(n)
        assert t.satisfied
        assert (t.lower, t.value, t.upper) == (math.sqrt(n + 0.25),
                                               math.exp(_log_gamma_ratio(n, 1.0, 0.5)),
                                               math.sqrt(n + 0.5))


def _stirling_coefficients(k_max):
    """c_k = B_2k/(2k(2k-1)), k = 1..k_max, from the Bernoulli recurrence."""
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * k_max + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    return [bernoulli[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, k_max + 1)]


# The quartic sandwich past x = 300, proven in exact arithmetic.  A function
# f of t = 1/(2x+1) on (0, T], T = 1/601, is held as a polynomial of degree
# <= N with Fraction coefficients c and a remainder bound r:
# |f(t) - Σ c_i·t^i| <= r·t^(N+1) at every t in (0, T].
_T = Fraction(1, 601)
_N = 10


def _sup(c, k=0):
    """Σ_{i>=k} |c_i|·T^(i-k), which bounds |Σ_{i>=k} c_i·t^(i-k)| on (0, T]."""
    return sum(abs(a) * _T ** (i - k) for i, a in enumerate(c) if i >= k)


class _Series:
    def __init__(self, coeffs, r=Fraction(0)):
        c = [Fraction(a) for a in coeffs]
        # a term past degree N joins the remainder: |a·t^i| <= |a|·T^(i-N-1)·t^(N+1)
        self.c = (c + [Fraction(0)] * _N)[:_N + 1]
        self.r = r + _sup(c, _N + 1)

    def __add__(self, other):
        other = other if isinstance(other, _Series) else _Series([other])
        return _Series([a + b for a, b in zip(self.c, other.c)], self.r + other.r)

    def __neg__(self):
        return _Series([-a for a in self.c], self.r)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _Series):
            return _Series([a * other for a in self.c], self.r * abs(other))
        prod = [Fraction(0)] * (2 * _N + 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                prod[i + j] += a * b
        return _Series(prod, self.r * _sup(other.c) + other.r * _sup(self.c)
                       + self.r * other.r * _T ** (_N + 1))

    __rmul__ = __mul__


_t = _Series([0, 1])


def _compose(a, tail, u):
    """Σ_j a_j·u^j for a series u with u(0) = 0, from a_0..a_N.

    With |u(t)| <= b·t, the dropped terms are at most
    (b·t)^(N+1)·Σ_{j>N} |a_j|·y^(j-N-1) at y = b·T: their majorant, whose
    coefficients are nonnegative, so it grows with y.  tail(y) bounds it.
    """
    assert u.c[0] == 0
    b = _sup(u.c, 1) + u.r * _T ** _N
    assert b * _T < 1
    out = _Series([a[_N]])
    for aj in reversed(a[:_N]):
        out = out * u + aj
    return out + _Series([], b ** (_N + 1) * tail(b * _T))


_GEOMETRIC = ([1] * (_N + 1), lambda y: 1 / (1 - y))                  # 1/(1-u)
_EXP = ([Fraction(1, math.factorial(j)) for j in range(_N + 1)],
        lambda y: Fraction(1, math.factorial(_N + 1)) / (1 - y))       # exp(u)


def _quartic_excess(c):
    """Upper and lower series of F = R(x)⁴/(x+1/2)² - (1 - t + t²/2).

    R(x) = Γ(x+1)/Γ(x+1/2) and c = [c_1, ..., c_M] are the Stirling
    coefficients.  With S(z) = lnΓ(z) - (z-1/2)·ln z + z - ln√(2π),
    ln R = ln(x+1/2)/2 + E, E = (ln(1+t) - t)/(2t) + S(x+1) - S(x+1/2),
    so R⁴/(x+1/2)² = exp(4E); 1/(x+1/2) = 2t and 1/(x+1) = 2t/(1+t).  For
    real z > 0, S(z) - P_{M-1}(z), P_k its k-term partial sum, has the sign
    of c_M and is at most |c_M|/z^(2M-1) in size (DLMF §5.11(ii)): S lies
    between P_{M-1} and P_M.  exp(4E) grows with E, so the largest E
    bounds F from above and the smallest from below.
    """
    # (ln(1+t) - t)/(2t) = Σ_{j>=1} (-t)^j/(2(j+1)), the log series shifted
    log_part = _compose([0] + [Fraction((-1) ** j, 2 * (j + 1)) for j in range(1, _N + 1)],
                        lambda y: Fraction(1, 2 * (_N + 2)) / (1 - y), _t)
    w_one = 2 * _t * _compose(*_GEOMETRIC, -_t)
    w_half = 2 * _t

    def partial(w, k):
        s, power, w2 = _Series([]), w, w * w
        for ck in c[:k]:
            s, power = s + ck * power, power * w2
        return s

    below, above = (len(c) - 1, len(c)) if c[-1] > 0 else (len(c), len(c) - 1)
    e_hi = log_part + partial(w_one, above) - partial(w_half, below)
    e_lo = log_part + partial(w_one, below) - partial(w_half, above)
    quadratic = _Series([1, -1, Fraction(1, 2)])
    return _compose(*_EXP, 4 * e_hi) - quadratic, _compose(*_EXP, 4 * e_lo) - quadratic


def _positive(f):
    """Whether the series proves f(t) > 0 at every t in (0, T]."""
    k = next((i for i, a in enumerate(f.c) if a), None)
    return k is not None and f.c[k] > _T * _sup(f.c, k + 1) + f.r * _T ** (_N + 1 - k)


def _proves_quartic_sandwich(c):
    """-t³/(16(1-t)) < F < 0 on (0, T]: the radicands x²+x/2+1/8-1/(128x)
    and x²+x/2+1/8 divided by (x+1/2)² are 1 - t + t²/2 less that and
    1 - t + t²/2 itself."""
    f_hi, f_lo = _quartic_excess(c)
    margin = Fraction(1, 16) * _t * _t * _t * _compose(*_GEOMETRIC, _t)
    return _positive(-f_hi) and _positive(f_lo + margin)


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

    @pytest.mark.parametrize("x", [0.0510237, 9.99, 10.0, 10.01, 300.0 + 1e-10, 1325.03]
                             + [10.0 ** random.Random(13 + i).uniform(5.0, 308.23)
                                for i in range(20)])
    def test_verdict_holds_at_30_more_digits(self, x):
        # the domain edge, either side of 10, just past 300 where the proven
        # rule takes over, 1325.03 where the doubles first fail, and
        # log-uniform x up to the largest double
        self._check_verdict(x)

    @given(st.floats(min_value=math.log10(0.0510237), max_value=math.log10(1.7e308))
           .map(lambda u: 10.0 ** u).filter(lambda x: 0.0510237 < x < 1.7e308))
    @settings(max_examples=100, deadline=None)
    def test_verdict_holds_at_30_more_digits_log_uniform(self, x):
        # x log-uniform over the whole domain
        self._check_verdict(x)

    @staticmethod
    def _check_verdict(x):
        # the upper margin of value⁴ is about 1/(128x⁴) relative, so these
        # digits resolve both sides
        digits = max(40, 4 * math.floor(math.log10(x)) + 25) + 30
        with mp.workdps(digits):
            X = mp.mpf(x)
            value4 = (mp.gamma(X + 1) / mp.gamma(X + mp.mpf("0.5"))) ** 4
            upper4 = X * X + X / 2 + mp.mpf("0.125")
            assert upper4 - 1 / (128 * X) < value4 < upper4
        assert quartic_root_bounds(x).satisfied

    def test_proven_rule_only_past_300(self, monkeypatch):
        # doubles resolve the sandwich at every x <= 300, so there a value
        # outside the double bounds is a fault and is reported as violated;
        # past 300 the verdict is the proven sandwich, whatever the value
        assert all(quartic_root_bounds(x).satisfied for x in (0.06, 1.0, 300.0))
        monkeypatch.setattr(gamma_kit, "_log_gamma_ratio", lambda x, a, b: 0.25 * math.log(x))
        assert not quartic_root_bounds(1.0).satisfied
        assert not quartic_root_bounds(300.0).satisfied
        assert quartic_root_bounds(300.5).satisfied

    @pytest.mark.parametrize("x", [32.0, 50.0, 100.0, 150.0, 200.0, 299.5, 300.0])
    def test_perturbed_stirling_table_is_refused_where_doubles_decide(self, monkeypatch, x):
        # 1 % off in the kernel's leading coefficient moves the value about
        # 4e-4/x² relative, outside a margin of 1/(512x⁴) at every x in the
        # kernel's Stirling range up to 300, where the doubles decide
        c0, *rest = gamma_kit._STIRLING
        monkeypatch.setattr(gamma_kit, "_STIRLING", (1.01 * c0, *rest))
        assert quartic_root_bounds(x).satisfied is False

    def test_sandwich_proven_for_every_x_past_300(self):
        # R(x)⁴ lies strictly between the two radicands at every x > 300,
        # that is at every t = 1/(2x+1) in (0, 1/601): the fact the verdict
        # states past 300, proven here once and not sampled
        c = _stirling_coefficients(5)
        f_hi, f_lo = _quartic_excess(c)
        # F = R⁴/(x+1/2)² - (1 - t + t²/2) = -t⁴/8 - t⁵/8 + 3t⁶/16 + t⁷/2 + ...,
        # and F/t⁴ stays within 2.1e-4 of -1/8
        for f in (f_hi, f_lo):
            assert f.c[:8] == [0, 0, 0, 0, Fraction(-1, 8), Fraction(-1, 8),
                               Fraction(3, 16), Fraction(1, 2)]
            assert _T * _sup(f.c, 5) + f.r * _T ** (_N - 3) < 2.1e-4
        assert _proves_quartic_sandwich(c)
        # 1 % off in c₁ leaves a t² term in F, and the proof fails
        assert not _proves_quartic_sandwich([c[0] * Fraction(101, 100), *c[1:]])

    def test_stirling_table_is_exact(self):
        # B_2k/(2k(2k-1)) from the Bernoulli recurrence, and the double
        # kernel's coefficients are the five, each rounded once
        assert [Fraction(p, q) for p, q in gamma_kit._STIRLING_PQ] == _stirling_coefficients(5)
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
