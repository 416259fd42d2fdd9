"""Stable gamma-function ratios, the Wallis ratio, and classical bound checks.

Everything in this module reduces to ratios Γ(x+a)/Γ(x+b) evaluated in log
space.  A direct ``lgamma(u) - lgamma(v)`` difference carries the absolute
rounding of two huge logs (already ~3e-12 of relative ratio error at
x = 1e4, ~7e-10 at 1e6), so for large arguments the difference is assembled
from Stirling's expansion with the divergent pieces cancelled analytically:

    lnΓ(u) - lnΓ(v) = d·ln v + (u - 1/2)·log1p(d/v) - d + S(u) - S(v),
    d = u - v,
    S(w) = 1/(12w) - 1/(360w³) + 1/(1260w⁵) - 1/(1680w⁷) + 1/(1188w⁹).

It needs both arguments at 16 or more.  Up to 32, and where one argument is
below 16 and the other above 32 (nothing cancels there), the difference is
plain lgamma, with no recurrence shift.  The rounding of x+a and x+b, which
at x = 1e10 loses all but five digits of a non-dyadic offset, is carried as
exact two-sum residues and folded back in; against 50-digit arithmetic the
ratio stays within 1e-13 relative for x in [1e-3, 1e12] and real offsets
a, b in (-0.9, 3).

The Wallis ratio W_n = (2n-1)!!/(2n)!! doubles as the running-product
definition and the gamma form Γ(n+1/2)/(√π Γ(n+1)); both paths are exposed
through :func:`wallis_ratio`, which switches representation at n = 150.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import DomainError, _index, _real

__all__ = [
    "GammaRatioQuery",
    "BoundsTriple",
    "gamma_ratio",
    "wallis_ratio",
    "kazarinoff_bounds",
    "quartic_root_bounds",
    "wendel_deviation",
    "duplication_residual",
]

# Stirling tail coefficients B_{2k} / (2k(2k-1)), k = 1..9, as exact p/q:
# 1/12, -1/360, 1/1260, ...  The double kernel uses the first five, each
# rounded once by int true division; the quartic certificate uses eight and
# bounds the remainder by the ninth.
_STIRLING_PQ = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
                (-691, 360360), (1, 156), (-3617, 122400), (43867, 244188))
_STIRLING = tuple(p / q for p, q in _STIRLING_PQ[:5])
_SHIFT_MIN = 16.0   # Stirling tail keeps full accuracy from here on
_DIRECT_MAX = 32.0  # below this, plain lgamma differences stay under 3e-14

_WALLIS_CROSSOVER = 150
_SQRT_PI = math.sqrt(math.pi)


def _stirling_tail(w: float) -> float:
    """S(w) = lnΓ(w) - (w-1/2)ln w + w - ln√(2π), for w >= _SHIFT_MIN."""
    r = 1.0 / w
    r2 = r * r
    c0, c1, c2, c3, c4 = _STIRLING
    return r * (c0 + r2 * (c1 + r2 * (c2 + r2 * (c3 + r2 * c4))))


def _log_gamma_ratio(x: float, a: float, b: float) -> float:
    """lnΓ(x+a) - lnΓ(x+b) for x+a, x+b > 0, the sums taken exactly.

    The shifted arguments are rounded to u = fl(x+a) and v = fl(x+b), with
    Knuth two-sum residues u_lo, v_lo: u + u_lo = x + a exactly.  Up to
    _DIRECT_MAX, or with one argument below _SHIFT_MIN, the difference is
    plain lgamma, with no recurrence shift; beyond, it is Stirling's form
    with the divergent pieces cancelled.  The residues are folded back in
    to first order as ψ(w)·(u_lo - v_lo), w = max(u, v); equal residues
    (integer or half-integer offsets of an integer x) leave the difference
    of u and v alone.  The two-sums are written out: this is the hot path
    of every sequence term.
    """
    u = x + a
    t = u - x
    u_lo = (x - (u - t)) + (a - t)
    v = x + b
    t = v - x
    v_lo = (x - (v - t)) + (b - t)
    if (u <= _DIRECT_MAX and v <= _DIRECT_MAX) or u < _SHIFT_MIN or v < _SHIFT_MIN:
        d = math.lgamma(u) - math.lgamma(v)
    else:
        e = u - v  # exact within a factor 2 (Sterbenz); farther apart, nothing cancels
        d = math.fsum([e * math.log(v), (u - 0.5) * math.log1p(e / v), -e,
                       _stirling_tail(u), -_stirling_tail(v)])
    if u_lo != v_lo:
        w = u if u >= v else v
        d += (math.log(w) - 0.5 / w) * (u_lo - v_lo)
    return d


def _log1p_minus_linear(t: float) -> float:
    """log1p(t) - t without the cancellation of its leading terms near 0."""
    if abs(t) > 0.01:
        return math.log1p(t) - t
    # -t²·(1/2 - t/3 + t²/4 - ...); ten terms reach 1e-20 relative at |t| <= 0.01
    p = 0.0
    for k in range(11, 1, -1):
        p = 1.0 / k - t * p
    return -t * t * p


@dataclass(frozen=True)
class GammaRatioQuery:
    """Arguments of a ratio Γ(x+a)/Γ(x+b).

    All three must be finite, and both shifted arguments must avoid the
    gamma poles: x+a > 0 and x+b > 0.
    """

    x: float
    a: float
    b: float

    def __post_init__(self):
        _real(self.x, "x"), _real(self.a, "a"), _real(self.b, "b")
        if not (self.x + self.a > 0.0 and self.x + self.b > 0.0):
            raise DomainError(
                f"gamma pole: x+a = {self.x + self.a}, x+b = {self.x + self.b} "
                "must both be positive"
            )


def gamma_ratio(q: GammaRatioQuery) -> float:
    """Γ(x+a)/Γ(x+b), evaluated through the log-space difference.

    Never forms the two gamma values themselves, so the result is finite
    whenever the true ratio is representable.  The offsets are taken as
    exact reals: relative error within 1e-13 (checked against 50-digit
    arithmetic) for x in [1e-3, 1e12] and a, b in (-0.9, 3), and within
    1e-12 for x in [1e-3, 16] with one offset in (-0.9, 3) and the other in
    [17, 150], where the log-ratio is the plain lgamma difference, not a
    recurrence shift.
    """
    delta = _log_gamma_ratio(q.x, q.a, q.b)
    try:
        return math.exp(delta)
    except OverflowError:
        return math.inf


def wallis_ratio(n: int) -> float:
    """W_n = (2n-1)!!/(2n)!! = Γ(n+1/2)/(√π Γ(n+1)).

    Uses the running product up to n = 150 (exactly representable factors,
    an independent oracle for the gamma path) and the gamma form beyond;
    the two paths agree to 1e-13 on the overlap n in [100, 150].
    """
    n = _index(n, "wallis_ratio")
    if n <= _WALLIS_CROSSOVER:
        w = 1.0
        for k in range(1, n + 1):
            w *= (2.0 * k - 1.0) / (2.0 * k)
        return w
    return math.exp(_log_gamma_ratio(n, 0.5, 1.0)) / _SQRT_PI


@dataclass(frozen=True)
class BoundsTriple:
    """A (lower, value, upper) sandwich with its strictness verdict.

    ``satisfied`` is lower < value < upper in doubles wherever the doubles
    resolve the sandwich, so there a failure is a fault of the value.
    Beyond that, where they may tie or cross, the verdict is certified in
    decimal arithmetic instead of reporting a tie as violated.
    """

    lower: float
    value: float
    upper: float
    satisfied: bool


def kazarinoff_bounds(n: int) -> BoundsTriple:
    """√(n+1/4) < Γ(n+1)/Γ(n+1/2) < √(n+1/2), certified for every n >= 1.

    The verdict is lower < value < upper in doubles, which hold at every
    n <= 10⁶.  The lower margin shrinks like 1/(64n²) relative, so past 10⁶
    the doubles may tie or cross; there a failure defers to the certified
    quartic sandwich of :func:`quartic_root_bounds`, which implies this one
    for n >= 1/8: (n+1/4)² <= n²+n/2+1/8-1/(128n) and n²+n/2+1/8 <= (n+1/2)².
    """
    n = _index(n, "kazarinoff_bounds", lo=1)
    value = math.exp(_log_gamma_ratio(n, 1.0, 0.5))
    lower = math.sqrt(n + 0.25)
    upper = math.sqrt(n + 0.5)
    return BoundsTriple(lower, value, upper,
                        lower < value < upper or (n > 10**6 and _quartic_satisfied(n)))


def _quartic_satisfied(x: float) -> bool:
    # The strict quartic sandwich of R(x) = Γ(x+1)/Γ(x+1/2), certified in
    # decimal arithmetic for x > 300, the only x either caller consults it
    # at.  Write ln R(x) = ln(x+1/2)/2 + E with E = Σ_{j>=1} (-t)^j/(2(j+1))
    # + S(x+1) - S(x+1/2), t = 1/(2x+1), so value⁴ = (x+1/2)²·exp(4E) and
    # no large logarithm cancels.  S keeps eight terms; the ninth
    # coefficient bounds each remainder by c₉/z¹⁷ (DLMF 5.11(ii)), and
    # 10^(3-prec) covers the rounding.  The upper margin of value⁴ is about
    # 1/(128x⁴) relative and the lower 1/(128x³), so at
    # max(40, 4·floor(log10 x) + 25) digits both exceed that slack by at
    # least 15 digits, up to the largest double.
    X = Decimal(x)  # exact
    with localcontext() as ctx:
        ctx.prec = prec = max(40, 4 * X.adjusted() + 25)
        half = Decimal("0.5")
        *c, c9 = [Decimal(p) / q for p, q in _STIRLING_PQ]

        def tail(z):
            r = 1 / z
            r2, s = r * r, Decimal(0)
            for ck in reversed(c):
                s = s * r2 + ck
            return s * r

        t = 1 / (2 * X + 1)
        e, term, k = tail(X + 1) - tail(X + half), -t, 2
        eps = Decimal(1).scaleb(-prec)
        while abs(term) > eps:
            e += term / (2 * k)
            term *= -t
            k += 1
        # both remainders lie below c₉/x¹⁷ <= c₉·10^(-17·floor(log10 x)), and
        # exp(4δ) - 1 <= 5δ for an error δ of E this small
        slack = 10 * c9 * Decimal(1).scaleb(-17 * X.adjusted()) + eps.scaleb(3)
        value4 = (X + half) ** 2 * (4 * e).exp()
        upper4 = X * X + X / 2 + Decimal("0.125")
        lower4 = upper4 - 1 / (128 * X)
        return lower4 < value4 * (1 - slack) and value4 * (1 + slack) < upper4


def quartic_root_bounds(x: float) -> BoundsTriple:
    """(x²+x/2+1/8-1/(128x))^¼ < Γ(x+1)/Γ(x+1/2) < (x²+x/2+1/8)^¼.

    The lower radicand is positive only for x above ~0.05102366 (the real
    root of 128x³+64x²+16x = 1); smaller x, x = inf and nan are rejected.
    The verdict is lower < value < upper in doubles, which resolve the
    sandwich at every x <= 300: the value's upper margin, about 1/(512x⁴)
    relative, is still above the 1e-13 accuracy of :func:`gamma_ratio`
    there.  Beyond 300 a failure defers to a certificate in decimal
    arithmetic at max(40, 4·floor(log10 x) + 25) digits, which resolves the
    margins at every finite x: from x ~ 5e3 the three doubles collide even
    though the sandwich genuinely holds.  Where x² overflows, from
    x ~ 1.34e154, both bounds are reported as √x: their 1/(8x) correction
    is below an ulp.
    """
    if not _real(x, "quartic_root_bounds x") > 0.0:
        raise DomainError(f"quartic_root_bounds requires x > 0, got {x}")
    upper_rad = x * x + 0.5 * x + 0.125
    lower_rad = upper_rad - 1.0 / (128.0 * x)
    if not lower_rad > 0.0:
        raise DomainError(
            f"lower-bound radicand {lower_rad} is not positive at x = {x}; "
            "the bound needs x > ~0.05102366"
        )
    value = math.exp(_log_gamma_ratio(x, 1.0, 0.5))
    if upper_rad == math.inf:  # x² overflowed
        lower = upper = math.sqrt(x)
    else:
        lower, upper = lower_rad ** 0.25, upper_rad ** 0.25
    return BoundsTriple(lower, value, upper,
                        lower < value < upper or (x > 300 and _quartic_satisfied(x)))


def wendel_deviation(x: float, s: float) -> float:
    """Γ(x+s)/(x^s Γ(x)) - 1, which tends to 0 as x grows (fixed s).

    Identically zero at s = 0 and s = 1 (Γ(x+1) = xΓ(x)), returned as an
    exact 0.0 in those cases.  From x, x+s >= 16 the s·ln x is cancelled
    analytically, t = s/x:  x·(log1p(t) - t) + (s - 1/2)·log1p(t) + S(x+s) - S(x).
    Relative error within 1e-9 of 50-digit arithmetic for x in [1, 1e12]
    and s in [1e-3, 1 - 1e-3].
    """
    if not _real(x, "wendel_deviation x") > 0.0:
        raise DomainError(f"wendel_deviation requires x > 0, got {x}")
    if not x + _real(s, "wendel_deviation s") > 0.0:
        raise DomainError(f"gamma pole: x+s = {x + s} must be positive")
    if s == 0.0 or s == 1.0:
        return 0.0
    if min(x, x + s) < _SHIFT_MIN:
        return math.expm1(_log_gamma_ratio(x, s, 0.0) - s * math.log(x))
    t = s / x
    return math.expm1(x * _log1p_minus_linear(t) + (s - 0.5) * math.log1p(t)
                      + _stirling_tail(x + s) - _stirling_tail(x))


def duplication_residual(l: int) -> float:
    """Relative residual of Γ(2l+1) = 2^{2l} Γ(l+1) Γ(l+1/2)/√π.

    Evaluated fully in log space.  For l >= 16 the large Stirling pieces of
    the three log-gammas are cancelled analytically, leaving

        (l+1/2)·log1p(-1/(2(l+1))) + 1/2 + S(2l+1) - S(l+1) - S(l+1/2),

    so the residual stays below ~2e-14 out to l = 500 and beyond (plain
    lgamma differences would already exceed 1e-12 there).
    """
    l = _index(l, "duplication_residual")
    if l < 16:
        d = math.fsum([
            math.lgamma(2.0 * l + 1.0),
            -2.0 * l * math.log(2.0),
            -math.lgamma(l + 1.0),
            -math.lgamma(l + 0.5),
            0.5 * math.log(math.pi),
        ])
    else:
        d = math.fsum([
            (l + 0.5) * math.log1p(-0.5 / (l + 1.0)),
            0.5,
            _stirling_tail(2.0 * l + 1.0),
            -_stirling_tail(l + 1.0),
            -_stirling_tail(l + 0.5),
        ])
    return math.expm1(d)
