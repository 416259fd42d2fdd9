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

The Wallis ratio W_n = (2n-1)!!/(2n)!! is the exact binomial C(2n, n)/4ⁿ,
correctly rounded, up to n = 150 and the gamma form Γ(n+1/2)/(√π Γ(n+1))
beyond; :func:`wallis_ratio` is the one W that every closed form reads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, _index, _instance, _real, _validated_make

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

# Stirling tail coefficients B_{2k} / (2k(2k-1)), k = 1..5, as exact p/q:
# 1/12, -1/360, 1/1260, ...  The double kernel rounds each once by int true
# division.  The sandwiches past the double range need none of them at run
# time: they are proven once, in exact arithmetic, by the test suite.
_STIRLING_PQ = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188))
_STIRLING = tuple(p / q for p, q in _STIRLING_PQ)
_SHIFT_MIN = 16.0   # Stirling tail keeps full accuracy from here on
_DIRECT_MAX = 32.0  # below this, plain lgamma differences stay under 3e-14

_WALLIS_CROSSOVER = 150
_SQRT_PI = math.sqrt(math.pi)


def _stirling_tail(w: float) -> float:
    """S(w) = lnΓ(w) - (w-1/2)ln w + w - ln√(2π), for w >= _SHIFT_MIN.

    Used by :func:`wendel_deviation` and :func:`duplication_residual`; the
    kernel writes the same Horner form out for its two arguments.
    """
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
    of u and v alone.  This is the hot path of every sequence term, so the
    two-sums and the tails S(u), S(v) are written out, the tails as
    :func:`_stirling_tail`'s Horner form with ``_STIRLING`` read at each
    call, and the Stirling branch's fold reuses its log(v) where w = v.
    The floating-point operations and their order are those of calling
    :func:`_stirling_tail` for each tail, so the result is the same double.
    """
    u = x + a
    t = u - x
    u_lo = (x - (u - t)) + (a - t)
    v = x + b
    t = v - x
    v_lo = (x - (v - t)) + (b - t)
    if (u <= _DIRECT_MAX and v <= _DIRECT_MAX) or u < _SHIFT_MIN or v < _SHIFT_MIN:
        d = math.lgamma(u) - math.lgamma(v)
        if u_lo == v_lo:
            return d
        w = u if u >= v else v
        return d + (math.log(w) - 0.5 / w) * (u_lo - v_lo)
    e = u - v  # exact within a factor 2 (Sterbenz); farther apart, nothing cancels
    log_v = math.log(v)
    c0, c1, c2, c3, c4 = _STIRLING
    r = 1.0 / u
    r2 = r * r
    s_u = r * (c0 + r2 * (c1 + r2 * (c2 + r2 * (c3 + r2 * c4))))
    r = 1.0 / v
    r2 = r * r
    s_v = r * (c0 + r2 * (c1 + r2 * (c2 + r2 * (c3 + r2 * c4))))
    d = math.fsum((e * log_v, (u - 0.5) * math.log1p(e / v), -e, s_u, -s_v))
    if u_lo == v_lo:
        return d
    if u > v:
        return d + (math.log(u) - 0.5 / u) * (u_lo - v_lo)
    return d + (log_v - 0.5 / v) * (u_lo - v_lo)  # w = v, and u = v gives log(u) = log_v


def _log1p_minus_linear(t: float) -> float:
    """log1p(t) - t without the cancellation of its leading terms near 0."""
    if abs(t) > 0.01:
        return math.log1p(t) - t
    # -t²·(1/2 - t/3 + t²/4 - ...); ten terms reach 1e-20 relative at |t| <= 0.01
    p = 0.0
    for k in range(11, 1, -1):
        p = 1.0 / k - t * p
    return -t * t * p


class _GammaRatioQuery(NamedTuple):
    x: float
    a: float
    b: float


class GammaRatioQuery(_GammaRatioQuery):
    """Arguments of a ratio Γ(x+a)/Γ(x+b).

    All three must be finite, and both shifted arguments must avoid the
    gamma poles: x+a > 0 and x+b > 0.
    """

    __slots__ = ()

    def __new__(cls, x: float, a: float, b: float):
        _real(x, "x"), _real(a, "a"), _real(b, "b")
        if not (x + a > 0.0 and x + b > 0.0):
            raise DomainError(
                f"gamma pole: x+a = {x + a}, x+b = {x + b} must both be positive")
        return tuple.__new__(cls, (x, a, b))

    _make = classmethod(_validated_make)


def gamma_ratio(q: GammaRatioQuery) -> float:
    """Γ(x+a)/Γ(x+b), evaluated through the log-space difference.

    Never forms the two gamma values themselves, so the result is finite
    whenever the true ratio is representable.  The offsets are taken as
    exact reals: relative error within 1e-13 (checked against 50-digit
    arithmetic) for x in [1e-3, 1e12] and a, b in (-0.9, 3), and within
    1e-12 for x in [1e-3, 16] with one offset in (-0.9, 3) and the other in
    [17, 150], where the log-ratio is the plain lgamma difference, not a
    recurrence shift.  Past 1e12 the log of size ~ln x carries its rounding
    into the exponential: for Γ(x+1)/Γ(x+1/2), against mpmath at
    log10(x) + 60 digits, the relative error is 6.1e-16 at x = 1e12,
    2.6e-15 at 1e50, 5.5e-15 at 1e100, 1.2e-14 at 1e300 and 1.6e-14 at
    1.7e308.
    """
    _instance(q, GammaRatioQuery, "gamma_ratio query")
    delta = _log_gamma_ratio(q.x, q.a, q.b)
    try:
        return math.exp(delta)
    except OverflowError:
        return math.inf


def wallis_ratio(n: int) -> float:
    """W_n = (2n-1)!!/(2n)!! = C(2n, n)/4ⁿ = Γ(n+1/2)/(√π Γ(n+1)).

    Up to n = 150 the exact integer ratio C(2n, n)/4ⁿ, correctly rounded
    (an oracle for the gamma path that shares no rounding with it), and the
    gamma form beyond; on the overlap n in [100, 150] the gamma form is
    within 4.5e-16 of the binomial.  The gamma form is the exp of a log of
    size ½·ln n, which carries its rounding into W: against 60-digit mpmath
    it is within 5.3e-15 relative up to n = 10²⁴, the worst near n = 10¹⁶.
    """
    n = _index(n, "wallis_ratio")
    if n <= _WALLIS_CROSSOVER:
        return math.comb(2 * n, n) / 4 ** n
    return math.exp(_log_gamma_ratio(n, 0.5, 1.0)) / _SQRT_PI


class BoundsTriple(NamedTuple):
    """A (lower, value, upper) sandwich with its strictness verdict.

    ``satisfied`` is lower < value < upper in doubles wherever the doubles
    resolve the sandwich, so there a failure is a fault of the value.
    Beyond that threshold, where they may tie or cross, ``satisfied`` is
    true: it states the theorem at that argument, proven once for the whole
    range, and does not test the printed triple.
    """

    lower: float
    value: float
    upper: float
    satisfied: bool


def kazarinoff_bounds(n: int) -> BoundsTriple:
    """√(n+1/4) < Γ(n+1)/Γ(n+1/2) < √(n+1/2), which holds for every n >= 1.

    The verdict is lower < value < upper in doubles, which hold at every
    n <= 10⁶.  The lower margin shrinks like 1/(64n²) relative, so past 10⁶
    the doubles may tie or cross, and there the verdict is true: the
    quartic sandwich of :func:`quartic_root_bounds`, proven for every
    x > 300, implies this one for n >= 1/8, since
    (n+1/4)² <= n²+n/2+1/8-1/(128n) and n²+n/2+1/8 <= (n+1/2)².
    """
    n = _index(n, "kazarinoff_bounds", lo=1)
    value = math.exp(_log_gamma_ratio(n, 1.0, 0.5))
    lower = math.sqrt(n + 0.25)
    upper = math.sqrt(n + 0.5)
    return BoundsTriple(lower, value, upper, lower < value < upper or n > 10**6)


def quartic_root_bounds(x: float) -> BoundsTriple:
    """(x²+x/2+1/8-1/(128x))^¼ < Γ(x+1)/Γ(x+1/2) < (x²+x/2+1/8)^¼.

    The lower radicand is positive only for x above ~0.05102366 (the real
    root of 128x³+64x²+16x = 1); smaller x, x = inf and nan are rejected.
    The verdict is lower < value < upper in doubles, which resolve the
    sandwich at every x <= 300: the value's upper margin, about 1/(512x⁴)
    relative, is still above the 1e-13 accuracy of :func:`gamma_ratio`
    there.  Beyond 300 the verdict is true.  The sandwich is proven once
    for every x > 300: with R the exact ratio, t = 1/(2x+1) and Stirling's
    remainder bound (DLMF §5.11(ii)), (R⁴/(x+1/2)² - (1 - t + t²/2))/t⁴
    lies within 2.1e-4 of -1/8, so inside (-1/(16t(1-t)), 0).  Past 300
    the verdict therefore states the theorem at x and does not test the
    printed triple: from x ~ 5e3 the three doubles collide, and the value,
    about 1e-14 relative from R at the largest x, may print outside its
    bounds (see :func:`gamma_ratio`).  Where x² overflows, from
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
    return BoundsTriple(lower, value, upper, lower < value < upper or x > 300)


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
