"""Closed forms for the radial integral families, plus an independent
semi-infinite quadrature engine that certifies each of them.

Closed forms (all with positive parameters):

    ∫_0^∞ x^m e^{-x²} dx            = Γ((m+1)/2)/2
    ∫_0^∞ x^m/(1+x²)^n dx           = Γ((m+1)/2)·Γ(n-(m+1)/2)/(2Γ(n))
    ∫_0^{π/2} sin^{2p-1}θ cos^{2q-1}θ dθ = Γ(p)Γ(q)/(2Γ(p+q))
    G_{l+1} = ∫_0^∞ dx/(1+x²)^{l+1} = (π/2)·W_l     (via G_{l+1} = (2l-1)/(2l)·G_l)

and the two Lorentz-trial specializations

    I_{2l+2,2l+2} = π·W_l/2^{2l+2},     I_{2l+1,2l+2} = (l!)²/(2(2l+1)!),

whose quotient 1/((l+1/2)·π·W_l²) is the square of the Wallis ratio showing
up in the Coulomb expectation value.  W_l is gamma_kit's one Wallis ratio,
and the Coulomb integral the exact factorial ratio, correctly rounded, for
every l <= 508.

The quadrature engine maps [0, ∞) onto itself double-exponentially
(the rational map of a tanh-sinh rule composes to x = exp(π·sinh t)) and
doubles the trapezoidal density until the last two refinements agree well
within its one absolute tolerance, 1e-10, or their contraction predicts
that the last one does, and estimates the error of the refinement it
returns.  It also integrates a tuple-valued integrand in one sweep, one
call per node for all components, each component converging exactly as it
would alone.
One table of cases, shared by ``wallisqm integrals`` and verify,
certifies the closed forms by quadrature relative to each integrand's peak
scale: 2^{2l+2} times the Lorentz integrals, to about 1e-14 up to l = 508.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .errors import (_MAX_TERMS, ConvergenceError, DomainError, _index, _instance, _real,
                     _validated_make)
from .gamma_kit import _SQRT_PI, wallis_ratio

__all__ = [
    "QuadratureResult",
    "QuadratureParts",
    "RationalMomentQuery",
    "gaussian_moment",
    "rational_moment",
    "beta_trig_integral",
    "G_rational",
    "lorentz_norm_integral",
    "lorentz_coulomb_integral",
    "coulomb_to_norm_ratio",
    "quad_semiinfinite",
]

# largest arguments whose closed forms are normal doubles: Γ(343/2)/2 is the
# last Gaussian moment below the overflow threshold, and both Lorentz
# integrals, about 2^-(2l+2)/√l, fall below the smallest normal double at l = 509
_GAUSSIAN_MOMENT_M_MAX = 342
_LORENTZ_L_MAX = 508
# largest l whose (l + 1/2)·π, in coulomb_to_norm_ratio, is finite: the
# double 0x1.45f306dc9c882p+1022 (about 5.72e307) is the largest whose
# product with π is, and l rounds to it up to half its ulp, 2^969, above
# (the tie goes to its even significand); a bisection over l finds the same
_COULOMB_RATIO_L_MAX = int(float.fromhex("0x1.45f306dc9c882p+1022")) + 2**969


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def gaussian_moment(m: int) -> float:
    """∫_0^∞ x^m e^{-x²} dx = Γ((m+1)/2)/2 for integer 0 <= m <= 342.

    (m+1)/2 is an integer or half-integer, so Γ is taken from exact
    factorials, Γ(j) = (j-1)! and Γ(j+1/2) = (2j)!√π/(4^j j!), over the
    whole domain: within 2.5e-16 relative for every m.  m = 342 (about
    4.7e307) is the largest valid argument: beyond it the moment overflows
    a double, and DomainError is raised.
    """
    m = _index(m, "gaussian_moment", hi=_GAUSSIAN_MOMENT_M_MAX)
    if m % 2 == 1:
        return 0.5 * float(math.factorial((m - 1) // 2))
    j = m // 2
    return 0.5 * (math.factorial(2 * j) / (math.factorial(j) << (2 * j))) * _SQRT_PI


class _RationalMomentQuery(NamedTuple):
    m: float
    n: float


class RationalMomentQuery(_RationalMomentQuery):
    """Powers (m, n) of ∫_0^∞ x^m/(1+x²)^n dx.

    Convergence needs m >= 0 (at zero; the integral extends to m > -1 but
    the artifact keeps the nonnegative range) and 2n - m > 1 (at infinity).
    """

    __slots__ = ()

    def __new__(cls, m: float, n: float):
        if not _real(m, "m") >= 0.0:
            raise DomainError(f"numerator power must be nonnegative, got m = {m}")
        if not _real(n, "n") > 0.0:
            raise DomainError(f"denominator power must be positive, got n = {n}")
        if not 2.0 * n - m > 1.0:
            raise DomainError(
                f"divergent at infinity: need 2n - m > 1, got 2·{n} - {m}"
            )
        return tuple.__new__(cls, (m, n))

    _make = classmethod(_validated_make)


def rational_moment(q: RationalMomentQuery) -> float:
    """∫_0^∞ x^m/(1+x²)^n dx = Γ((m+1)/2)·Γ(n-(m+1)/2)/(2Γ(n))."""
    _instance(q, RationalMomentQuery, "rational_moment query")
    p = (q.m + 1.0) / 2.0
    return beta_trig_integral(p, q.n - p)


def beta_trig_integral(p: float, q: float) -> float:
    """∫_0^{π/2} sin^{2p-1}θ cos^{2q-1}θ dθ = Γ(p)Γ(q)/(2Γ(p+q)), p, q > 0.

    The substitution x = tanθ carries this to rational_moment:
    rational_moment(m, n) = beta_trig_integral((m+1)/2, n-(m+1)/2).
    """
    if not (_real(p, "p") > 0.0 and _real(q, "q") > 0.0):
        raise DomainError(f"beta_trig_integral requires p, q > 0, got ({p}, {q})")
    return 0.5 * math.exp(math.fsum([
        math.lgamma(p), math.lgamma(q), -math.lgamma(p + q)]))


def G_rational(l: int) -> float:
    """G_{l+1} = ∫_0^∞ dx/(1+x²)^{l+1}, by the recurrence
    G_{j+1} = (2j-1)/(2j)·G_j seeded with G_1 = π/2.

    Equals (π/2)·W_l, a second path to wallis_ratio's binomial and gamma
    forms.  The recurrence takes l steps, so l is limited to 10⁷;
    DomainError beyond.
    """
    l = _index(l, "G_rational", hi=_MAX_TERMS)
    g = math.pi / 2.0
    for j in range(1, l + 1):
        g *= (2.0 * j - 1.0) / (2.0 * j)
    return g


def lorentz_norm_integral(l: int) -> float:
    """I_{2l+2,2l+2} = ∫_0^∞ x^{2l+2}/(1+x²)^{2l+2} dx = π·W_l/2^{2l+2}.

    l = 508 (about 2.8e-308) is the largest valid argument: beyond it the
    integral is subnormal in doubles, and DomainError is raised.
    """
    l = _index(l, "lorentz_norm_integral", hi=_LORENTZ_L_MAX)
    return math.ldexp(math.pi * wallis_ratio(l), -(2 * l + 2))


def lorentz_coulomb_integral(l: int) -> float:
    """I_{2l+1,2l+2} = ∫_0^∞ x^{2l+1}/(1+x²)^{2l+2} dx = (l!)²/(2(2l+1)!).

    That is 1/(2(2l+1)·C(2l, l)), the binomial of W_l, taken as an exact
    integer ratio, so correctly rounded for every l.  l = 508 (about
    2.8e-308) is the largest valid argument: beyond it the integral is
    subnormal in doubles, and DomainError is raised.
    """
    l = _index(l, "lorentz_coulomb_integral", hi=_LORENTZ_L_MAX)
    return 1 / (2 * (2 * l + 1) * math.comb(2 * l, l))


def coulomb_to_norm_ratio(l: int) -> float:
    """I_{2l+1,2l+2}/I_{2l+2,2l+2} = 1/((l+1/2)·π·W_l²).

    Stays O(1) even where both integrals underflow, which is why the
    Coulomb expectation value is assembled from this quotient directly.
    l is limited to about 5.72e307, the largest l whose (l+1/2)·π is a
    finite double; DomainError beyond, where the quotient would read 0.
    """
    l = _index(l, "coulomb_to_norm_ratio", hi=_COULOMB_RATIO_L_MAX)
    w = wallis_ratio(l)
    return 1.0 / ((l + 0.5) * math.pi * w * w)


# ---------------------------------------------------------------------------
# quadrature on [0, infinity)
# ---------------------------------------------------------------------------

class QuadratureResult(NamedTuple):
    """Integral value, an upper error estimate, the evaluation count, and
    ``levels``: the refinement level at which the result converged (level k
    has step 2^-k; the first comparison is made at level 2)."""

    value: float
    abs_error_estimate: float
    evaluations: int
    levels: int


class QuadratureParts(NamedTuple):
    """The integrals of a tuple-valued f from one sweep of quad_semiinfinite.

    ``parts`` holds one QuadratureResult per component, each bit-identical
    to a scalar quad_semiinfinite call on that component alone: its own
    value, error estimate, evaluation count and convergence level.
    ``evaluations`` counts the calls of f, and ``levels`` is the deepest
    component's level.
    """

    parts: tuple[QuadratureResult, ...]
    evaluations: int
    levels: int


_T_MAX = 6.0       # exp(pi*sinh t) <= exp(633.7) stays finite in doubles up to here
_MAX_LEVEL = 10
_TRUNC = 1e-18     # stop a level once terms fall this far below its peak
_FLOOR = 64 * 2.0 ** -52  # a level's rounding floor, relative to its value
# the one absolute tolerance of every quadrature, and the two thresholds of
# the stop rule derived from it (as doubles, exactly 1e-13 and 1e-12)
_TOL = 1e-10
_DIFF_TOL = 1e-3 * _TOL
_PREDICT_TOL = 1e-2 * _TOL


@functools.cache
def _nodes(level: int) -> list[tuple[float, float, float, float]]:
    """Nodes new at this refinement level, as (x, w, 1/x, w/x²) tuples.

    x = exp(π·sinh(kh)) covers (1, ∞); the mirrored point 1/x with weight
    w/x² covers (0, 1).  Level 0 takes every k at h = 1, deeper levels add
    the odd multiples of h = 2^-level.
    """
    h = 2.0 ** (-level)
    ks = range(0, int(_T_MAX / h) + 1) if level == 0 else range(1, int(_T_MAX / h) + 1, 2)
    table = []
    for k in ks:
        t = k * h
        x = math.exp(math.pi * math.sinh(t))
        w = math.pi * math.cosh(t) * x
        table.append((x, w, 1.0 / x, w / (x * x)))
    return table


def quad_semiinfinite(f: Callable) -> QuadratureResult | QuadratureParts:
    """∫_0^∞ f(x) dx for continuous, absolutely integrable, decaying f.

    Doubles the node density, level k having step 2^-k, and stops at the
    first level k >= 2 whose difference d_k = |Q_k - Q_(k-1)| from the
    level before meets one of three tests, all absolute and derived from
    the one tolerance 1e-10:

    - d_k <= 1e-13;
    - d_k <= 64ε·|Q_k|, ε = 2^-52, the rounding floor: 32 to 64 ulps of
      Q_k.  Differences below it are rounding, not convergence: past
      convergence the levels of the integral table's integrands differ by
      at most 6 ulps, and by up to 77 ulps for the Lorentz ones near
      l = 500, whose (2l+2)-th powers amplify the rounding of their base;
    - k >= 3 and d_k²/d_(k-1) <= 1e-12.  For a double-exponential rule
      d_k is about the error of Q_(k-1), so this predicts the error of Q_k
      from the last contraction ratio (Bailey, Jeyabalan and Li, "A
      comparison of three high-precision quadrature schemes",
      Experimental Math. 14, 2005).

    ``abs_error_estimate`` estimates the error of the returned Q_k, floored
    at 64ε·|Q_k|: d_k where a difference test decided; where the prediction
    decided, d_k·d_(k-1)/d_(k-2), the last difference contracted by the
    ratio before the last one (d_k at level 3, or where the differences
    grew).  In the first levels over a narrow peak the contraction is
    irregular, and d_k²/d_(k-1) fell up to 260 times short of the error
    (∫(1+x²)^-191 at level 4); the previous ratio did not.  The floor
    covers the integrand's own rounding, up to 43ε·|Q_k| on the Lorentz
    integrands.  Against 50 digits, the estimate is at least the error of
    every case of the integral table up to l = 508, and of the centred
    moment integrands of every combination at l up to 10⁴.  Where the
    prediction decided it may exceed 1e-10.

    Non-finite integrand values (overflow at the double-exponentially
    remote tail nodes) and OverflowError or ZeroDivisionError raised by f
    are treated as the decayed limit 0.

    A float-valued f gives a QuadratureResult.  A tuple-valued f gives a
    QuadratureParts, all its components integrated in one sweep: f is
    called once per node for all of them, while each component keeps its
    own terms, peak, truncation index, convergence level and fsum, so each
    part is bit-identical to a scalar call on that component.  The nodes of
    a level run until every component still converging has truncated, and
    a converged component is frozen.  A non-finite component is 0 for that
    component only; an exception raised by f zeroes them all.  The width is
    read from f(1.0), the first node, whose value is reused; an exception
    there makes f a scalar 0 at that node, so a tuple-valued f must return
    a value at x = 1.

    Raises ConvergenceError, carrying the best estimate and the last
    difference, if the refinement budget is exhausted (for a tuple, that of
    the first component that did not converge, as the scalar call on it
    would).
    """
    isfinite = math.isfinite
    try:
        first = f(1.0)
    except (OverflowError, ZeroDivisionError):
        first = 0.0
    scalar = not isinstance(first, tuple)
    width = 1 if scalar else len(first)
    zero = 0.0 if scalar else (0.0,) * width
    done: list[QuadratureResult | None] = [None] * width
    current = [0.0] * width
    # each component's last two differences, d_(k-1) and d_(k-2); 0.0 stands
    # for one not yet taken
    diff = [0.0] * width
    older = [0.0] * width
    evals = [0] * width
    calls = 0
    for level in range(_MAX_LEVEL + 1):
        h = 2.0 ** (-level)
        nodes = _nodes(level)
        # f at the level's nodes x and 1/x, shared by the components; level 0
        # starts at x = 1, its own mirror, where f was called for the width
        ys, zs = ([first], [zero]) if level == 0 else ([], [])
        for c in range(width):
            if done[c] is not None:
                continue
            terms: list[float] = []
            peak = 0.0
            n = len(nodes)
            cached = len(ys)
            for i, (x, w, xm, wm) in enumerate(nodes):
                if i < cached:
                    y, z = ys[i], zs[i]
                else:
                    try:
                        y = f(x)
                    except (OverflowError, ZeroDivisionError):
                        y = zero
                    try:
                        z = f(xm)
                    except (OverflowError, ZeroDivisionError):
                        z = zero
                    ys.append(y)
                    zs.append(z)
                if not scalar:
                    y, z = y[c], z[c]
                t_hi = w * y if isfinite(y) else 0.0
                t_lo = wm * z if isfinite(z) else 0.0
                terms.append(t_hi + t_lo)
                a_hi = abs(t_hi)
                a_lo = abs(t_lo)
                size = a_lo if a_lo > a_hi else a_hi
                if size > peak:
                    peak = size
                if i > 3 and size <= _TRUNC * peak:
                    n = i + 1
                    break
            evals[c] += 2 * n - (level == 0)
            block = h * math.fsum(terms)
            value = block if level == 0 else current[c] / 2.0 + block
            if level >= 2:
                d = abs(value - current[c])
                floor = _FLOOR * abs(value)
                if d <= _DIFF_TOL or d <= floor:
                    estimate = d
                elif level >= 3 and d * d <= _PREDICT_TOL * diff[c]:
                    estimate = d * diff[c] / older[c] if diff[c] < older[c] else d
                else:
                    estimate = None
                if estimate is not None:
                    done[c] = QuadratureResult(
                        value=value,
                        abs_error_estimate=max(estimate, floor),
                        evaluations=evals[c],
                        levels=level,
                    )
                older[c] = diff[c]
                diff[c] = d
            current[c] = value
        calls += 2 * len(ys) - (level == 0)
        if None not in done:
            if scalar:
                return done[0]
            return QuadratureParts(parts=tuple(done), evaluations=calls, levels=level)
    c = done.index(None)
    raise ConvergenceError(
        f"quadrature did not reach tol = {_TOL} within {_MAX_LEVEL} refinements "
        f"(last difference {diff[c]:.3e})",
        best_estimate=current[c],
        error_estimate=diff[c],
        evaluations=evals[c],
    )


# ---------------------------------------------------------------------------
# the closed forms certified by quadrature (`integrals` and verify)
# ---------------------------------------------------------------------------

def _integral_cases(l_max: int):
    """(label, index, closed, e, f) with ∫_0^∞ f = 2^e·closed: the Gaussian
    and rational moments and the three l-families up to l_max.  e = 2l+2
    makes each Lorentz integrand peak at 1; e = 0 for the others."""
    for m in range(13):
        yield ("gaussian-moment", m, gaussian_moment(m), 0,
               lambda x, m=m: x ** m * math.exp(-x * x))
    for m, n in ((0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (4.0, 4.0), (3.0, 5.0), (6.0, 5.0)):
        yield ("rational-moment", int(m), rational_moment(RationalMomentQuery(m, n)), 0,
               lambda x, m=m, n=n: x ** m / (1.0 + x * x) ** n)
    for l in range(l_max + 1):
        e = 2 * l + 2
        yield ("rational-integral", l, G_rational(l), 0,
               lambda x, l=l: (1.0 + x * x) ** -(l + 1.0))
        yield ("lorentz-norm", l, lorentz_norm_integral(l), e,
               lambda x, e=e: (2.0 * x / (1.0 + x * x)) ** e)
        yield ("lorentz-coulomb", l, lorentz_coulomb_integral(l), e,
               lambda x, e=e: (2.0 * x / (1.0 + x * x)) ** (e - 1) * 2.0 / (1.0 + x * x))


def _certified_integrals(l_max: int):
    """(label, index, closed, quad, bound, dev, passed) for each case of
    _integral_cases, by quad_semiinfinite.  dev = |∫f - 2^e·closed|
    is taken on the scaled integrand, and the case passes when it is at
    most 1e-9; quad and bound are returned scaled back by 2^-e, so every
    bound is 2^-e·1e-9.  (Up to l = 508 every scaled case is within
    2.8e-11, and its error estimate, at least that deviation, reaches
    4.8e-9 where the contraction decided, so the bound is not taken from
    the estimate.)"""
    for label, idx, closed, e, f in _integral_cases(l_max):
        res = quad_semiinfinite(f)
        dev = abs(res.value - math.ldexp(closed, e))
        yield (label, idx, closed, math.ldexp(res.value, -e), math.ldexp(1e-9, -e),
               dev, dev <= 1e-9)
