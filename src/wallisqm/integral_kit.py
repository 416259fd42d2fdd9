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
up in the Coulomb expectation value.

The quadrature engine maps [0, ∞) onto itself double-exponentially
(the rational map of a tanh-sinh rule composes to x = exp(π·sinh t)) and
doubles the trapezoidal density until two refinements differ by less than
the requested tolerance; that last difference is the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError
from .gamma_kit import _log_gamma_ratio, wallis_ratio

__all__ = [
    "QuadratureResult",
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

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def gaussian_moment(m: int) -> float:
    """∫_0^∞ x^m e^{-x²} dx = Γ((m+1)/2)/2 for integer m >= 0.

    (m+1)/2 is an integer or half-integer, so Γ is taken from exact
    factorials — Γ(j) = (j-1)!, Γ(j+1/2) = (2j)!√π/(4^j j!) — while they
    fit a double (correct rounding to ~1 ulp); lgamma covers the rest.
    """
    if m != int(m) or m < 0:
        raise DomainError(f"gaussian_moment requires a nonnegative integer, got {m}")
    m = int(m)
    if m % 2 == 1:
        j = (m + 1) // 2
        if j - 1 <= 170:
            return 0.5 * float(math.factorial(j - 1))
    else:
        j = m // 2
        if 2 * j <= 300:
            return 0.5 * (math.factorial(2 * j) / (math.factorial(j) << (2 * j))) * _SQRT_PI
    return 0.5 * math.exp(math.lgamma((m + 1) / 2.0))


@dataclass(frozen=True)
class RationalMomentQuery:
    """Powers (m, n) of ∫_0^∞ x^m/(1+x²)^n dx.

    Convergence needs m >= 0 (at zero; the integral extends to m > -1 but
    the artifact keeps the nonnegative range) and 2n - m > 1 (at infinity).
    """

    m: float
    n: float

    def __post_init__(self):
        if not self.m >= 0.0:
            raise DomainError(f"numerator power must be nonnegative, got m = {self.m}")
        if not self.n > 0.0:
            raise DomainError(f"denominator power must be positive, got n = {self.n}")
        if not 2.0 * self.n - self.m > 1.0:
            raise DomainError(
                f"divergent at infinity: need 2n - m > 1, got 2·{self.n} - {self.m}"
            )


def rational_moment(q: RationalMomentQuery) -> float:
    """∫_0^∞ x^m/(1+x²)^n dx = Γ((m+1)/2)·Γ(n-(m+1)/2)/(2Γ(n))."""
    p = (q.m + 1.0) / 2.0
    return 0.5 * math.exp(math.fsum([
        math.lgamma(p), math.lgamma(q.n - p), -math.lgamma(q.n)]))


def beta_trig_integral(p: float, q: float) -> float:
    """∫_0^{π/2} sin^{2p-1}θ cos^{2q-1}θ dθ = Γ(p)Γ(q)/(2Γ(p+q)), p, q > 0.

    The substitution x = tanθ carries this to rational_moment:
    rational_moment(m, n) = beta_trig_integral((m+1)/2, n-(m+1)/2).
    """
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"beta_trig_integral requires p, q > 0, got ({p}, {q})")
    return 0.5 * math.exp(math.fsum([
        math.lgamma(p), math.lgamma(q), -math.lgamma(p + q)]))


def _check_l(l, name: str) -> int:
    if l != int(l) or l < 0:
        raise DomainError(f"{name} requires a nonnegative integer l, got {l}")
    return int(l)


def G_rational(l: int) -> float:
    """G_{l+1} = ∫_0^∞ dx/(1+x²)^{l+1}, by the recurrence
    G_{j+1} = (2j-1)/(2j)·G_j seeded with G_1 = π/2.

    Equals (π/2)·W_l, the product of the same factors.
    """
    l = _check_l(l, "G_rational")
    g = math.pi / 2.0
    for j in range(1, l + 1):
        g *= (2.0 * j - 1.0) / (2.0 * j)
    return g


def lorentz_norm_integral(l: int) -> float:
    """I_{2l+2,2l+2} = ∫_0^∞ x^{2l+2}/(1+x²)^{2l+2} dx = π·W_l/2^{2l+2}."""
    l = _check_l(l, "lorentz_norm_integral")
    return math.ldexp(math.pi * wallis_ratio(l), -(2 * l + 2))


def lorentz_coulomb_integral(l: int) -> float:
    """I_{2l+1,2l+2} = ∫_0^∞ x^{2l+1}/(1+x²)^{2l+2} dx = (l!)²/(2(2l+1)!).

    Exact integer factorials while (2l+1)! fits them comfortably (l <= 84),
    the equivalent duplication form √π·Γ(l+1)/(2^{2l+2}·Γ(l+3/2)) beyond.
    """
    l = _check_l(l, "lorentz_coulomb_integral")
    if 2 * l + 1 <= 170:
        f = math.factorial(l)
        return 0.5 * (f * f / math.factorial(2 * l + 1))
    return math.ldexp(_SQRT_PI * math.exp(_log_gamma_ratio(l, 1.0, 1.5)),
                      -(2 * l + 2))


def coulomb_to_norm_ratio(l: int) -> float:
    """I_{2l+1,2l+2}/I_{2l+2,2l+2} = 1/((l+1/2)·π·W_l²).

    Stays O(1) even where both integrals underflow, which is why the
    Coulomb expectation value is assembled from this quotient directly.
    """
    l = _check_l(l, "coulomb_to_norm_ratio")
    w = wallis_ratio(l)
    return 1.0 / ((l + 0.5) * math.pi * w * w)


# ---------------------------------------------------------------------------
# quadrature on [0, infinity)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, an upper error estimate, and the evaluation count."""

    value: float
    abs_error_estimate: float
    evaluations: int


_T_MAX = 6.0       # exp(pi*sinh t) stays finite in doubles up to here
_MAX_LEVEL = 10
_TRUNC = 1e-18     # stop a level once terms fall this far below its peak
_node_cache: dict[int, list[tuple[float, float, float, float]]] = {}


def _nodes(level: int):
    """Nodes new at this refinement level, as (x, w, 1/x, w/x²) tuples.

    x = exp(π·sinh(kh)) covers (1, ∞); the mirrored point 1/x with weight
    w/x² covers (0, 1).  Level 0 takes every k at h = 1, deeper levels add
    the odd multiples of h = 2^-level.
    """
    if level not in _node_cache:
        h = 2.0 ** (-level)
        ks = range(0, int(_T_MAX / h) + 1) if level == 0 else range(1, int(_T_MAX / h) + 1, 2)
        table = []
        for k in ks:
            t = k * h
            arg = math.pi * math.sinh(t)
            if arg > 700.0:
                break
            x = math.exp(arg)
            w = math.pi * math.cosh(t) * x
            table.append((x, w, 1.0 / x, w / (x * x)))
        _node_cache[level] = table
    return _node_cache[level]


def quad_semiinfinite(f: Callable[[float], float], tol: float) -> QuadratureResult:
    """∫_0^∞ f(x) dx for continuous, absolutely integrable, decaying f.

    Doubles the node density until two successive refinements differ by at
    most ``tol`` (an absolute tolerance, >= 1e-12); the returned
    ``abs_error_estimate`` is that last difference, floored at a few ulps
    of the value.  Non-finite integrand values (overflow at the double-
    exponentially remote tail nodes) are treated as the decayed limit 0.

    Raises ConvergenceError, carrying the best estimate, if the refinement
    budget is exhausted.
    """
    if not tol >= 1e-12:
        raise DomainError(f"tolerance must be at least 1e-12, got {tol}")
    isfinite = math.isfinite
    evals = 0
    prev = None
    current = None
    diff = math.inf
    for level in range(_MAX_LEVEL + 1):
        h = 2.0 ** (-level)
        terms = []
        peak = 0.0
        for i, (x, w, xm, wm) in enumerate(_nodes(level)):
            try:
                y = f(x)
            except (OverflowError, ZeroDivisionError):
                y = 0.0
            t_hi = w * y if isfinite(y) else 0.0
            if level or i:
                try:
                    y = f(xm)
                except (OverflowError, ZeroDivisionError):
                    y = 0.0
                t_lo = wm * y if isfinite(y) else 0.0
            else:
                t_lo = 0.0  # x = 1 is its own mirror
            terms.append(t_hi + t_lo)
            a_hi = abs(t_hi)
            a_lo = abs(t_lo)
            size = a_lo if a_lo > a_hi else a_hi
            if size > peak:
                peak = size
            if i > 3 and size <= _TRUNC * peak:
                break
        evals += 2 * (i + 1) - (level == 0)
        block = h * math.fsum(terms)
        current = block if level == 0 else prev / 2.0 + block
        if level >= 2:
            diff = abs(current - prev)
            if diff <= tol:
                return QuadratureResult(
                    value=current,
                    abs_error_estimate=max(diff, 4e-16 * abs(current)),
                    evaluations=evals,
                )
        prev = current
    raise ConvergenceError(
        f"quadrature did not reach tol = {tol} within {_MAX_LEVEL} refinements "
        f"(last difference {diff:.3e})",
        best_estimate=current,
        error_estimate=diff,
        evaluations=evals,
    )
