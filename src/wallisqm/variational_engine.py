"""Variational energy levels for hydrogen and the isotropic oscillator with
Gaussian and Lorentz trial families.

Trial functions (radial factor; the angular part is a spherical harmonic
that integrates out analytically, leaving the centrifugal term l(l+1)/r²):

    Gaussian:  R(r) = r^l · exp(-α r²)
    Lorentz:   R(r) = r^l / (a² + r²)^{l+1}

(atomic/oscillator units ħ = m = e² = ω = 1 throughout).  Rescaling the
radial variable by the trial length s, r = s·x, with s = 1/√(2α)
(Gaussian) or a (Lorentz), leaves a profile that does not depend on s:

    ⟨H⟩ = (K + v·P)/(s²·N),   v = -s (Coulomb) or s⁴/2 (oscillator),

with three scale-free moments K (kinetic and centrifugal), P (potential)
and N (norm).  Every level is this one algebra: ⟨H⟩ is stationary at
s = 2K/P (Coulomb) or s⁴ = 2K/P (oscillator), the virial relation, and the
level is ⟨H⟩ of the same moments there.  The two methods differ only in
where the moments come from.  The closed method takes the closed moment
ratios (K/N, P/N, 1):

    Gaussian:  K/N = (l+3/2)/2,       P/N = Γ(l+1)/Γ(l+3/2) or l+3/2
    Lorentz:   K/N = (l+1)(l+1/2)/2,  P/N = 1/((l+1/2)·π·W_l²) or (l+3/2)/(l-1/2)

(Coulomb or oscillator; the Lorentz ⟨r²⟩ is finite only for l >= 1), so
that the Wallis ratio W_l reaches the Lorentz-Coulomb level only through
P/N, and the minimized levels are

    E(Gaussian-Coulomb)  = -(1/2)·[Γ(l+1)/Γ(l+3/2)]²/(l+3/2)
    E(Lorentz-Coulomb)   = -(1/2)·[Γ(l+1)/Γ(l+1/2)]⁴/((l+1)(l+1/2)³)
    E(Gaussian-osc.)     = l + 3/2                      (exact; α* = 1/2)
    E(Lorentz-osc.)      = √((l+1)(l+1/2)(l+3/2)/(l-1/2))

The numeric method integrates the moments by semi-infinite quadrature of
the integrated-by-parts form

    ⟨H⟩ = [∫ (R'²r² + l(l+1)R²)/2 + V R² r² dr] / ∫ R² r² dr

(boundary terms vanish for both families).  The norm integrand peaks at
x_pk (√(l+1) Gaussian, 1 Lorentz) with a width that shrinks like
1/√(l+1), so each level is integrated in the centred variable y,
x = x_pk·y^c with c = κ/√(l+1): there the integrand has an O(1) width in
ln y at every l, l = 0 included, which the double-exponential rule needs
to converge fast.  All three moments come from one quadrature sweep that
evaluates the squared profile once per node, each moment converging
exactly as a quadrature of its own would, bit for bit.  A numeric level is
one such sweep at a 1e-10 tolerance (about 108 integrand calls a level
over l <= 20, 73–79 from l = 100).  Both methods take every l up to 10²⁴,
one orbital limit.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import DivergenceError, DomainError, _index, _member, _real, _validated_make
from .gamma_kit import _log1p_minus_linear, _log_gamma_ratio
from .integral_kit import coulomb_to_norm_ratio, quad_semiinfinite

__all__ = [
    "Family",
    "Potential",
    "Method",
    "TrialSpec",
    "EnergyEstimate",
    "expectation_energy_closed",
    "expectation_energy_numeric",
    "optimal_param_closed",
    "exact_energy",
    "variational_energy",
]


class Family(Enum):
    GAUSSIAN = "gaussian"
    LORENTZ = "lorentz"


class Potential(Enum):
    COULOMB = "coulomb"
    HARMONIC_OSCILLATOR = "oscillator"


class Method(Enum):
    CLOSED_FORM = "closed"
    NUMERIC = "numeric"


_PARAM_MIN, _PARAM_MAX = 1e-75, 1e75
# largest orbital number, of every function and both methods: the largest
# power of ten below 7937005259840989620600832, the first l whose closed
# Gaussian-Coulomb optimum α* ≈ 1/(2l³) falls below 1e-75.  At 10²⁴ the
# four closed optima, 5.0e-73, 0.5, 1e48 and 1e12, are trial states, and
# the Coulomb ratios are 1 to the last bit (the gap, about 1/(8l²), is
# below 1e-48)
_MAX_L = 10**24
# absolute quadrature tolerance of the moment sweep, whose moments are O(1)
# at every l: the one sweep of a numeric level and of
# expectation_energy_numeric, which therefore agree bit for bit
_LEVEL_TOL = 1e-10
# κ of the centred variable, per family, from a sweep of the mean integrand
# calls a level over l = 0…20: Gaussian 126–131 for κ in [0.4, 0.62], then
# 139–152 from 0.65 to 0.8; Lorentz 85–89 for κ in [0.6, 0.85], but from
# 0.9 single levels need 201–207 calls.  From l = 100 to 10²⁴ a level takes
# 73–79 calls at these values
_KAPPA = {Family.GAUSSIAN: 0.55, Family.LORENTZ: 0.8}


class _TrialSpec(NamedTuple):
    family: Family
    l: int
    param: float


class TrialSpec(_TrialSpec):
    """A trial-function family with orbital number l and scale parameter.

    ``param`` is the Gaussian width α or the Lorentz scale a; the principal
    quantum number at zero radial excitation is n = l + 1.  It must lie in
    [1e-75, 1e75], so that the fourth power of the trial length that ⟨H⟩
    uses stays a normal double, and l must be at most 10²⁴, the orbital
    limit, below which every optimum either method reports is such a
    parameter.  ``l`` is stored as the validated int.
    """

    __slots__ = ()

    def __new__(cls, family: Family, l: int, param: float):
        _member(family, Family, "family")
        l = _index(l, "orbital number l", hi=_MAX_L)
        if not _PARAM_MIN <= _real(param, "scale parameter") <= _PARAM_MAX:
            raise DomainError(
                f"scale parameter must lie in [{_PARAM_MIN}, {_PARAM_MAX}], got {param!r}")
        return tuple.__new__(cls, (family, l, param))

    _make = classmethod(_validated_make)


class EnergyEstimate(NamedTuple):
    """A variational energy with its optimum, method tag, and reference.

    The variational bound guarantees value >= exact_reference; in exact
    arithmetic the ratio is in (0, 1] for Coulomb (both energies negative)
    and >= 1 for the oscillator.  In doubles the Coulomb ratio of either
    method holds to 1 for l <= 10⁶, but once the true gap, about 1/(8l²),
    falls below the rounding, it may exceed 1 by a few 1e-14: on a grid of
    500 l a decade, first at l = 7.9·10⁶ (closed Lorentz), 1.5·10⁷
    (numeric Lorentz), 9.9·10¹³ (closed Gaussian) and 3.5·10¹⁴ (numeric
    Gaussian).
    """

    value: float
    optimal_param: float
    method: Method
    exact_reference: float
    ratio_to_exact: float


def _l_min(family: Family, pot: Potential) -> int:
    """The smallest orbital number with a finite ⟨H⟩: 1 for the Lorentz
    oscillator, whose ⟨r²⟩ needs 2(2l+2) - (2l+4) > 1, and 0 otherwise."""
    return 1 if family is Family.LORENTZ and pot is Potential.HARMONIC_OSCILLATOR else 0


def _require_l_domain(family: Family, pot: Potential, l: int) -> None:
    if l < _l_min(family, pot):
        raise DivergenceError(
            "Lorentz trial function has divergent ⟨r²⟩ at l = 0 "
            "(needs 2(2l+2) - (2l+4) > 1, i.e. l >= 1)"
        )


def _moment_integrands(family: Family, l: int, pot: Potential):
    """The moment integrand of ⟨H⟩ after rescaling r = s·x, which does not
    depend on s: a function (k, n, p) of one variable whose integrals are
    the moments

        K = ∫ ½·g·(D(x) + l(l+1)) dx,   N = ∫ g·x² dx,
        P = ∫ g·x dx (Coulomb) or ∫ g·x⁴ dx (oscillator),

    up to the constant factors that _moments takes out and one factor
    common to all three.  g(x) is the squared profile [R(sx)]², and the
    derivative enters through x²·R'² = g(x)·D(x) with D(x) = (l - x²)²
    (Gaussian) or (l - 2(l+1)x²/(1+x²))² (Lorentz).

    The integrand takes the centred variable y, with x = x_pk·y^c,
    c = κ/√(l+1) and v = c·ln y = ln(x/x_pk), where x_pk is the peak of the
    norm integrand g·x² at every l: √(l+1) (Gaussian) or 1 (Lorentz).  In v,
    ln(g(x)/g(x_pk)) is -(l+1)·(expm1(2v) - 2v) - 2v (Gaussian) or
    2lv - 2(l+1)·log1p(q), q = expm1(2v)/2 (Lorentz).  Where
    |expm1(2v)| <= 0.01 these are written so that they do not cancel, since
    l times a cancelled difference loses about √l·ε in the exponent: the
    bracket as e - log1p(e), e = expm1(2v), and the Lorentz form as
    (l+1)·(λ(e) - 2λ(q)) - 2v, λ(t) = log1p(t) - t, each λ from its series;
    that form cancels far from the peak, so it is used only near it.
    (D + l(l+1))/(l+1)² is d² + l/(l+1), with d = expm1(2v) + 1/(l+1)
    (Gaussian) or q/(1+q) + 1/(l+1) (Lorentz).  Each component is the
    moment's integrand times dx/dy = c·x/y, divided by g(x_pk)·c, by its
    power of x_pk (x_pk for K, x_pk² or x_pk⁵ for P, x_pk³ for N) and, for
    K, by (l+1)², so every moment is O(1) at every l; g(x_pk)·c is the
    common factor.

    Each component is the same floating-point expression as a scalar
    integrand of its own would be, so the quadrature reproduces three
    scalar ones bit for bit.  Where a power of x overflows (expm1(2v)
    beyond v = 354.9) the integrand raises OverflowError or a component is
    inf or nan, and the quadrature takes those components as 0 at that
    node; the profile is 0.0 there, for every profile with a finite ⟨r²⟩
    (e^{-x²}, or about x^{-2l-4}).
    """
    exp, expm1, log, log1p = math.exp, math.expm1, math.log, math.log1p
    coulomb = pot is Potential.COULOMB
    L = float(l)
    L1 = L + 1.0
    c = _KAPPA[family] / math.sqrt(L1)
    b = L / L1  # l(l+1)/(l+1)², the centrifugal part of K/(l+1)²
    u = 1.0 / L1
    if family is Family.GAUSSIAN:

        def knp(y: float) -> tuple[float, float, float]:
            v = c * log(y)
            e = expm1(2.0 * v)
            ev = exp(v)
            # expm1(2v) - 2v, as e - log1p(e) near the peak
            m = e - 2.0 * v if abs(e) > 0.01 else -_log1p_minus_linear(e)
            gj = exp(-L1 * m - 2.0 * v) * ev / y
            n = gj * ev * ev
            d = e + u
            return (0.5 * gj * (d * d + b), n, gj * ev if coulomb else n * ev * ev)
    else:

        def knp(y: float) -> tuple[float, float, float]:
            v = c * log(y)
            e = expm1(2.0 * v)
            q = 0.5 * e
            ev = exp(v)
            if abs(e) > 0.01:
                lg = 2.0 * L * v - 2.0 * L1 * log1p(q)
            else:  # cancels far from the peak, so only here
                lg = L1 * (_log1p_minus_linear(e) - 2.0 * _log1p_minus_linear(q)) - 2.0 * v
            gj = exp(lg) * ev / y
            n = gj * ev * ev
            d = q / (1.0 + q) + u
            return (0.5 * gj * (d * d + b), n, gj * ev if coulomb else n * ev * ev)

    return knp


def _moments(family: Family, pot: Potential, l: int) -> tuple[float, float, float]:
    """(K, P, N), the scale-free moments of ⟨H⟩, from one quadrature sweep
    at _LEVEL_TOL, with the powers of x_pk and l+1 the centred integrand
    took out put back.  The factor common to all three stays out: every use
    is a ratio, s* = 2K/P (Coulomb) or s*⁴ = 2K/P (oscillator) and
    (K + v·P)/(s²·N).  N is never 0: its integrand is 1 at the first node,
    y = 1, where x = x_pk, and no term of N is negative.  DivergenceError
    for the Lorentz oscillator at l = 0, before any quadrature."""
    _require_l_domain(family, pot, l)
    k, n, p = (part.value for part in
               quad_semiinfinite(_moment_integrands(family, l, pot), _LEVEL_TOL).parts)
    L1 = l + 1.0
    x_pk = math.sqrt(L1) if family is Family.GAUSSIAN else 1.0
    return (k * x_pk * L1 ** 2,
            p * x_pk ** (2 if pot is Potential.COULOMB else 5), n * x_pk ** 3)


def _energy_from_moments(moments: tuple[float, float, float], family: Family,
                         pot: Potential, param: float) -> float:
    """⟨H⟩ = (K + v·P)/(s²·N) at scale parameter ``param``, with trial length
    s and v = -s (Coulomb) or s⁴/2 (oscillator)."""
    k, p, n = moments
    s = 1.0 / math.sqrt(2.0 * param) if family is Family.GAUSSIAN else param
    v = -s if pot is Potential.COULOMB else 0.5 * s ** 4
    return (k + v * p) / (s * s * n)


def _closed_moments(family: Family, pot: Potential, l: int) -> tuple[float, float, float]:
    """(K/N, P/N, 1), the closed moment ratios, which stand in for (K, P, N)
    since every use of the moments is a ratio: K/N = (l+3/2)/2 (Gaussian)
    or (l+1)(l+½)/2 (Lorentz); P/N = Γ(l+1)/Γ(l+3/2) (Gaussian) or the
    Coulomb to norm integral quotient 1/((l+½)·π·W_l²) (Lorentz) for
    Coulomb, and l+3/2 (Gaussian) or (l+3/2)/(l-½) (Lorentz) for the
    oscillator.  DivergenceError for the Lorentz oscillator at l = 0."""
    _require_l_domain(family, pot, l)
    coulomb = pot is Potential.COULOMB
    if family is Family.GAUSSIAN:
        return ((l + 1.5) / 2.0,
                math.exp(_log_gamma_ratio(l, 1.0, 1.5)) if coulomb else l + 1.5, 1.0)
    return ((l + 1.0) * (l + 0.5) / 2.0,
            coulomb_to_norm_ratio(l) if coulomb else (l + 1.5) / (l - 0.5), 1.0)


def expectation_energy_closed(spec: TrialSpec, pot: Potential) -> float:
    """⟨H⟩ for the given trial state, from the closed moment ratios."""
    _member(pot, Potential, "potential")
    return _energy_from_moments(_closed_moments(spec.family, pot, spec.l), spec.family, pot,
                                spec.param)


def expectation_energy_numeric(spec: TrialSpec, pot: Potential) -> float:
    """⟨H⟩ by radial quadrature; the independent oracle for the closed forms.

    The scale parameter only multiplies the moments K, P and N of the
    rescaled profile by powers of the trial length s, so they are
    integrated once and combined at ``spec.param`` as (K + v·P)/(s²·N).
    The moments are the numeric level's own sweep, at the same 1e-10
    tolerance: one quadrature that evaluates the trial profile once per
    node, each moment with the value, error estimate and evaluation count
    that a separate scalar quadrature of it would give.  So at a numeric
    level's optimal parameter this is the level's value, bit for bit.
    Agreement with expectation_energy_closed is within 1e-14 relative to
    the larger of the kinetic and potential terms, far inside the 1e-8
    contract, for every trial state: every parameter in [1e-75, 1e75] and
    every l up to 10²⁴, which TrialSpec has checked.
    """
    _member(pot, Potential, "potential")
    return _energy_from_moments(_moments(spec.family, pot, spec.l), spec.family, pot,
                                spec.param)


def _optimum(moments: tuple[float, float, float], family: Family, pot: Potential,
             l: int) -> float:
    """The stationary scale parameter of (K + v·P)/(s²·N), by the virial
    relation: trial length s = 2K/P (Coulomb) or s⁴ = 2K/P (oscillator),
    that is α = 1/(2s²) (Gaussian) or a = s (Lorentz)."""
    k, p, _ = moments
    s = 2.0 * k / p if pot is Potential.COULOMB else math.sqrt(math.sqrt(2.0 * k / p))
    # the optimum passes the parameter-domain check of any trial state
    return TrialSpec(family, l, 0.5 / (s * s) if family is Family.GAUSSIAN else s).param


def optimal_param_closed(family: Family, pot: Potential, l: int) -> float:
    """The stationary scale parameter of ⟨H⟩, in closed form; l <= 10²⁴,
    where it is a valid TrialSpec parameter: the Gaussian-Coulomb
    α* ≈ 1/(2l³) is 5.0e-73 at 10²⁴, and the Lorentz-Coulomb a* ≈ l² 1e48."""
    _member(family, Family, "family")
    _member(pot, Potential, "potential")
    l = _index(l, "orbital number l", hi=_MAX_L)
    return _optimum(_closed_moments(family, pot, l), family, pot, l)


def exact_energy(pot: Potential, l: int) -> float:
    """The exact zero-radial-node energy: -1/(2(l+1)²) or ω(l+3/2);
    l <= 10²⁴."""
    _member(pot, Potential, "potential")
    l = _index(l, "orbital number l", hi=_MAX_L)
    if pot is Potential.COULOMB:
        return -1.0 / (2.0 * (l + 1.0) ** 2)
    return l + 1.5


def variational_energy(family: Family, pot: Potential, l: int,
                       method: Method = Method.CLOSED_FORM) -> EnergyEstimate:
    """The minimized variational energy at orbital number l.

    Both methods take every l up to 10²⁴, and each reports an
    ``optimal_param`` that is a valid TrialSpec parameter; DomainError
    beyond, before any quadrature.  Both methods take the optimum from the
    moments K, P and N of ⟨H⟩ by the virial relation: (K + v·P)/(s²·N) is
    stationary at trial length s = 2K/P (Coulomb) or s⁴ = 2K/P
    (oscillator), that is at α = 1/(2s²) (Gaussian) or a = s (Lorentz), and
    the level is (K + v·P)/(s²·N) of the same moments at that optimum.
    CLOSED_FORM takes the closed moment ratios, so its level is bit for bit
    expectation_energy_closed at optimal_param_closed.  NUMERIC integrates
    the moments once, in one quadrature sweep at a 1e-10 tolerance in the
    centred variable (about 108 integrand calls a level over l <= 20,
    73–79 from l = 100), so its level is bit for bit what
    expectation_energy_numeric returns at its optimum; the numeric path
    never reads a closed moment ratio.  For every l up to 10²⁴ the energies
    agree with the closed levels to 2.4e-14 relative (2.3e-14 at
    Gaussian-Coulomb l = 25, the closed level's own error, which the gamma
    kernel's lgamma differences put there: the numeric level is within
    1.2e-16 of a 50-digit reference at that l), the optimal parameters
    to 2.3e-14, and K/N and P/N with their closed ratios to 1.2e-14.
    """
    _member(family, Family, "family")
    _member(method, Method, "method")
    l = _index(l, "orbital number l", hi=_MAX_L)
    reference = exact_energy(pot, l)
    moments = (_closed_moments if method is Method.CLOSED_FORM else _moments)(family, pot, l)
    param = _optimum(moments, family, pot, l)
    value = _energy_from_moments(moments, family, pot, param)
    return EnergyEstimate(
        value=value,
        optimal_param=param,
        method=method,
        exact_reference=reference,
        ratio_to_exact=value / reference,
    )
