"""Variational energy levels for hydrogen and the isotropic oscillator with
Gaussian and Lorentz trial families.

Trial functions (radial factor; the angular part is a spherical harmonic
that integrates out analytically, leaving the centrifugal term l(l+1)/r²):

    Gaussian:  R(r) = r^l · exp(-α r²)
    Lorentz:   R(r) = r^l / (a² + r²)^{l+1}

Closed-form expectation values (atomic/oscillator units ħ = m = e² = ω = 1
throughout):

    Gaussian-Coulomb:  ⟨H⟩ = α(l+3/2) - √(2α)·Γ(l+1)/Γ(l+3/2)
    Lorentz-Coulomb:   ⟨H⟩ = (l+1)(l+1/2)/(2a²) - (1/a)·[Γ(l+1)/Γ(l+1/2)]²/(l+1/2)

with the oscillator potential ω²r²/2 contributing ⟨r²⟩/2 via the moment
ratios ⟨r²⟩ = (l+3/2)/(2α) (Gaussian) and a²(l+3/2)/(l-1/2) (Lorentz,
finite only for l >= 1).  Minimizing over the scale parameter gives

    E(Gaussian-Coulomb)  = -(1/2)·[Γ(l+1)/Γ(l+3/2)]²/(l+3/2)
    E(Lorentz-Coulomb)   = -(1/2)·[Γ(l+1)/Γ(l+1/2)]⁴/((l+1)(l+1/2)³)
    E(Gaussian-osc.)     = l + 3/2                      (exact; α* = 1/2)
    E(Lorentz-osc.)      = √((l+1)(l+1/2)(l+3/2)/(l-1/2))

An independent numeric pipeline evaluates ⟨H⟩ by semi-infinite quadrature
in the integrated-by-parts form

    ⟨H⟩ = [∫ (R'²r² + l(l+1)R²)/2 + V R² r² dr] / ∫ R² r² dr

(boundary terms vanish for both families).  The radial variable is
rescaled by the trial length s, r = s·x.  The rescaled profile does not
depend on s: ⟨H⟩ = (K + v·P)/(s²·N) with three scale-free moments K
(kinetic and centrifugal), P (potential) and N (norm), and v = -s
(Coulomb) or s⁴/2 (oscillator).  For l >= 1 the profile peaks at x_pk
(√l Gaussian, √(l/(l+2)) Lorentz) with a width that shrinks like 1/√l, so
each level is integrated in the centred variable y, x = x_pk·y^c with
c = κ/√(l+1): there the integrand has an O(1) width in ln y at every l,
which the double-exponential rule needs to converge fast.  At l = 0 the
same form runs with x_pk = 1.  All three moments come from one quadrature
sweep that evaluates the squared profile once per node, each moment
converging exactly as a quadrature of its own would, bit for bit.  A
numeric level is one such sweep at a 1e-11 tolerance (about 113 integrand
calls a level over l <= 20): it takes its optimum from the moments in
closed form, by the virial relation of the same minimization, s* = 2K/P
(Coulomb) or s*⁴ = 2K/P (oscillator), and its value from the same moments
at that optimum.  The numeric method holds to l = 10⁶, its own orbital
limit.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import (_MAX_GRID_POINTS, DivergenceError, DomainError, _index, _member, _real,
                     _validated_make)
from .gamma_kit import _log_gamma_ratio
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
    "ratio_sequence",
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
# largest orbital number: l⁴ and l²/param² stay finite for every param, so
# every closed form is finite
_MAX_L = 10**76
# largest orbital number of the numeric method: from 10⁶ to 10⁷ its levels
# agree with the closed ones within 7e-15 relative, but from about 1.04·10⁷
# the Gaussian K, about 2e-4 there, meets the absolute 1e-11 one refinement
# early (3.5e-14, and 1.5e-13 by 3·10⁷)
_MAX_L_NUMERIC = 10**6
# absolute quadrature tolerance of the moment sweep, on the centred
# integrand's scale: the one sweep of a numeric level and of
# expectation_energy_numeric, which therefore agree bit for bit
_LEVEL_TOL = 1e-11
# κ of the centred variable, per family, from a sweep of the mean integrand
# calls a level over l = 1…20: Gaussian 132–151 for κ in [0.3, 1.2], fewest
# at 0.45; Lorentz 84–126 for κ in [0.2, 1.2], 87 at 0.8 against 84 at 0.9,
# but from κ = 1 single levels need 239–251 calls
_KAPPA = {Family.GAUSSIAN: 0.45, Family.LORENTZ: 0.8}


class _TrialSpec(NamedTuple):
    family: Family
    l: int
    param: float


class TrialSpec(_TrialSpec):
    """A trial-function family with orbital number l and scale parameter.

    ``param`` is the Gaussian width α or the Lorentz scale a; the principal
    quantum number at zero radial excitation is n = l + 1.  It must lie in
    [1e-75, 1e75], so that the fourth power of the trial length that ⟨H⟩
    uses stays a normal double, and l must be at most 10⁷⁶, so that every
    closed form stays finite.  ``l`` is stored as the validated int.
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
    and >= 1 for the oscillator.  In doubles the Coulomb ratio holds to 1
    for l <= 10⁶, but once the true gap, about 1/(8l²), falls below the
    closed form's rounding, it may exceed 1 by a few 1e-14 (Lorentz from
    l ~ 10⁸, Gaussian from 10¹⁵).
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


def expectation_energy_closed(spec: TrialSpec, pot: Potential) -> float:
    """⟨H⟩ for the given trial state, from the closed radial-moment forms."""
    _member(pot, Potential, "potential")
    l, p = spec.l, spec.param
    if spec.family is Family.GAUSSIAN:
        kinetic = p * (l + 1.5)
        if pot is Potential.COULOMB:
            return kinetic - math.sqrt(2.0 * p) * math.exp(_log_gamma_ratio(l, 1.0, 1.5))
        # ⟨r²⟩ = (l+3/2)/(2α) from the Gaussian moment ratio
        return kinetic + 0.5 * (l + 1.5) / (2.0 * p)
    kinetic = (l + 1.0) * (l + 0.5) / (2.0 * p * p)
    if pot is Potential.COULOMB:
        # ⟨1/r⟩ = coulomb/norm integral quotient = [Γ(l+1)/Γ(l+1/2)]²/((l+1/2)·a)
        return kinetic - coulomb_to_norm_ratio(l) / p
    _require_l_domain(spec.family, pot, l)
    # ⟨r²⟩ = a²·(l+3/2)/(l-1/2) from the rational moment ratio
    return kinetic + 0.5 * p * p * (l + 1.5) / (l - 0.5)


def _moment_integrands(family: Family, l: int, pot: Potential):
    """The moment integrand of ⟨H⟩ after rescaling r = s·x, which does not
    depend on s: a function (k, n, p) of one variable whose integrals are
    the moments

        K = ∫ ½·g·(D(x) + l(l+1)) dx,   N = ∫ g·x² dx,
        P = ∫ g·x dx (Coulomb) or ∫ g·x⁴ dx (oscillator),

    up to the constant factors that _moments takes out.  g(x) is the
    squared profile [R(sx)/peak]², and the derivative enters through
    x²·R'² = g(x)·D(x) with D(x) = (l - x²)² (Gaussian) or
    (l - (l+2)x²)²/(1+x²)² (Lorentz).

    The integrand takes the centred variable y, with x = x_pk·y^c,
    c = κ/√(l+1) and v = c·ln y = ln(x/x_pk), where x_pk is the profile's
    peak for l >= 1 (√l Gaussian, √(l/(l+2)) Lorentz) and 1 at l = 0.  In v
    the log-profile is -p·(expm1(2v) - r·v) (Gaussian), with (p, r) = (l, 2)
    for l >= 1 and (1, 0) at l = 0, or 2lv - 2(l+1)·log1p(q),
    q = h·expm1(2v), with h = l/(2l+2) for l >= 1 and ½ at l = 0 (Lorentz);
    it is 0 at y = 1, the peak for l >= 1.  (D + l(l+1))/(l+1)² is
    a·d² + l/(l+1), with d = expm1(2v) + δ (Gaussian) or q/(1+q) + δ
    (Lorentz): δ = 0 and a = (l/(l+1))² or ((l+2)/(l+1))² for l >= 1, and
    δ = 1 and a = 1 at l = 0, where d² is x⁴ or 4x⁴/(1+x²)².  Each
    component is the moment's integrand times dx/dy = c·x/y, divided by its
    power of x_pk (x_pk for K, x_pk² or x_pk⁵ for P, x_pk³ for N) and, for
    K, by (l+1)².

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
    c = _KAPPA[family] / math.sqrt(L + 1.0)
    b = L / (L + 1.0)  # l(l+1)/(l+1)², the centrifugal part of K/(l+1)²
    # at l = 0, where x_pk = 1, δ = 1 turns expm1(2v) = x² - 1 into x² and
    # q/(1+q) = (x² - 1)/(x² + 1) into 2x²/(1+x²)
    delta = 0.0 if l else 1.0
    if family is Family.GAUSSIAN:
        a = b * b if l else 1.0
        p2, r2 = (L, 2.0) if l else (1.0, 0.0)

        def knp(y: float) -> tuple[float, float, float]:
            v = c * log(y)
            e = expm1(2.0 * v)
            ev = exp(v)
            gj = exp(-p2 * (e - r2 * v)) * c * ev / y
            n = gj * ev * ev
            d = e + delta
            return (0.5 * gj * (a * d * d + b), n, gj * ev if coulomb else n * ev * ev)
    else:
        a = ((L + 2.0) / (L + 1.0)) ** 2 if l else 1.0
        h = (L or 1.0) / (2.0 * L + 2.0)
        l2, l21 = 2.0 * L, 2.0 * (L + 1.0)

        def knp(y: float) -> tuple[float, float, float]:
            v = c * log(y)
            q = h * expm1(2.0 * v)
            ev = exp(v)
            gj = exp(l2 * v - l21 * log1p(q)) * c * ev / y
            n = gj * ev * ev
            r = q / (1.0 + q) + delta
            return (0.5 * gj * (a * r * r + b), n, gj * ev if coulomb else n * ev * ev)

    return knp


def _moments(family: Family, pot: Potential, l: int, tol: float) -> tuple[float, float, float]:
    """(K, P, N), the scale-free moments of ⟨H⟩, from one quadrature sweep
    at ``tol``, with the factors the centred integrand took out put back.
    N is never 0: its integrand is positive at the first node, y = 1, where
    x = x_pk, and no term of N is negative.  DivergenceError for the
    Lorentz oscillator at l = 0, before any quadrature."""
    _require_l_domain(family, pot, l)
    k, n, p = (part.value for part in
               quad_semiinfinite(_moment_integrands(family, l, pot), tol).parts)
    L = float(l)
    x_pk = math.sqrt(L if family is Family.GAUSSIAN else L / (L + 2.0)) if l else 1.0
    return (k * x_pk * (L + 1.0) ** 2,
            p * x_pk ** (2 if pot is Potential.COULOMB else 5), n * x_pk ** 3)


def _energy_from_moments(moments: tuple[float, float, float], family: Family,
                         pot: Potential, param: float) -> float:
    """⟨H⟩ = (K + v·P)/(s²·N) at scale parameter ``param``, with trial length
    s and v = -s (Coulomb) or s⁴/2 (oscillator)."""
    k, p, n = moments
    s = 1.0 / math.sqrt(2.0 * param) if family is Family.GAUSSIAN else param
    v = -s if pot is Potential.COULOMB else 0.5 * s ** 4
    return (k + v * p) / (s * s * n)


def expectation_energy_numeric(spec: TrialSpec, pot: Potential) -> float:
    """⟨H⟩ by radial quadrature; the independent oracle for the closed forms.

    The scale parameter only multiplies the moments K, P and N of the
    rescaled profile by powers of the trial length s, so they are
    integrated once and combined at ``spec.param`` as (K + v·P)/(s²·N).
    The moments are the numeric level's own sweep, at the same 1e-11
    tolerance: one quadrature that evaluates the trial profile once per
    node, each moment with the value, error estimate and evaluation count
    that a separate scalar quadrature of it would give.  So at a numeric
    level's optimal parameter this is the level's value, bit for bit.
    Agreement with expectation_energy_closed is ~1e-14 relative to the
    larger of the kinetic and potential terms, far inside the 1e-8
    contract, for every parameter in [1e-75, 1e75] and every l up to 10⁶,
    the numeric method's orbital limit; DomainError beyond it, before any
    quadrature.
    """
    l = _index(spec.l, "orbital number l", hi=_MAX_L_NUMERIC)
    _member(pot, Potential, "potential")
    return _energy_from_moments(_moments(spec.family, pot, l, _LEVEL_TOL), spec.family, pot,
                                spec.param)


def _closed_optimum(family: Family, pot: Potential, l: int) -> tuple[float, float]:
    """(p*, E*): the stationary scale parameter of ⟨H⟩ and the minimized
    level, in closed form."""
    if family is Family.GAUSSIAN:
        if pot is Potential.COULOMB:
            g = math.exp(_log_gamma_ratio(l, 1.0, 1.5))
            return g * g / (2.0 * (l + 1.5) ** 2), -0.5 * g * g / (l + 1.5)
        return 0.5, l + 1.5
    if pot is Potential.COULOMB:
        g2 = math.exp(2.0 * _log_gamma_ratio(l, 1.0, 0.5))
        return ((l + 1.0) * (l + 0.5) / coulomb_to_norm_ratio(l),
                -0.5 * g2 * g2 / ((l + 1.0) * (l + 0.5) ** 3))
    _require_l_domain(family, pot, l)
    return (((l + 1.0) * (l + 0.5) * (l - 0.5) / (l + 1.5)) ** 0.25,
            math.sqrt((l + 1.0) * (l + 0.5) * (l + 1.5) / (l - 0.5)))


def optimal_param_closed(family: Family, pot: Potential, l: int) -> float:
    """The stationary scale parameter of ⟨H⟩, in closed form; l <= 10⁷⁶.

    Known defect: for large l the Coulomb optimum leaves TrialSpec's
    parameter domain [1e-75, 1e75], so TrialSpec(family, l, param) raises
    DomainError.  The Gaussian α* ≈ 1/(2l³) falls below 1e-75 from
    l = 7937005259840989620600832 (about 7.937·10²⁴), and the Lorentz
    a* ≈ l² exceeds 1e75 from l = 31622776601683763297474193582691713024
    (about 3.162·10³⁷); the last l inside is one less.  The oscillator
    optima stay inside for every l.
    """
    _member(family, Family, "family")
    _member(pot, Potential, "potential")
    return _closed_optimum(family, pot, _index(l, "orbital number l", hi=_MAX_L))[0]


def exact_energy(pot: Potential, l: int) -> float:
    """The exact zero-radial-node energy: -1/(2(l+1)²) or ω(l+3/2);
    l <= 10⁷⁶."""
    _member(pot, Potential, "potential")
    l = _index(l, "orbital number l", hi=_MAX_L)
    if pot is Potential.COULOMB:
        return -1.0 / (2.0 * (l + 1.0) ** 2)
    return l + 1.5


def variational_energy(family: Family, pot: Potential, l: int,
                       method: Method = Method.CLOSED_FORM) -> EnergyEstimate:
    """The minimized variational energy at orbital number l.

    CLOSED_FORM plugs the stationary parameter into the closed level
    formulas; l is at most 10⁷⁶, but the Coulomb ``optimal_param`` is a
    valid TrialSpec parameter only below l = 7937005259840989620600832
    (Gaussian) and l = 31622776601683763297474193582691713024 (Lorentz);
    see optimal_param_closed.  NUMERIC integrates the scale-free
    moments K, P and N of ⟨H⟩ once, in one quadrature sweep at a 1e-11
    tolerance in the centred variable (about 113 integrand calls a level
    over l <= 20), and takes the optimum from them by the virial relation:
    (K + v·P)/(s²·N) is stationary at trial length s = 2K/P (Coulomb) or
    s⁴ = 2K/P (oscillator), that is at α = 1/(2s²) (Gaussian) or a = s
    (Lorentz).  The level is (K + v·P)/(s²·N) of the same moments at that
    optimum, bit for bit what expectation_energy_numeric returns there,
    from the same sweep; the numeric path never reads the closed optimum.
    For every l up to 10⁶, the numeric method's limit, the energies agree
    with the closed levels to 6e-14 relative, the optimal parameters to 3e-14,
    and K/N and P/N with their closed ratios to 2e-14.  DomainError for l
    beyond the method's limit, before any quadrature.
    """
    _member(family, Family, "family")
    _member(method, Method, "method")
    closed = method is Method.CLOSED_FORM
    l = _index(l, "orbital number l", hi=_MAX_L if closed else _MAX_L_NUMERIC)
    reference = exact_energy(pot, l)
    if closed:
        param, value = _closed_optimum(family, pot, l)
    else:
        moments = _moments(family, pot, l, _LEVEL_TOL)
        k, p, _ = moments
        s = 2.0 * k / p if pot is Potential.COULOMB else math.sqrt(math.sqrt(2.0 * k / p))
        # the optimum passes the parameter-domain check of any trial state
        param = TrialSpec(family, l, 0.5 / (s * s) if family is Family.GAUSSIAN else s).param
        value = _energy_from_moments(moments, family, pot, param)
    return EnergyEstimate(
        value=value,
        optimal_param=param,
        method=method,
        exact_reference=reference,
        ratio_to_exact=value / reference,
    )


def ratio_sequence(family: Family, pot: Potential, l_max: int,
                   method: Method = Method.CLOSED_FORM) -> list[tuple[int, float]]:
    """(l, E_var/E_exact) for l up to l_max, in increasing l order.

    Starts at l = 1 for the Lorentz-oscillator combination (l = 0 diverges)
    and at l = 0 otherwise.  Results are deterministic and independent of
    evaluation order.  One level per l, so l_max is limited to 10⁵, the
    CLI's grid cap; DomainError beyond.
    """
    l_max = _index(l_max, "l_max", lo=1, hi=_MAX_GRID_POINTS)
    return [
        (l, variational_energy(family, pot, l, method).ratio_to_exact)
        for l in range(_l_min(family, pot), l_max + 1)
    ]
