"""The one-sweep ⟨H⟩ quadrature against two scalar quadratures.

``expectation_energy_numeric`` integrates numerator and denominator in one
pair sweep.  Each component must come out exactly as a scalar
``quad_semiinfinite`` call on it alone would: value, error estimate,
evaluation count and level, bit for bit, with ConvergenceError in the same
cases.  The scalar integrands here are written out independently of the
engine's fused one, one closure per component, as the engine had them
before the sweep was fused.
"""

import math

import pytest

from wallisqm.errors import ConvergenceError
from wallisqm.integral_kit import QuadraturePair, quad_semiinfinite
from wallisqm.variational_engine import (Family, Potential, TrialSpec, _energy_integrand,
                                         expectation_energy_numeric, optimal_param_closed)


def scalar_integrands(family, l, pot, s):
    """Numerator and denominator of ⟨H⟩ as two separate scalar integrands."""
    L = float(l)
    if family is Family.GAUSSIAN:
        ln_peak = 0.5 * L * (math.log(L) - 1.0) if l else 0.0

        def g2(x):
            if l == 0:
                return math.exp(-x * x)
            return math.exp(2.0 * (L * math.log(x) - 0.5 * x * x - ln_peak))

        def deriv_factor(x):
            d = L - x * x
            return d * d
    else:
        if l:
            xpk2 = L / (L + 2.0)
            ln_peak = 0.5 * L * math.log(xpk2) - (L + 1.0) * math.log1p(xpk2)
        else:
            ln_peak = 0.0

        def g2(x):
            lead = L * math.log(x) if l else 0.0
            return math.exp(2.0 * (lead - (L + 1.0) * math.log1p(x * x) - ln_peak))

        def deriv_factor(x):
            w = 1.0 + x * x
            d = L - (L + 2.0) * x * x
            return d * d / (w * w)

    if pot is Potential.COULOMB:
        def vterm(x, g):
            return -s * g * x
    else:
        half_s4 = 0.5 * s ** 4

        def vterm(x, g):
            return half_s4 * g * x ** 4

    def numerator(x):
        g = g2(x)
        return 0.5 * g * (deriv_factor(x) + L * (L + 1.0)) + vterm(x, g)

    def denominator(x):
        return g2(x) * x * x

    return numerator, denominator


def length_scale(family, param):
    return 1.0 / math.sqrt(2.0 * param) if family is Family.GAUSSIAN else param


def outcome(f, tol, **kw):
    """A quadrature's result, or the fields of the ConvergenceError it raised."""
    try:
        return quad_semiinfinite(f, tol, **kw)
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc), exc.best_estimate, exc.error_estimate,
                exc.evaluations)


def counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


COMBOS = [(Family.GAUSSIAN, Potential.COULOMB),
          (Family.GAUSSIAN, Potential.HARMONIC_OSCILLATOR),
          (Family.LORENTZ, Potential.COULOMB),
          (Family.LORENTZ, Potential.HARMONIC_OSCILLATOR)]
LS = (0, 1, 2, 3, 5, 8, 13, 20, 25, 30)
FACTORS = (0.01, 0.1, 1.0, 10.0, 100.0)
TOLS = (1e-6, 3e-9, 1e-11)
GRID = [(fam, pot, l, factor) for fam, pot in COMBOS for l in LS for factor in FACTORS
        if l >= 1 or (fam, pot) != (Family.LORENTZ, Potential.HARMONIC_OSCILLATOR)]


@pytest.mark.parametrize("fam,pot", COMBOS, ids=lambda v: v.value)
def test_fused_energy_matches_two_scalar_quadratures(fam, pot):
    """Family × potential × l <= 30 × parameter 0.01–100× the optimum × tol."""
    failures = 0
    for f_, p_, l, factor in GRID:
        if (f_, p_) != (fam, pot):
            continue
        param = factor * optimal_param_closed(fam, pot, l)
        s = length_scale(fam, param)
        numerator, denominator = scalar_integrands(fam, l, pot, s)
        for tol in TOLS:
            case = (fam.value, pot.value, l, factor, tol)
            num, den = outcome(numerator, tol), outcome(denominator, tol)
            integrand, calls = counted(_energy_integrand(fam, l, pot, s))
            pair = outcome(integrand, tol, pair=True)
            if isinstance(num, tuple) or isinstance(den, tuple):
                failures += 1
                # the first component that fails raises, as the scalar one did
                assert pair == (num if isinstance(num, tuple) else den), case
                with pytest.raises(ConvergenceError):
                    expectation_energy_numeric(TrialSpec(fam, l, param), pot, tol)
                continue
            assert isinstance(pair, QuadraturePair), case
            assert pair.parts == (num, den), case
            assert pair.evaluations == calls[0], case
            assert pair.evaluations <= num.evaluations + den.evaluations, case
            assert pair.levels == max(num.levels, den.levels), case
            energy = expectation_energy_numeric(TrialSpec(fam, l, param), pot, tol)
            assert energy == num.value / (s * s * den.value), case
    # at l = 30 far from the optimum the oscillator numerator exhausts the
    # refinement budget, so the raising path is exercised too
    if pot is Potential.HARMONIC_OSCILLATOR:
        assert failures > 0


def test_oscillator_overflow_only_where_the_profile_vanishes():
    # beyond x ~ 1.16e77, x**4 overflows: the fused integrand raises exactly
    # where the scalar numerator does, and the quadrature then zeroes both
    # components.  The scalar denominator is 0.0 there for every profile
    # with a finite ⟨r²⟩, so no nonzero term is lost.  (The l = 0 Lorentz
    # oscillator integrand is never built: its ⟨r²⟩ diverges.)
    s = 1.0
    pot = Potential.HARMONIC_OSCILLATOR
    for fam, l in ((Family.GAUSSIAN, 0), (Family.GAUSSIAN, 5),
                   (Family.LORENTZ, 1), (Family.LORENTZ, 5)):
        numerator, denominator = scalar_integrands(fam, l, pot, s)
        fused = _energy_integrand(fam, l, pot, s)
        x = 2e77
        with pytest.raises(OverflowError):
            numerator(x)
        with pytest.raises(OverflowError):
            fused(x)
        assert denominator(x) == 0.0, (fam, l)
        for x in (1e-300, 1e-3, 0.7, 1.0, 3.0, 1e30, 1e70):
            assert fused(x) == (numerator(x), denominator(x)), (fam, l, x)


def _one_raises(x):
    if x > 30.0:
        raise OverflowError("tail")
    return x * math.exp(-x)


def _one_nan(x):
    return (x * math.exp(-x) if x <= 30.0 else math.nan), math.exp(-x * x)


class TestPairSweep:
    def test_one_component_nan_matches_scalar_raising(self):
        # the first component is nan where its scalar form raises; only it
        # takes 0 there, the second keeps every node
        res = quad_semiinfinite(_one_nan, 1e-10, pair=True)
        assert res.parts == (quad_semiinfinite(_one_raises, 1e-10),
                             quad_semiinfinite(lambda x: math.exp(-x * x), 1e-10))

    def test_components_stop_at_different_levels(self):
        # a narrow peak needs fine steps but few nodes per level; the
        # Lorentzian's slow tail needs many nodes but converges early
        f = (lambda x: math.exp(-100.0 * (x - 1.0) ** 2), lambda x: 1.0 / (1.0 + x * x))
        first, second = (quad_semiinfinite(g, 1e-10) for g in f)
        assert (first.levels, first.evaluations) == (7, 125)
        assert (second.levels, second.evaluations) == (4, 119)
        integrand, calls = counted(lambda x: (f[0](x), f[1](x)))
        res = quad_semiinfinite(integrand, 1e-10, pair=True)
        assert res.parts == (first, second)
        assert res.levels == 7
        # once the Lorentzian has converged, its many tail nodes are no
        # longer evaluated
        assert res.evaluations == calls[0] == 195

    def test_exception_zeroes_both_components(self):
        def f(x):
            if x > 30.0:
                raise OverflowError("tail")
            return x * math.exp(-x), 2.0 * x * math.exp(-x)

        res = quad_semiinfinite(f, 1e-10, pair=True)
        one = quad_semiinfinite(_one_raises, 1e-10)
        assert res.parts[0] == one
        assert res.parts[1].value == 2.0 * one.value

    @pytest.mark.parametrize("diverges", [0, 1])
    def test_convergence_error_names_the_failing_component(self, diverges):
        good, bad = (lambda x: math.exp(-x * x)), (lambda x: 1.0 / (1.0 + x))
        comps = (bad, good) if diverges == 0 else (good, bad)
        with pytest.raises(ConvergenceError) as scalar:
            quad_semiinfinite(bad, 1e-10)
        with pytest.raises(ConvergenceError) as fused:
            quad_semiinfinite(lambda x: (comps[0](x), comps[1](x)), 1e-10, pair=True)
        assert str(fused.value) == str(scalar.value)
        assert (fused.value.best_estimate, fused.value.error_estimate,
                fused.value.evaluations) == (scalar.value.best_estimate,
                                             scalar.value.error_estimate,
                                             scalar.value.evaluations)
