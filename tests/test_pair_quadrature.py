"""The ⟨H⟩ moment quadratures against scalar quadratures.

``expectation_energy_numeric`` integrates the scale-free moments K and N of
the rescaled trial profile in one pair sweep and P in a scalar one, then
combines them at the scale parameter as (K + v·P)/(s²·N).  Each pair
component must come out exactly as a scalar ``quad_semiinfinite`` call on
it alone would: value, error estimate, evaluation count and level, bit for
bit.  The scalar integrands here are written out independently of the
engine's, one closure per moment.
"""

import math

import pytest

from wallisqm.errors import ConvergenceError
from wallisqm.integral_kit import QuadraturePair, quad_semiinfinite
from wallisqm.variational_engine import (Family, Potential, TrialSpec, _moment_integrands,
                                         expectation_energy_numeric, optimal_param_closed)


def scalar_integrands(family, l, pot):
    """The moments K, P and N of ⟨H⟩ as three separate scalar integrands."""
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

    def kinetic(x):
        g = g2(x)
        return 0.5 * g * (deriv_factor(x) + L * (L + 1.0))

    if pot is Potential.COULOMB:
        def potential(x):
            return g2(x) * x
    else:
        def potential(x):
            return g2(x) * x ** 4

    def norm(x):
        return g2(x) * x * x

    return kinetic, potential, norm


def length_scale(family, param):
    return 1.0 / math.sqrt(2.0 * param) if family is Family.GAUSSIAN else param


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


@pytest.mark.parametrize("fam,pot", COMBOS, ids=lambda v: v.value)
def test_moments_match_scalar_quadratures(fam, pot):
    """Family × potential × l <= 30 × tol; ⟨H⟩ at 0.01–100× the optimum."""
    for l in LS:
        if l == 0 and (fam, pot) == (Family.LORENTZ, Potential.HARMONIC_OSCILLATOR):
            continue
        kinetic, potential, norm = scalar_integrands(fam, l, pot)
        kn, p = _moment_integrands(fam, l, pot)
        for tol in TOLS:
            case = (fam.value, pot.value, l, tol)
            # every moment converges, far from the optimum too: the scale
            # only enters after the quadratures
            k_res, n_res = quad_semiinfinite(kinetic, tol), quad_semiinfinite(norm, tol)
            p_res = quad_semiinfinite(potential, tol)
            integrand, calls = counted(kn)
            pair = quad_semiinfinite(integrand, tol, pair=True)
            assert isinstance(pair, QuadraturePair), case
            assert pair.parts == (k_res, n_res), case
            assert pair.evaluations == calls[0], case
            assert pair.evaluations <= k_res.evaluations + n_res.evaluations, case
            assert pair.levels == max(k_res.levels, n_res.levels), case
            assert quad_semiinfinite(p, tol) == p_res, case
            K, P, N = k_res.value, p_res.value, n_res.value
            for factor in FACTORS:
                param = factor * optimal_param_closed(fam, pot, l)
                s = length_scale(fam, param)
                v = -s if pot is Potential.COULOMB else 0.5 * s ** 4
                energy = expectation_energy_numeric(TrialSpec(fam, l, param), pot, tol)
                assert energy == (K + v * P) / (s * s * N), case + (factor,)


def test_missed_peak_raises_where_the_norm_integral_is_zero():
    # at l = 10⁴ the nodes miss the narrow Gaussian peak: the norm integral
    # comes out 0, as the scalar quadrature has it, and ⟨H⟩ refuses it
    fam, pot, l = Family.GAUSSIAN, Potential.COULOMB, 10**4
    kinetic, _, norm = scalar_integrands(fam, l, pot)
    kn, _ = _moment_integrands(fam, l, pot)
    pair = quad_semiinfinite(kn, 1e-11, pair=True)
    assert pair.parts == (quad_semiinfinite(kinetic, 1e-11), quad_semiinfinite(norm, 1e-11))
    assert pair.parts[1].value == 0.0
    with pytest.raises(ConvergenceError, match="missed the trial profile's peak"):
        expectation_energy_numeric(TrialSpec(fam, l, optimal_param_closed(fam, pot, l)),
                                   pot, 1e-11)


def test_oscillator_overflow_only_where_the_profile_vanishes():
    # beyond x ~ 1.16e77, x**4 overflows: the engine's P integrand raises
    # exactly where the scalar one does, and the quadrature then takes it
    # as 0.  The profile is 0.0 there for every family with a finite ⟨r²⟩,
    # so no nonzero term is lost.  (The l = 0 Lorentz oscillator integrand
    # is never built: its ⟨r²⟩ diverges.)
    pot = Potential.HARMONIC_OSCILLATOR
    for fam, l in ((Family.GAUSSIAN, 0), (Family.GAUSSIAN, 5),
                   (Family.LORENTZ, 1), (Family.LORENTZ, 5)):
        kinetic, potential, norm = scalar_integrands(fam, l, pot)
        kn, p = _moment_integrands(fam, l, pot)
        x = 2e77
        with pytest.raises(OverflowError):
            potential(x)
        with pytest.raises(OverflowError):
            p(x)
        assert norm(x) == 0.0, (fam, l)
        for x in (1e-300, 1e-3, 0.7, 1.0, 3.0, 1e30, 1e70):
            assert kn(x) == (kinetic(x), norm(x)), (fam, l, x)
            assert p(x) == potential(x), (fam, l, x)


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
