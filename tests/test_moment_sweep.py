"""The ⟨H⟩ moment quadrature, and tuple-valued quadrature in general,
against scalar quadratures.

``expectation_energy_numeric`` integrates the scale-free moments K, N and P
of the rescaled trial profile in one sweep of a tuple-valued integrand, then
combines them at the scale parameter as (K + v·P)/(s²·N).  Each component
must come out exactly as a scalar ``quad_semiinfinite`` call on it alone
would: value, error estimate, evaluation count and level, bit for bit.  The
scalar integrands here are written out independently of the engine's, one
closure per moment.
"""

import math

import pytest

from wallisqm.errors import ConvergenceError
from wallisqm.integral_kit import QuadratureParts, QuadratureResult, quad_semiinfinite
from wallisqm.variational_engine import (Family, Potential, TrialSpec, _moment_integrands,
                                         _moments, expectation_energy_numeric,
                                         optimal_param_closed)


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
        scalars = scalar_integrands(fam, l, pot)
        for tol in TOLS:
            case = (fam.value, pot.value, l, tol)
            # every moment converges, far from the optimum too: the scale
            # only enters after the quadratures
            k_res, p_res, n_res = (quad_semiinfinite(g, tol) for g in scalars)
            integrand, calls = counted(_moment_integrands(fam, l, pot))
            sweep = quad_semiinfinite(integrand, tol)
            assert isinstance(sweep, QuadratureParts), case
            assert sweep.parts == (k_res, n_res, p_res), case
            assert sweep.evaluations == calls[0], case
            assert sweep.evaluations <= sum(r.evaluations for r in sweep.parts), case
            assert sweep.levels == max(r.levels for r in sweep.parts), case
            K, P, N = k_res.value, p_res.value, n_res.value
            for factor in FACTORS:
                param = factor * optimal_param_closed(fam, pot, l)
                s = length_scale(fam, param)
                v = -s if pot is Potential.COULOMB else 0.5 * s ** 4
                energy = expectation_energy_numeric(TrialSpec(fam, l, param), pot, tol)
                assert energy == (K + v * P) / (s * s * N), case + (factor,)


def scalar_moments(fam, pot, l, tol):
    """(K, P, N) from three scalar quadratures, the norm checked before P."""
    kinetic, potential, norm = scalar_integrands(fam, l, pot)
    k, n = quad_semiinfinite(kinetic, tol), quad_semiinfinite(norm, tol)
    if not n.value > 0.0:
        raise ConvergenceError(f"the quadrature missed the trial profile's peak at l = {l}")
    return k.value, quad_semiinfinite(potential, tol).value, n.value


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("fam,pot", COMBOS, ids=lambda v: v.value)
@pytest.mark.parametrize("tol", (3e-9, 1e-11))
def test_one_sweep_raises_as_the_scalar_quadratures_do(fam, pot, tol):
    # from l = 75 some moment fails to converge or the nodes miss the peak;
    # the sweep names the first failing moment in the order K, N, P, which
    # is the error the scalar quadratures raise with the norm checked first
    for l in (1, 2, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300, 500,
              10**3, 10**4, 10**5, 10**6):
        assert outcome(_moments, fam, pot, l, tol) == outcome(scalar_moments, fam, pot, l,
                                                              tol), (l, tol)


def test_missed_peak_raises_where_the_norm_integral_is_zero():
    # at l = 10⁴ the nodes miss the narrow Gaussian peak: the norm integral
    # comes out 0, as the scalar quadrature has it, and ⟨H⟩ refuses it
    fam, pot, l = Family.GAUSSIAN, Potential.COULOMB, 10**4
    kinetic, potential, norm = scalar_integrands(fam, l, pot)
    sweep = quad_semiinfinite(_moment_integrands(fam, l, pot), 1e-11)
    assert sweep.parts == tuple(quad_semiinfinite(g, 1e-11) for g in (kinetic, norm, potential))
    assert sweep.parts[1].value == 0.0
    with pytest.raises(ConvergenceError, match="missed the trial profile's peak"):
        expectation_energy_numeric(TrialSpec(fam, l, optimal_param_closed(fam, pot, l)),
                                   pot, 1e-11)


def test_oscillator_overflow_only_where_the_profile_vanishes():
    # beyond x ~ 1.16e77, x**4 overflows: the engine's integrand raises
    # exactly where the scalar P does, and the quadrature then takes all
    # three moments as 0 there.  The profile is 0.0 there for every family
    # with a finite ⟨r²⟩, so no nonzero term is lost: K and N are 0 there,
    # or nan (0·inf), which the quadrature also takes as 0.  (The l = 0 Lorentz
    # oscillator integrand is never built: its ⟨r²⟩ diverges.)
    pot = Potential.HARMONIC_OSCILLATOR
    for fam, l in ((Family.GAUSSIAN, 0), (Family.GAUSSIAN, 5),
                   (Family.LORENTZ, 1), (Family.LORENTZ, 5)):
        kinetic, potential, norm = scalar_integrands(fam, l, pot)
        knp = _moment_integrands(fam, l, pot)
        for x in (2e77, 1e100, 1e200):
            with pytest.raises(OverflowError):
                potential(x)
            with pytest.raises(OverflowError):
                knp(x)
            for y in (kinetic(x), norm(x)):
                assert y == 0.0 or math.isnan(y), (fam, l, x)
        for x in (1e-300, 1e-3, 0.7, 1.0, 3.0, 1e30, 1e70):
            assert knp(x) == (kinetic(x), norm(x), potential(x)), (fam, l, x)


def gauss(x):
    return math.exp(-x * x)


def _one_raises(x):
    if x > 30.0:
        raise OverflowError("tail")
    return x * math.exp(-x)


def _one_nan(x):
    return x * math.exp(-x) if x <= 30.0 else math.nan


def joined(*fs):
    return lambda x: tuple(g(x) for g in fs)


def test_float_valued_f_gives_one_result():
    res = quad_semiinfinite(gauss, 1e-10)
    assert isinstance(res, QuadratureResult)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
    one = quad_semiinfinite(lambda x: (gauss(x),), 1e-10)
    assert isinstance(one, QuadratureParts)
    assert one.parts == (res,)
    assert (one.evaluations, one.levels) == (res.evaluations, res.levels)


def test_exception_at_the_first_node_is_a_scalar_zero():
    # the width is read from f(1.0); a ZeroDivisionError there counts as 0,
    # as it does at any other node
    def f(x):
        return (x - 1.0) ** 3 / (x - 1.0) * gauss(x)

    res = quad_semiinfinite(f, 1e-10)
    assert isinstance(res, QuadratureResult)
    assert res == quad_semiinfinite(lambda x: 0.0 if x == 1.0 else f(x), 1e-10)


WIDTHS = (2, 3)


class TestTupleSweep:
    """Tuple-valued integrands of width 2 and 3; a third component, where
    there is one, is a slowly decaying x·e^{-x}."""

    @staticmethod
    def third(x):
        return x * math.exp(-x)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_one_component_nan_matches_scalar_raising(self, width):
        # the first component is nan where its scalar form raises; only it
        # takes 0 there, the others keep every node
        comps = (_one_nan, gauss, self.third)[:width]
        res = quad_semiinfinite(joined(*comps), 1e-10)
        assert res.parts == tuple(quad_semiinfinite(g, 1e-10)
                                  for g in (_one_raises, gauss, self.third)[:width])

    @pytest.mark.parametrize("width", WIDTHS)
    def test_components_stop_at_different_levels(self, width):
        # a narrow peak needs fine steps but few nodes per level; the
        # Lorentzian's slow tail needs many nodes but converges early
        f = (lambda x: math.exp(-100.0 * (x - 1.0) ** 2), lambda x: 1.0 / (1.0 + x * x),
             self.third)[:width]
        scalar = tuple(quad_semiinfinite(g, 1e-10) for g in f)
        assert (scalar[0].levels, scalar[0].evaluations) == (7, 125)
        assert (scalar[1].levels, scalar[1].evaluations) == (4, 119)
        if width == 3:
            assert scalar[2].levels == 5
        integrand, calls = counted(joined(*f))
        res = quad_semiinfinite(integrand, 1e-10)
        assert res.parts == scalar
        assert res.levels == 7
        # once the Lorentzian has converged, its many tail nodes are no
        # longer evaluated
        assert res.evaluations == calls[0] <= sum(r.evaluations for r in scalar)
        if width == 2:
            assert res.evaluations == 195

    @pytest.mark.parametrize("width", WIDTHS)
    def test_exception_zeroes_every_component(self, width):
        scales = (1.0, 2.0, 3.0)[:width]

        def f(x):
            if x > 30.0:
                raise OverflowError("tail")
            return tuple(a * x * math.exp(-x) for a in scales)

        def raising(a):
            return lambda x: a * _one_raises(x)

        res = quad_semiinfinite(f, 1e-10)
        assert res.parts == tuple(quad_semiinfinite(raising(a), 1e-10) for a in scales)
        assert res.parts[1].value == 2.0 * res.parts[0].value

    @pytest.mark.parametrize("width,failing", [(2, (0,)), (2, (1,)), (3, (0,)), (3, (1,)),
                                               (3, (2,)), (3, (1, 2))])
    def test_convergence_error_names_the_first_failing_component(self, width, failing):
        # with two failing components, the second fails with a different
        # last difference, so the error must be the first one's
        bad = (lambda x: 1.0 / (1.0 + x), lambda x: 1.0 / (1.0 + 0.5 * x))
        comps = [gauss] * width
        for j, c in enumerate(failing):
            comps[c] = bad[j]
        with pytest.raises(ConvergenceError) as scalar:
            quad_semiinfinite(bad[0], 1e-10)
        with pytest.raises(ConvergenceError) as fused:
            quad_semiinfinite(joined(*comps), 1e-10)
        assert str(fused.value) == str(scalar.value)
        assert (fused.value.best_estimate, fused.value.error_estimate,
                fused.value.evaluations) == (scalar.value.best_estimate,
                                             scalar.value.error_estimate,
                                             scalar.value.evaluations)
