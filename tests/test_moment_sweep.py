"""The ⟨H⟩ moment quadrature, and tuple-valued quadrature in general,
against scalar quadratures.

``expectation_energy_numeric`` integrates the scale-free moments K, N and P
of the rescaled trial profile in one sweep of a tuple-valued integrand, then
combines them at the scale parameter as (K + v·P)/(s²·N).  Each component
must come out exactly as a scalar ``quad_semiinfinite`` call on it alone
would: value, error estimate, evaluation count and level, bit for bit.  The
scalar integrands here are written out independently of the engine's, one
closure per moment, in the centred variable y, x = x_pk·y^c, with x_pk the
peak of the norm integrand at every l.
"""

import math

import pytest

from wallisqm.errors import ConvergenceError
from wallisqm.gamma_kit import _log1p_minus_linear
from wallisqm.integral_kit import QuadratureParts, QuadratureResult, quad_semiinfinite
from wallisqm.variational_engine import (_KAPPA, _LEVEL_TOL, _MAX_L, Family, Potential,
                                         TrialSpec, _moment_integrands, _moments,
                                         expectation_energy_numeric, optimal_param_closed)


def scalar_integrands(family, l, pot):
    """The moments K, P and N of ⟨H⟩ as three separate scalar integrands.

    They take y, with x = x_pk·y^c, c = κ/√(l+1) and v = c·ln y, where x_pk
    is the peak of the norm integrand: √(l+1) (Gaussian) or 1 (Lorentz).
    Each is the moment's integrand times dx/dy = c·x/y, over the squared
    profile at x_pk, over c, and over x_pk (K), x_pk² or x_pk⁵ (P) and
    x_pk³ (N), and K over (l+1)² too."""
    L = float(l)
    L1 = L + 1.0
    c = _KAPPA[family] / math.sqrt(L1)
    b = L / L1

    def log_ratio(y):  # v = ln(x/x_pk)
        return c * math.log(y)

    if family is Family.GAUSSIAN:
        def g2(y):  # x^{2l}·e^{-x²} over its value at x_pk, times dx/dy over c·x_pk
            v = log_ratio(y)
            e = math.expm1(2.0 * v)  # x²/(l+1) - 1
            # e - ln(1 + e), by its series in e near the peak
            m = e - 2.0 * v if abs(e) > 0.01 else -_log1p_minus_linear(e)
            return math.exp(-L1 * m - 2.0 * v) * math.exp(v) / y

        def deriv_factor(y):  # (D + l(l+1))/(l+1)² with D = (l - x²)²
            d = math.expm1(2.0 * log_ratio(y)) + 1.0 / L1
            return d * d + b
    else:
        def g2(y):  # x^{2l}/(1+x²)^{2l+2} over its value at x = 1, times dx/dy/c
            v = log_ratio(y)
            e = math.expm1(2.0 * v)  # x² - 1
            q = 0.5 * e
            if abs(e) > 0.01:
                lg = 2.0 * L * v - 2.0 * L1 * math.log1p(q)
            else:
                lg = L1 * (_log1p_minus_linear(e) - 2.0 * _log1p_minus_linear(q)) - 2.0 * v
            return math.exp(lg) * math.exp(v) / y

        def deriv_factor(y):  # D = (l - 2(l+1)x²/(1+x²))², with (x² - 1)/2 = q
            q = 0.5 * math.expm1(2.0 * log_ratio(y))
            d = q / (1.0 + q) + 1.0 / L1
            return d * d + b

    def kinetic(y):
        return 0.5 * g2(y) * deriv_factor(y)

    def power(y):  # x/x_pk
        return math.exp(log_ratio(y))

    if pot is Potential.COULOMB:
        def potential(y):
            return g2(y) * power(y)
    else:
        def potential(y):
            u = power(y)
            return g2(y) * u * u * u * u

    def norm(y):
        u = power(y)
        return g2(y) * u * u

    return kinetic, potential, norm


def scalar_moments(fam, pot, l, tol):
    """(K, P, N) from three scalar quadratures, the centred ones times the
    powers of x_pk and (l+1)² that their integrands left out; the factor c
    and the profile's value at x_pk, common to all three, stay out."""
    k, p, n = (quad_semiinfinite(g, tol).value for g in scalar_integrands(fam, l, pot))
    L1 = float(l) + 1.0
    x_pk = math.sqrt(L1) if fam is Family.GAUSSIAN else 1.0
    return (k * x_pk * L1 ** 2,
            p * x_pk ** (2 if pot is Potential.COULOMB else 5), n * x_pk ** 3)


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
LS = (0, 1, 2, 3, 5, 8, 13, 20, 25, 30, 50, 100, 200, 500, 10**3, 10**4, 10**5, 10**6,
      10**9, 10**12, 10**18, _MAX_L)
FACTORS = (0.01, 0.1, 1.0, 10.0, 100.0)
TOLS = (1e-6, 3e-9, 1e-10, 1e-11)


@pytest.mark.parametrize("fam,pot", COMBOS, ids=lambda v: v.value)
def test_moments_match_scalar_quadratures(fam, pot):
    """Family × potential × l <= 10²⁴ × tol; ⟨H⟩ at 0.01–100× the optimum."""
    assert _LEVEL_TOL in TOLS
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
            if tol != _LEVEL_TOL:
                continue
            # the moments and the oracle integrate at the level's tolerance,
            # which no caller sets
            K, P, N = scalar_moments(fam, pot, l, tol)
            assert _moments(fam, pot, l) == (K, P, N), case
            for factor in FACTORS:
                param = factor * optimal_param_closed(fam, pot, l)
                s = length_scale(fam, param)
                v = -s if pot is Potential.COULOMB else 0.5 * s ** 4
                energy = expectation_energy_numeric(TrialSpec(fam, l, param), pot)
                assert energy == (K + v * P) / (s * s * N), case + (factor,)


@pytest.mark.parametrize("fam,pot", COMBOS, ids=lambda v: v.value)
def test_norm_is_positive_at_large_l(fam, pot):
    # the first node, y = 1, is the norm integrand's peak, where it is 1,
    # and no term of N is negative
    for l in (100, 500, 10**3, 10**4, 10**5, 10**6, 10**12, _MAX_L):
        K, P, N = _moments(fam, pot, l)
        assert N > 0.0 and K > 0.0 and P > 0.0, (l, K, P, N)
        assert _moment_integrands(fam, l, pot)(1.0)[1] == 1.0


def same(a, b):
    # equal component by component, where 0·inf gives nan on both sides
    return len(a) == len(b) and all(
        x == y or math.isnan(x) and math.isnan(y) for x, y in zip(a, b))


def test_far_nodes_only_where_the_profile_vanishes():
    # the far nodes of y either overflow expm1(2v), and raise, or give
    # components 0 or nan (0·inf), which the quadrature takes as 0.  The
    # profile is 0.0 there for every family with a finite ⟨r²⟩, so no
    # nonzero term is lost.  (The l = 0 Lorentz oscillator integrand is never
    # built: its ⟨r²⟩ diverges.)
    pot = Potential.HARMONIC_OSCILLATOR
    for fam, l in ((Family.GAUSSIAN, 0), (Family.GAUSSIAN, 1), (Family.GAUSSIAN, 5),
                   (Family.GAUSSIAN, 10**6), (Family.GAUSSIAN, _MAX_L), (Family.LORENTZ, 1),
                   (Family.LORENTZ, 5), (Family.LORENTZ, 10**6), (Family.LORENTZ, _MAX_L)):
        kinetic, potential, norm = scalar_integrands(fam, l, pot)
        knp = _moment_integrands(fam, l, pot)
        for y in (1e100, 1e200, 1e275):
            try:
                values = knp(y)
            except OverflowError:
                with pytest.raises(OverflowError):
                    kinetic(y)
                continue
            assert same(values, (kinetic(y), norm(y), potential(y))), (fam, l, y)
            assert all(v == 0.0 or math.isnan(v) for v in values), (fam, l, y, values)
    # elsewhere the components are the scalar integrands' values
    for fam, l in ((Family.GAUSSIAN, 0), (Family.GAUSSIAN, 5), (Family.LORENTZ, 1),
                   (Family.LORENTZ, 5)):
        kinetic, potential, norm = scalar_integrands(fam, l, pot)
        knp = _moment_integrands(fam, l, pot)
        for y in (1e-300, 1e-3, 0.7, 1.0, 3.0, 1e30, 1e70):
            assert knp(y) == (kinetic(y), norm(y), potential(y)), (fam, l, y)


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
