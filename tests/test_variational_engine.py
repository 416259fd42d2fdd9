import itertools
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallisqm import variational_engine, verify
from wallisqm.errors import DivergenceError, DomainError
from wallisqm.gamma_kit import GammaRatioQuery, gamma_ratio
from wallisqm.integral_kit import coulomb_to_norm_ratio
from wallisqm.variational_engine import (EnergyEstimate, Family, Method,
                                         Potential, TrialSpec, exact_energy,
                                         expectation_energy_closed,
                                         expectation_energy_numeric,
                                         optimal_param_closed, variational_energy)
from wallisqm.wallis_series import scaled_a, wallis_partial_product

PI = math.pi
GAUSSIAN, LORENTZ = Family.GAUSSIAN, Family.LORENTZ
COULOMB, OSC = Potential.COULOMB, Potential.HARMONIC_OSCILLATOR

ALL_COMBOS = [(GAUSSIAN, COULOMB), (GAUSSIAN, OSC), (LORENTZ, COULOMB), (LORENTZ, OSC)]
MAX_L = variational_engine._MAX_L


def l_floor(family, pot):
    return 1 if (family is LORENTZ and pot is OSC) else 0


class TestTypes:
    def test_trial_spec_validation(self):
        with pytest.raises(DomainError):
            TrialSpec(GAUSSIAN, -1, 1.0)
        with pytest.raises(DomainError):
            TrialSpec(GAUSSIAN, 0, 0.0)
        with pytest.raises(DomainError):
            TrialSpec(LORENTZ, 2, -3.0)

    @pytest.mark.parametrize("family", [GAUSSIAN, LORENTZ])
    @pytest.mark.parametrize("param", [math.inf, math.nan, 1e-300, 1e-76, 1e76, True])
    def test_trial_spec_rejects_out_of_range_param(self, family, param):
        # param = inf made the numeric ⟨H⟩ divide by zero and the closed one
        # return 0.0; a Lorentz a = 1e-300 underflowed a² to 0
        with pytest.raises(DomainError):
            TrialSpec(family, 1, param)

    @pytest.mark.parametrize("family,pot", ALL_COMBOS)
    @pytest.mark.parametrize("param", [1e-75, 1e75])
    def test_param_range_ends_are_finite(self, family, pot, param):
        spec = TrialSpec(family, 2, param)
        closed = expectation_energy_closed(spec, pot)
        assert math.isfinite(closed)
        assert expectation_energy_numeric(spec, pot) == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("l", [True, False, math.inf, -math.inf, math.nan, 1.5, -1, "2"])
    def test_one_l_check_everywhere(self, l):
        with pytest.raises(DomainError):
            TrialSpec(GAUSSIAN, l, 1.0)
        with pytest.raises(DomainError):
            optimal_param_closed(GAUSSIAN, COULOMB, l)
        with pytest.raises(DomainError):
            exact_energy(COULOMB, l)
        for method in Method:
            with pytest.raises(DomainError):
                variational_energy(GAUSSIAN, COULOMB, l, method)

    def test_integral_float_l_is_accepted(self):
        assert TrialSpec(GAUSSIAN, 2.0, 1.0).l == 2
        assert exact_energy(COULOMB, 2.0) == exact_energy(COULOMB, 2)
        assert variational_energy(LORENTZ, COULOMB, 3.0) == variational_energy(LORENTZ,
                                                                                COULOMB, 3)


class TestExpectationClosed:
    def test_gaussian_coulomb_l0(self):
        # 3/2 - sqrt(2)·Gamma(1)/Gamma(3/2) = 3/2 - 2·sqrt(2/pi)
        e = expectation_energy_closed(TrialSpec(GAUSSIAN, 0, 1.0), COULOMB)
        assert e == pytest.approx(1.5 - 2.0 * math.sqrt(2.0 / PI), rel=1e-13)

    def test_lorentz_coulomb_l0(self):
        # (1/4)/a^2 - (2/pi)/a at a = 1
        e = expectation_energy_closed(TrialSpec(LORENTZ, 0, 1.0), COULOMB)
        assert e == pytest.approx(0.25 - 2.0 / PI, rel=1e-13)

    def test_gaussian_oscillator_at_optimum(self):
        for l in range(0, 6):
            e = expectation_energy_closed(TrialSpec(GAUSSIAN, l, 0.5), OSC)
            assert e == pytest.approx(l + 1.5, rel=1e-15)

    def test_lorentz_oscillator_l0_diverges(self):
        with pytest.raises(DivergenceError):
            expectation_energy_closed(TrialSpec(LORENTZ, 0, 1.0), OSC)


class TestExpectationNumeric:
    def test_gaussian_coulomb_l0(self):
        spec = TrialSpec(GAUSSIAN, 0, 1.0)
        num = expectation_energy_numeric(spec, COULOMB)
        assert num == pytest.approx(1.5 - 2.0 * math.sqrt(2.0 / PI), rel=1e-8)

    @pytest.mark.parametrize("family,pot,l,p", [
        (GAUSSIAN, COULOMB, 0, 1.0),
        (LORENTZ, COULOMB, 1, 2.0),
        (GAUSSIAN, OSC, 3, 0.5),
        (LORENTZ, OSC, 2, 3.0),
        (GAUSSIAN, COULOMB, 20, 1e-3),
        (LORENTZ, COULOMB, 12, 40.0),
    ])
    def test_matches_closed_form(self, family, pot, l, p):
        spec = TrialSpec(family, l, p)
        closed = expectation_energy_closed(spec, pot)
        numeric = expectation_energy_numeric(spec, pot)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_lorentz_oscillator_l0_diverges(self):
        with pytest.raises(DivergenceError):
            expectation_energy_numeric(TrialSpec(LORENTZ, 0, 1.0), OSC)

    @given(st.sampled_from(ALL_COMBOS),
           st.integers(min_value=0, max_value=20)
           | st.floats(min_value=1.0, max_value=24.0).map(lambda u: min(round(10.0 ** u), MAX_L)),
           st.floats(min_value=-75.0, max_value=75.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_closed_form_over_the_whole_parameter_domain(self, combo, l, log_param):
        # every l <= 10²⁴ and every parameter in [1e-75, 1e75]: the moments
        # do not depend on the parameter, so none is too far from the optimum
        family, pot = combo
        l = max(l, l_floor(family, pot))
        param = min(max(10.0 ** log_param, 1e-75), 1e75)
        spec = TrialSpec(family, l, param)
        numeric = expectation_energy_numeric(spec, pot)
        closed = expectation_energy_closed(spec, pot)
        # relative to the size of the kinetic and potential terms, so that a
        # Coulomb parameter near the zero of ⟨H⟩ is judged by the terms that
        # cancel there
        k, p, n = variational_engine._moments(family, pot, l)
        terms = sum(abs(variational_engine._energy_from_moments(m, family, pot, param))
                    for m in ((k, 0.0, n), (0.0, p, n)))
        assert abs(numeric - closed) <= 1e-12 * terms

    @pytest.mark.parametrize("family,pot", ALL_COMBOS)
    @pytest.mark.parametrize("l", [MAX_L + 1, 10**25, 10**38, 10**76])
    def test_levels_past_the_orbital_limit_are_a_domain_error(self, family, pot, l,
                                                              monkeypatch):
        # one limit for every function that takes l and for both methods,
        # checked before any quadrature
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a quadrature past the orbital limit")

        monkeypatch.setattr(variational_engine, "quad_semiinfinite", no_quadrature)
        for method in Method:
            with pytest.raises(DomainError, match="orbital number l"):
                variational_energy(family, pot, l, method)
        with pytest.raises(DomainError, match="orbital number l"):
            TrialSpec(family, l, 1.0)
        with pytest.raises(DomainError, match="orbital number l"):
            optimal_param_closed(family, pot, l)
        with pytest.raises(DomainError, match="orbital number l"):
            exact_energy(pot, l)


class TestOptimalParam:
    def test_gaussian_coulomb_l0(self):
        assert optimal_param_closed(GAUSSIAN, COULOMB, 0) == pytest.approx(
            8.0 / (9.0 * PI), rel=1e-14)

    @pytest.mark.parametrize("l", [0, 1, 5, 20])
    def test_gaussian_oscillator(self, l):
        assert optimal_param_closed(GAUSSIAN, OSC, l) == 0.5

    def test_lorentz_coulomb_l0(self):
        assert optimal_param_closed(LORENTZ, COULOMB, 0) == pytest.approx(
            PI / 4.0, rel=1e-14)

    def test_lorentz_oscillator_l1(self):
        assert optimal_param_closed(LORENTZ, OSC, 1) == pytest.approx(
            0.6 ** 0.25, rel=1e-14)

    @pytest.mark.parametrize("family,pot", ALL_COMBOS)
    @pytest.mark.parametrize("l", [*range(61), *(10**k for k in range(2, 25))])
    def test_optimum_reproduces_level_formula(self, family, pot, l):
        # one moment algebra for the level and for ⟨H⟩, so equal bit for bit
        if l < l_floor(family, pot):
            return
        p_star = optimal_param_closed(family, pot, l)
        e_at_opt = expectation_energy_closed(TrialSpec(family, l, p_star), pot)
        est = variational_energy(family, pot, l)
        assert est.optimal_param == p_star
        assert e_at_opt == est.value

    @pytest.mark.parametrize("family,pot", ALL_COMBOS)
    @pytest.mark.parametrize("l", [0, 1, 3, 10, 20])
    def test_stationarity(self, family, pot, l):
        if l < l_floor(family, pot):
            return
        p_star = optimal_param_closed(family, pot, l)
        h = 1e-6 * p_star
        d = (expectation_energy_closed(TrialSpec(family, l, p_star + h), pot)
             - expectation_energy_closed(TrialSpec(family, l, p_star - h), pot)) / (2 * h)
        e_star = expectation_energy_closed(TrialSpec(family, l, p_star), pot)
        assert abs(d * p_star / e_star) < 1e-6


class TestExactEnergy:
    def test_values(self):
        assert exact_energy(COULOMB, 0) == -0.5
        assert exact_energy(COULOMB, 2) == pytest.approx(-1.0 / 18.0, rel=1e-15)
        assert exact_energy(OSC, 4) == 5.5


class TestVariationalEnergy:
    def test_gaussian_coulomb_l0(self):
        est = variational_energy(GAUSSIAN, COULOMB, 0)
        assert est.value == pytest.approx(-4.0 / (3.0 * PI), rel=1e-13)
        assert est.exact_reference == -0.5
        assert est.ratio_to_exact == pytest.approx(8.0 / (3.0 * PI), rel=1e-13)
        assert est.method is Method.CLOSED_FORM

    def test_lorentz_coulomb_l0(self):
        est = variational_energy(LORENTZ, COULOMB, 0)
        assert est.value == pytest.approx(-4.0 / PI ** 2, rel=1e-13)

    def test_lorentz_oscillator_l1(self):
        est = variational_energy(LORENTZ, OSC, 1)
        assert est.value == pytest.approx(math.sqrt(15.0), rel=1e-13)
        assert est.exact_reference == 2.5

    def test_lorentz_oscillator_l0_diverges(self):
        # the numeric path checks l before its moment sweep, where P diverges
        for method in Method:
            with pytest.raises(DivergenceError):
                variational_energy(LORENTZ, OSC, 0, method)

    @pytest.mark.parametrize("family,pot,l", [
        (GAUSSIAN, COULOMB, 0),
        (GAUSSIAN, COULOMB, 7),
        (LORENTZ, COULOMB, 3),
        (GAUSSIAN, OSC, 2),
        (LORENTZ, OSC, 1),
    ])
    def test_numeric_agrees_with_closed(self, family, pot, l):
        closed = variational_energy(family, pot, l, Method.CLOSED_FORM)
        numeric = variational_energy(family, pot, l, Method.NUMERIC)
        assert numeric.value == pytest.approx(closed.value, rel=1e-6)
        assert numeric.optimal_param == pytest.approx(closed.optimal_param, rel=1e-4)
        assert numeric.method is Method.NUMERIC

    def test_lorentz_coulomb_level_against_50_digits(self):
        # -(1/2)·[Γ(l+1)/Γ(l+½)]⁴/((l+1)(l+½)³): P/N is the Wallis product
        # up to l = 150, so the kernel's lgamma differences, which would put
        # 5.8e-14 on the level at l = 30, do not enter
        worst = 0.0
        with mp.workdps(50):
            for l in range(400):
                x = mp.mpf(l)
                ref = -mp.exp(4 * (mp.loggamma(x + 1) - mp.loggamma(x + mp.mpf(0.5)))) \
                    / (2 * (x + 1) * (x + mp.mpf(0.5)) ** 3)
                value = variational_energy(LORENTZ, COULOMB, l).value
                worst = max(worst, float(abs(value / ref - 1)))
        assert worst <= 5e-15

    def test_estimate_is_record(self):
        est = variational_energy(GAUSSIAN, COULOMB, 1)
        assert isinstance(est, EnergyEstimate)
        assert est.value >= est.exact_reference


NUMERIC_LEVELS = [
    (family, pot, l)
    for family, pot in ALL_COMBOS
    for l in range(l_floor(family, pot), 21)
]


class TestNumericLevels:
    @pytest.mark.parametrize("family,pot,l", NUMERIC_LEVELS)
    def test_one_moment_sweep_and_no_value_call_per_level(self, monkeypatch, family, pot, l):
        quad = variational_engine.quad_semiinfinite
        quads = []

        def counting_quad(f, tol):
            quads.append(tol)
            return quad(f, tol)

        def no_value(*args, **kwargs):
            raise AssertionError("a value call after the moment sweep")

        monkeypatch.setattr(variational_engine, "quad_semiinfinite", counting_quad)
        monkeypatch.setattr(variational_engine, "expectation_energy_numeric", no_value)
        est = variational_energy(family, pot, l, Method.NUMERIC)
        closed = variational_energy(family, pot, l, Method.CLOSED_FORM)
        # one sweep for K, N and P gives both the optimum and the value
        assert quads == [variational_engine._LEVEL_TOL]
        assert est.optimal_param == pytest.approx(closed.optimal_param, rel=1e-12)
        assert est.value == pytest.approx(closed.value, rel=5e-14)

    def test_level_is_the_numeric_oracle_at_its_optimum(self):
        # the same formula on the same sweep, so equal bit for bit: every
        # level l <= 20, and l = 10³, 10⁶, 10¹² and 10²⁴, of all four combinations
        large = [(family, pot, l) for family, pot in ALL_COMBOS
                 for l in (10**3, 10**6, 10**12, MAX_L)]
        for family, pot, l in NUMERIC_LEVELS + large:
            est = variational_energy(family, pot, l, Method.NUMERIC)
            spec = TrialSpec(family, l, est.optimal_param)
            assert est.value == expectation_energy_numeric(spec, pot), (family, pot, l)

    def test_numeric_levels_never_read_the_closed_optimum(self, monkeypatch):
        closed = {(family, pot, l): variational_energy(family, pot, l)
                  for family, pot, l in NUMERIC_LEVELS}

        def closed_optimum(*args):
            raise AssertionError("the numeric path read the closed optimum")

        # the closed moment ratios are the only closed input of a level
        monkeypatch.setattr(variational_engine, "_closed_moments", closed_optimum)
        monkeypatch.setattr(variational_engine, "optimal_param_closed", closed_optimum)
        for key, ref in closed.items():
            est = variational_energy(*key, Method.NUMERIC)
            assert est.value == pytest.approx(ref.value, rel=5e-14), key
            assert est.optimal_param == pytest.approx(ref.optimal_param, rel=1e-12), key

    @pytest.mark.parametrize("family,pot,l", NUMERIC_LEVELS)
    def test_virial_relation_at_the_numeric_optimum(self, family, pot, l):
        # 2T = -V (Coulomb, V ~ 1/r) and T = V (oscillator, V ~ r²), with T
        # and V from the moments that located the optimum
        param = variational_energy(family, pot, l, Method.NUMERIC).optimal_param
        k, p, n = variational_engine._moments(family, pot, l)
        t = variational_engine._energy_from_moments((k, 0.0, n), family, pot, param)
        v = variational_engine._energy_from_moments((0.0, p, n), family, pot, param)
        if pot is COULOMB:
            assert 2.0 * t == pytest.approx(-v, rel=1e-12)
        else:
            assert t == pytest.approx(v, rel=1e-12)


def closed_moment_ratios(family, pot, l):
    """(K/N, P/N) in closed form: Gaussian (l + 3/2)/2 and
    Γ(l+1)/Γ(l+3/2) or l + 3/2; Lorentz (l+1)(l+½)/2 and the Coulomb to
    norm integral ratio or (l + 3/2)/(l − ½)."""
    if family is GAUSSIAN:
        return ((l + 1.5) / 2.0, gamma_ratio(GammaRatioQuery(l, 1.0, 1.5))
                if pot is COULOMB else l + 1.5)
    return ((l + 1.0) * (l + 0.5) / 2.0, coulomb_to_norm_ratio(l)
            if pot is COULOMB else (l + 1.5) / (l - 0.5))


# integrand calls of each numeric level, l = l_min…20
CALLS_PER_LEVEL = {
    (GAUSSIAN, COULOMB): [223, 219, 205, 193, 185, 179, 171, 93, 93, 91, 89, 89, 89, 87, 87, 87,
                          85, 85, 85, 85, 83],
    (GAUSSIAN, OSC): [199, 219, 205, 193, 185, 179, 171, 165, 165, 161, 89, 89, 89, 87, 87, 87,
                      85, 85, 85, 85, 83],
    (LORENTZ, COULOMB): [125, 105, 97, 93, 89, 87, 85, 83, 83, 81, 81, 81, 81, 81, 79, 79, 79, 79,
                         79, 79, 77],
    (LORENTZ, OSC): [137, 103, 101, 95, 93, 91, 87, 85, 85, 83, 83, 81, 81, 81, 81, 81, 81, 79, 79,
                     79],
}
LARGE_LS = [100, 500, 10**3, 10**4, 10**6, 10**9, 10**12, 10**18, MAX_L]
# l log-uniform in [1, 10²⁴]
LOG_UNIFORM_L = st.floats(min_value=0.0, max_value=24.0).map(
    lambda u: min(round(10.0 ** u), MAX_L))


class TestNumericDomain:
    """The numeric method over its whole domain, l <= 10²⁴, the closed one's."""

    @given(st.sampled_from(ALL_COMBOS), LOG_UNIFORM_L)
    @example((GAUSSIAN, COULOMB), MAX_L)
    @example((GAUSSIAN, OSC), MAX_L)
    @example((LORENTZ, COULOMB), MAX_L)
    @example((LORENTZ, OSC), MAX_L)
    @settings(max_examples=200, deadline=None)
    def test_levels_and_moment_ratios_match_closed(self, combo, l):
        family, pot = combo
        est = variational_energy(family, pot, l, Method.NUMERIC)
        assert est.value == pytest.approx(variational_energy(family, pot, l).value, rel=1e-12)
        k, p, n = variational_engine._moments(family, pot, l)
        assert n > 0.0
        kn, pn = closed_moment_ratios(family, pot, l)
        assert k / n == pytest.approx(kn, rel=1e-13)
        assert p / n == pytest.approx(pn, rel=1e-13)

    @given(st.sampled_from(ALL_COMBOS), LOG_UNIFORM_L)
    @example((GAUSSIAN, COULOMB), MAX_L)
    @example((GAUSSIAN, OSC), MAX_L)
    @example((LORENTZ, COULOMB), MAX_L)
    @example((LORENTZ, OSC), MAX_L)
    @settings(max_examples=200, deadline=None)
    def test_every_reported_optimum_is_a_trial_state(self, combo, l):
        # the closed Coulomb optima run to α* ≈ 1/(2l³) and a* ≈ l², and the
        # orbital limit keeps both inside the parameter domain; the numeric
        # optimum is the level's own trial state, where the oracle is the level
        family, pot = combo
        closed = variational_energy(family, pot, l)
        assert closed.optimal_param == optimal_param_closed(family, pot, l)
        TrialSpec(family, l, closed.optimal_param)
        est = variational_energy(family, pot, l, Method.NUMERIC)
        assert est.value == pytest.approx(closed.value, rel=1e-13)
        spec = TrialSpec(family, l, est.optimal_param)
        assert expectation_energy_numeric(spec, pot) == est.value

    @pytest.mark.parametrize("family,pot", ALL_COMBOS)
    @pytest.mark.parametrize("l", LARGE_LS)
    def test_large_level_is_one_sweep_and_matches_closed(self, monkeypatch, family, pot, l):
        # in x the nodes missed the narrow peak from about l = 100 (at
        # l = 10⁴ the norm integral came out 0); the centred variable
        # follows it to the limit
        quad = variational_engine.quad_semiinfinite
        quads = []

        def counting_quad(f, tol):
            quads.append(tol)
            return quad(f, tol)

        monkeypatch.setattr(variational_engine, "quad_semiinfinite", counting_quad)
        est = variational_energy(family, pot, l, Method.NUMERIC)
        closed = variational_energy(family, pot, l)
        assert quads == [variational_engine._LEVEL_TOL]
        assert est.value == pytest.approx(closed.value, rel=1e-12)
        assert est.optimal_param == pytest.approx(closed.optimal_param, rel=1e-12)
        spec = TrialSpec(family, l, est.optimal_param)
        assert expectation_energy_numeric(spec, pot) == est.value

    def test_integrand_calls_per_level(self, monkeypatch):
        # over the 83 levels l <= 20: 108.0 calls a level centred on the norm
        # integrand's peak, against 112.6 centred on the profile's peak with
        # l = 0 apart, and 179.0 in x
        quad = variational_engine.quad_semiinfinite
        calls = []

        def counting_quad(f, tol):
            calls.append(0)

            def counted(x):
                calls[-1] += 1
                return f(x)

            return quad(counted, tol)

        monkeypatch.setattr(variational_engine, "quad_semiinfinite", counting_quad)
        for family, pot, l in NUMERIC_LEVELS:
            variational_energy(family, pot, l, Method.NUMERIC)
        assert len(calls) == len(NUMERIC_LEVELS) == 83
        assert calls == CALLS_PER_LEVEL[GAUSSIAN, COULOMB] + CALLS_PER_LEVEL[GAUSSIAN, OSC] \
            + CALLS_PER_LEVEL[LORENTZ, COULOMB] + CALLS_PER_LEVEL[LORENTZ, OSC]
        assert sum(calls) / len(calls) <= 112.6


class TestUpperBoundProperty:
    @given(st.sampled_from([0, 1, 2, 5, 13, 30, 50]),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=120, deadline=None)
    def test_gaussian_coulomb_never_below_exact(self, l, log_factor):
        p = optimal_param_closed(GAUSSIAN, COULOMB, l) * 10.0 ** log_factor
        e = expectation_energy_closed(TrialSpec(GAUSSIAN, l, p), COULOMB)
        assert e > exact_energy(COULOMB, l)

    @pytest.mark.parametrize("family,pot", ALL_COMBOS)
    @pytest.mark.parametrize("l", [0, 1, 2, 5, 20, 50])
    def test_all_combos_grid(self, family, pot, l):
        if l < l_floor(family, pot):
            return
        exact = exact_energy(pot, l)
        p_star = optimal_param_closed(family, pot, l)
        for factor in (1e-2, 0.1, 0.33, 1.0, 3.0, 10.0, 1e2):
            e = expectation_energy_closed(TrialSpec(family, l, p_star * factor), pot)
            if family is GAUSSIAN and pot is OSC and factor == 1.0:
                assert e == exact  # the trial family contains the eigenstate
            else:
                assert e > exact


def ratios(family, pot, l_max):
    """(l, E_var/E_exact) of the closed levels from the first finite one up
    to l_max."""
    return [(l, variational_energy(family, pot, l).ratio_to_exact)
            for l in range(l_floor(family, pot), l_max + 1)]


class TestRatioSequence:
    @pytest.mark.parametrize("family,pot", ALL_COMBOS, ids=lambda v: v.value)
    def test_sequences_start_at_the_one_l_domain_rule(self, family, pot, monkeypatch):
        l_min = variational_engine._l_min(family, pot)
        assert l_min == l_floor(family, pot)
        variational_energy(family, pot, l_min)
        if l_min:
            with pytest.raises(DivergenceError):
                variational_energy(family, pot, l_min - 1)
        assert verify._l_values(family, pot, [0, 1, 2, 3])[0] == l_min
        # both read the rule at call time, so moving it moves them
        monkeypatch.setattr(variational_engine, "_l_min", lambda family, pot: 2)
        for method in Method:
            with pytest.raises(DivergenceError):
                variational_energy(family, pot, 1, method)
        variational_energy(family, pot, 2)
        assert verify._l_values(family, pot, [0, 1, 2, 3]) == [2, 3]

    def test_gaussian_coulomb_matches_scaled_a(self):
        for l, ratio in ratios(GAUSSIAN, COULOMB, 30):
            assert ratio == pytest.approx(scaled_a(l + 1), rel=1e-13)

    def test_gaussian_coulomb_wallis_linkage(self):
        for l, ratio in ratios(GAUSSIAN, COULOMB, 25):
            assert ratio == pytest.approx(
                2.0 / PI * wallis_partial_product(l + 1), abs=1e-12)

    def test_lorentz_coulomb_l0_entry(self):
        (l0, r0), *_ = ratios(LORENTZ, COULOMB, 3)
        assert l0 == 0
        assert r0 == pytest.approx(8.0 / PI ** 2, rel=1e-13)

    def test_gaussian_oscillator_is_exact(self):
        assert all(r == 1.0 for _, r in ratios(GAUSSIAN, OSC, 20))

    def test_lorentz_oscillator_starts_at_one(self):
        seq = ratios(LORENTZ, OSC, 5)
        assert seq[0][0] == 1
        assert all(r >= 1.0 for _, r in seq)

    @pytest.mark.parametrize("family,pot", ALL_COMBOS)
    def test_monotone_toward_one(self, family, pot):
        gaps = [abs(1.0 - r) for _, r in ratios(family, pot, 40)]
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_lorentz_ratio_identity(self):
        # ratio(l) = ((n-1/2)(n+1/2)^2/n^3)·(n^2 a_n)^2 with n = l+1
        for l, ratio in ratios(LORENTZ, COULOMB, 25):
            n = l + 1.0
            ident = (n - 0.5) * (n + 0.5) ** 2 / n ** 3 * scaled_a(l + 1) ** 2
            assert ratio == pytest.approx(ident, abs=1e-12)

    @pytest.mark.parametrize("family", [GAUSSIAN, LORENTZ])
    def test_coulomb_ratio_at_most_one_up_to_a_million(self, family):
        ls = sorted(set(range(1000)) | {round(10 ** (k / 100)) for k in range(301, 601)})
        assert ls[-1] == 10**6
        for method, l in itertools.product(Method, ls):
            assert variational_energy(family, COULOMB, l, method).ratio_to_exact <= 1.0, l

    @pytest.mark.parametrize("family", [GAUSSIAN, LORENTZ])
    def test_coulomb_ratio_within_rounding_of_one_to_the_l_limit(self, family):
        # the true gap, about 1/(8l²), falls below the rounding: the double
        # may exceed 1 (Lorentz from l ~ 10⁷, Gaussian from 10¹⁴), but by a
        # few 1e-14 only
        for method, k in itertools.product(Method, range(25)):
            r = variational_energy(family, COULOMB, 10**k, method).ratio_to_exact
            assert 0.0 < r <= 1.0 + 1e-13, (method, k)

    def test_oscillator_ratio_window(self):
        for l in range(2, 200):
            r2 = (l + 1.0) * (l + 0.5) / ((l + 1.5) * (l - 0.5))
            assert 1.0 < r2 < 1.0 + 3.0 / l
