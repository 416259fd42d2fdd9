"""quad_semiinfinite's stop rule and error estimate against 50 digits.

A sweep stops at the first level k >= 2 whose difference d_k from the level
before is within 1e-13, or within the rounding floor 64ε·|Q_k|, or, from
k = 3, whose contraction predicts the error of Q_k: d_k²/d_(k-1) <= 1e-12.
Both thresholds derive from the quadrature's one absolute tolerance, 1e-10.
``abs_error_estimate`` must be at least the true error of the value
returned, on every case of the integral table up to l = 508 and on the
centred moment integrands of the numeric levels up to l = 10⁴.  The
references are the closed integrals at 50 digits.
"""

import functools
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallisqm.integral_kit import _FLOOR, _integral_cases, quad_semiinfinite
from wallisqm.variational_engine import _KAPPA, Family, Potential, _moment_integrands

GAUSSIAN, LORENTZ = Family.GAUSSIAN, Family.LORENTZ
COULOMB, OSC = Potential.COULOMB, Potential.HARMONIC_OSCILLATOR
L_MAX = 508
# n of each rational-moment case of _integral_cases, by its m
RATIONAL_N = {0: 1, 1: 2, 2: 2, 4: 4, 3: 5, 6: 5}


def rational(m, n):
    """∫_0^∞ x^m/(1+x²)^n dx = B((m+1)/2, n-(m+1)/2)/2, at the working precision."""
    a = mp.mpf(m + 1) / 2
    return mp.beta(a, n - a) / 2


@functools.cache
def table():
    """(label, index) -> (f, e) for every case of _integral_cases up to l = 508."""
    return {(label, idx): (f, e) for label, idx, _, e, f in _integral_cases(L_MAX)}


def table_integral(label, idx, e):
    """∫_0^∞ f of a table case, whose integrand carries the factor 2^e."""
    if label == "gaussian-moment":
        return mp.gamma(mp.mpf(idx + 1) / 2) / 2
    if label == "rational-moment":
        return rational(idx, RATIONAL_N[idx])
    if label == "rational-integral":
        return rational(0, idx + 1)
    return mp.ldexp(rational(e if label == "lorentz-norm" else e - 1, e), e)


def moment_integrals(family, pot, l):
    """The integrals (K, N, P) of the components of _moment_integrands.

    With x = x_pk·y^c, each component is the moment's x-integrand, over the
    squared profile g at x_pk, over c and over its power of x_pk (and K over
    (l+1)²): g = x^(2l)·e^(-x²), x_pk = √(l+1) (Gaussian), or
    g = x^(2l)/(1+x²)^(2l+2), x_pk = 1 (Lorentz).  c is the double the
    integrand uses, so the integrals are exact for it.
    """
    lm, l1 = mp.mpf(l), mp.mpf(l) + 1
    c = mp.mpf(_KAPPA[family] / math.sqrt(float(l) + 1.0))
    if family is GAUSSIAN:
        def moment(j):  # ∫ x^j·g dx / g(x_pk)
            return mp.exp(mp.loggamma(lm + mp.mpf(j + 1) / 2) - lm * mp.log(l1) + l1) / 2

        xp = mp.sqrt(l1)
        # D = (l - x²)²
        kinetic = moment(4) - 2 * lm * moment(2) + (lm * lm + lm * l1) * moment(0)
        return (kinetic / (2 * c * xp * l1 ** 2), moment(2) / (c * xp ** 3),
                moment(1) / (c * xp ** 2) if pot is COULOMB else moment(4) / (c * xp ** 5))
    s = mp.ldexp(1, 2 * l + 2)  # 1/g(1)
    # D = (l - 2(l+1)x²/(1+x²))²
    kinetic = (lm * lm + lm * l1) * rational(2 * l, 2 * l + 2) \
        - 4 * lm * l1 * rational(2 * l + 2, 2 * l + 3) \
        + 4 * l1 ** 2 * rational(2 * l + 4, 2 * l + 4)
    return (kinetic * s / (2 * c * l1 ** 2), rational(2 * l + 2, 2 * l + 2) * s / c,
            rational(2 * l + 1 if pot is COULOMB else 2 * l + 4, 2 * l + 2) * s / c)


def test_estimate_bounds_the_error_of_every_table_family():
    # every case of the table up to l = 508: the estimate is at least 1.4
    # times the error of each, which is at most 2.8e-11 (rational-integral
    # l = 474, where the prediction decided)
    short = []
    with mp.workdps(50):
        for (label, idx), (f, e) in table().items():
            res = quad_semiinfinite(f)
            err = abs(mp.mpf(res.value) - table_integral(label, idx, e))
            if not err <= res.abs_error_estimate:
                short.append((label, idx, res, float(err)))
    assert not short


COMBOS = [(GAUSSIAN, COULOMB), (GAUSSIAN, OSC), (LORENTZ, COULOMB), (LORENTZ, OSC)]


@given(st.sampled_from(COMBOS), st.floats(min_value=0.0, max_value=4.0).map(
    lambda u: round(10.0 ** u)))
# the moments' own rounding, up to 19ε relative: the differences decide,
# and the estimate is the 64ε floor
@example((LORENTZ, COULOMB), 5412)
@settings(max_examples=120, deadline=None)
def test_estimate_bounds_the_error_of_the_moment_integrands(combo, l):
    family, pot = combo
    sweep = quad_semiinfinite(_moment_integrands(family, l, pot))
    with mp.workdps(50):
        for name, part, exact in zip("KNP", sweep.parts, moment_integrals(family, pot, l)):
            err = abs(mp.mpf(part.value) - exact)
            assert err <= part.abs_error_estimate, (name, combo, l, part, float(err))


# the orbital numbers of the three l-families: every l of the CLI's default
# table, the three largest errors of the table, all where the prediction
# decided (rational-integral l = 474, 190 and 123: 2.8e-11, 5.3e-12 and
# 1.7e-12 off; at 190 the first levels over the narrow peak contract
# irregularly, d_4²/d_3 is 2.0e-14, and d_4·d_3/d_2 = 6.1e-10 covers the
# error), and the largest l, where the Lorentz integrands' own
# rounding, 43ε relative at lorentz-norm 507 and 39ε at lorentz-coulomb
# 499, is covered by the 64ε floor of the estimate.  Beside these: the
# first l whose Lorentz sweeps need 7 and 8 levels (65, 272 and 273); the
# next largest errors of each family (rational-integral 16, 2.6e-15;
# lorentz-norm 272 and 270, 1.2e-15; lorentz-coulomb 269 and 267, 1.1e-15);
# and the errors closest to their estimates (rational-integral 424, 475 and
# 221 at 0.44, 0.41 and 0.29 of it; lorentz-norm 505 at 0.66; lorentz-coulomb
# 504 and 502 at 0.64)
L_AXIS = (*range(17), 65, 100, 123, 190, 221, 267, 269, 270, 272, 273, 300,
          424, 474, 475, 499, 502, 504, 505, 507, 508)


def convergence_cases():
    """name -> (f, label, index, e): x^m·e^(-x²) for m <= 25, the rational
    moments, and the three l-families at each l of L_AXIS."""
    cases = {f"x^{m}·exp(-x²)": (lambda x, m=m: x ** m * math.exp(-x * x),
                                 "gaussian-moment", m, 0) for m in range(26)}
    for (label, idx), (f, e) in table().items():
        if label == "rational-moment" or (label != "gaussian-moment" and idx in L_AXIS):
            cases[f"{label}-{idx}"] = (f, label, idx, e)
    return cases


CONVERGENCE = convergence_cases()


@pytest.mark.parametrize("name", sorted(CONVERGENCE))
def test_every_case_converges(name):
    f, label, idx, e = CONVERGENCE[name]
    res = quad_semiinfinite(f)
    with mp.workdps(50):
        err = abs(mp.mpf(res.value) - table_integral(label, idx, e))
    assert err <= res.abs_error_estimate, (name, res, float(err))


def test_rounding_floor_stops_where_tol_is_below_an_ulp():
    # ∫ x^25·e^(-x²) = 12!/2 = 239500800, whose ulp is 3.0e-8, so no
    # difference but 0 is within 1e-13.  Level 7 differs from level 6 by 2
    # ulps, within the floor of 3.4e-6, and is 2 ulps off; the floor is
    # tested before the prediction, and decides.  A sweep that waits for
    # two levels to agree bit for bit stops at level 9, after 703
    # evaluations
    res = quad_semiinfinite(lambda x: x ** 25 * math.exp(-x * x))
    assert (res.levels, res.evaluations) == (7, 201)
    assert res.abs_error_estimate == _FLOOR * res.value
    assert abs(res.value - 239500800.0) == 2 * math.ulp(239500800.0) <= res.abs_error_estimate
