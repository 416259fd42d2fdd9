"""quad_semiinfinite's stop rule and error estimate against 50 digits.

A sweep stops at the first level k >= 2 whose difference d_k from the level
before is within 1e-3·tol, or within the rounding floor 64ε·|Q_k|, or, from
k = 3, whose contraction predicts the error of Q_k: d_k²/d_(k-1) <= 1e-2·tol.
``abs_error_estimate`` must be at least the true error of the value
returned, on every family of the integral table and on the centred moment
integrands of the numeric levels, at every tolerance from 1e-12 to 1e-4.
The references are the closed integrals at 50 digits.
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
TOL = st.floats(min_value=-12.0, max_value=-4.0).map(lambda u: max(1e-12, 10.0 ** u))


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


TABLE_CASE = st.one_of(
    st.tuples(st.just("gaussian-moment"), st.integers(0, 12)),
    st.tuples(st.just("rational-moment"), st.sampled_from(sorted(RATIONAL_N))),
    st.tuples(st.sampled_from(["rational-integral", "lorentz-norm", "lorentz-coulomb"]),
              st.integers(0, L_MAX)),
)


@given(TABLE_CASE, TOL)
# the first levels over a narrow peak contract irregularly: here d_4²/d_3
# is 2.0e-14 and the error 5.3e-12, which d_4·d_3/d_2 = 6.1e-10 covers
@example(("rational-integral", 190), 2.1e-12)
# at level 3 even the ratio d_2/d_1 falls short (error 2.9e-7), so level 3
# reports d_3
@example(("rational-integral", 302), 2.3e-7)
# level 2 agreed with level 1 to 7.8e-6 by chance, 5.1e-4 off; the rule
# no longer stops there
@example(("rational-integral", 252), 1e-5)
# the integrand's own rounding, 43ε relative: the 64ε floor covers it
@example(("lorentz-norm", 507), 1e-12)
@example(("lorentz-coulomb", 499), 1e-12)
@settings(max_examples=150, deadline=None)
def test_estimate_bounds_the_error_of_every_table_family(case, tol):
    f, e = table()[case]
    res = quad_semiinfinite(f, tol)
    with mp.workdps(50):
        err = abs(mp.mpf(res.value) - table_integral(*case, e))
    assert err <= res.abs_error_estimate, (case, tol, res, float(err))


COMBOS = [(GAUSSIAN, COULOMB), (GAUSSIAN, OSC), (LORENTZ, COULOMB), (LORENTZ, OSC)]


@given(st.sampled_from(COMBOS), st.floats(min_value=0.0, max_value=4.0).map(
    lambda u: round(10.0 ** u)), TOL)
# the moments' own rounding, up to 5ε relative, where a 4e-16·|Q| floor
# fell up to 11 times short
@example((LORENTZ, COULOMB), 5412, 1e-12)
@example((GAUSSIAN, OSC), 3981, 1e-12)
@settings(max_examples=120, deadline=None)
def test_estimate_bounds_the_error_of_the_moment_integrands(combo, l, tol):
    family, pot = combo
    sweep = quad_semiinfinite(_moment_integrands(family, l, pot), tol)
    with mp.workdps(50):
        for name, part, exact in zip("KNP", sweep.parts, moment_integrals(family, pot, l)):
            err = abs(mp.mpf(part.value) - exact)
            assert err <= part.abs_error_estimate, (name, combo, l, tol, part, float(err))


def convergence_cases():
    """name -> (f, label, index, e): x^m·e^(-x²) for m <= 25, the rational
    moments, and the three l-families at l = 0, 15, 100, 300 and 508."""
    cases = {f"x^{m}·exp(-x²)": (lambda x, m=m: x ** m * math.exp(-x * x),
                                 "gaussian-moment", m, 0) for m in range(26)}
    for (label, idx), (f, e) in table().items():
        if label == "rational-moment" or (label != "gaussian-moment"
                                          and idx in (0, 15, 100, 300, 508)):
            cases[f"{label}-{idx}"] = (f, label, idx, e)
    return cases


CONVERGENCE = convergence_cases()


@pytest.mark.parametrize("tol", [1e-12, 1e-11, 1e-10])
@pytest.mark.parametrize("name", sorted(CONVERGENCE))
def test_every_case_converges(name, tol):
    # each of these converged when the sweep stopped at a difference within
    # tol, in 30 599 evaluations over the 141 sweeps, against 22 467 now
    f, label, idx, e = CONVERGENCE[name]
    res = quad_semiinfinite(f, tol)
    with mp.workdps(50):
        err = abs(mp.mpf(res.value) - table_integral(label, idx, e))
    assert err <= res.abs_error_estimate, (name, tol, res, float(err))


@pytest.mark.parametrize("tol", [1e-12, 1e-11, 1e-10])
def test_rounding_floor_stops_where_tol_is_below_an_ulp(tol):
    # ∫ x^25·e^(-x²) = 12!/2 = 239500800, whose ulp is 3.0e-8, so no
    # difference but 0 reaches 1e-3·tol.  Level 7 differs from level 6 by 2
    # ulps, within the floor of 3.4e-6, and is 2 ulps off; at tol 1e-12 the
    # prediction, 3.1e-14, would not have stopped there.  A sweep that waits
    # for two levels to agree bit for bit stops at level 9, after 703
    # evaluations
    res = quad_semiinfinite(lambda x: x ** 25 * math.exp(-x * x), tol)
    assert (res.levels, res.evaluations) == (7, 201)
    assert res.abs_error_estimate == _FLOOR * res.value
    assert abs(res.value - 239500800.0) == 2 * math.ulp(239500800.0) <= res.abs_error_estimate
