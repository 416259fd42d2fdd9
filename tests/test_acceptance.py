"""Acceptance suite: every headline quantitative claim at its stated
tolerance, one pass/fail line per criterion (run with ``pytest -s`` or
``-rA`` to see the lines)."""

import math
from contextlib import contextmanager

import pytest

from wallisqm import verify, wallis_series
from wallisqm.errors import DivergenceError
from wallisqm.gamma_kit import (kazarinoff_bounds, quartic_root_bounds,
                                wallis_ratio, wendel_deviation)
from wallisqm.integral_kit import (G_rational, gaussian_moment,
                                   lorentz_coulomb_integral,
                                   lorentz_norm_integral, quad_semiinfinite)
from wallisqm.variational_engine import (Family, Method, Potential,
                                         variational_energy)
from wallisqm.verify import _wallis_products
from wallisqm.wallis_series import (GeneralizedParams, PartialSum, b_seq,
                                    scaled_a, sum_a_direct, sum_a_recurrence,
                                    sum_b_closed, sum_b_partial,
                                    wallis_partial_product)

PI = math.pi
GAUSSIAN, LORENTZ = Family.GAUSSIAN, Family.LORENTZ
COULOMB, OSC = Potential.COULOMB, Potential.HARMONIC_OSCILLATOR


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    print(f"PASS criterion {num}: {title}")


def test_criterion_01_wallis_convergence():
    with criterion(1, "Wallis product converges inside the π/2 envelope"):
        for n in (10**2, 10**3, 10**4, 10**5, 10**6):
            p = wallis_partial_product(n)
            gap = PI / 2.0 - p
            assert 0.0 < gap < (PI / 2.0) / (4.0 * n + 2.0)


def test_criterion_02_sum_identity():
    with criterion(2, "partial sums reach 4 - 8/π with the exact tail"):
        n = 10**4
        ps = sum_a_recurrence(n)
        assert abs(ps.value - (4.0 - 8.0 / PI)) <= 4.0 / (4.0 * n + 2.0)
        direct = sum_a_direct(n)
        assert abs(ps.value - direct) <= 1e-12 * abs(direct)


def test_criterion_03_generalized_identity():
    with criterion(3, "generalized two-parameter sums close at N = 2000"):
        grid = [(m, k)
                for m in (-0.4, 0.0, 0.5, 1.0, 2.3)
                for k in (-0.4, 0.0, 0.5, 1.0, 2.3)
                if 2.0 * (k - m) + 1.0 != 0.0]
        assert len(grid) == 23
        for m, k in grid:
            p = GeneralizedParams(m, k)
            part = sum_b_partial(p, 2000)
            direct = math.fsum(b_seq(p, i) for i in range(1, 2001))
            assert abs(part.value - direct) <= 1e-10 * abs(direct)
            assert abs(sum_b_closed(p) - part.value) <= part.tail_bound


def test_criterion_04_gaussian_levels():
    with criterion(4, "Gaussian hydrogen levels: numeric path meets closed form"):
        closed0 = variational_energy(GAUSSIAN, COULOMB, 0).value
        assert abs(closed0 - (-4.0 / (3.0 * PI))) <= 1e-13 * abs(closed0)
        for l in range(0, 21):
            closed = variational_energy(GAUSSIAN, COULOMB, l, Method.CLOSED_FORM)
            numeric = variational_energy(GAUSSIAN, COULOMB, l, Method.NUMERIC)
            assert abs(numeric.value - closed.value) <= 1e-6 * abs(closed.value)


def test_criterion_05_lorentz_levels():
    with criterion(5, "Lorentz hydrogen levels: numeric path meets closed form"):
        closed0 = variational_energy(LORENTZ, COULOMB, 0).value
        assert abs(closed0 - (-4.0 / PI**2)) <= 1e-13 * abs(closed0)
        for l in range(0, 21):
            closed = variational_energy(LORENTZ, COULOMB, l, Method.CLOSED_FORM)
            numeric = variational_energy(LORENTZ, COULOMB, l, Method.NUMERIC)
            assert abs(numeric.value - closed.value) <= 1e-6 * abs(closed.value)


def test_criterion_06_ratio_limits():
    with criterion(6, "energy ratios follow the Wallis product toward 1"):
        products = dict(enumerate(_wallis_products(), 1))  # n -> P_n, n <= 10001
        for l in range(0, 10_001):
            ratio = variational_energy(GAUSSIAN, COULOMB, l).ratio_to_exact
            assert abs(ratio - 2.0 / PI * products[l + 1]) <= 1e-12
            assert 1.0 - ratio < 1.0 / (4.0 * (l + 1.0) + 2.0)
        lorentz_ratio = variational_energy(LORENTZ, COULOMB, 10_000).ratio_to_exact
        assert abs(lorentz_ratio - 1.0) <= 5e-4


def test_criterion_07_integral_anatomy():
    with criterion(7, "closed integral forms match quadrature and the chains hold"):
        for m in range(0, 13):
            res = quad_semiinfinite(lambda x, m=m: x**m * math.exp(-x * x))
            assert abs(res.value - gaussian_moment(m)) <= max(
                1e-9, 10.0 * res.abs_error_estimate)
        for l in range(0, 16):
            closed = {
                "g": G_rational(l),
                "norm": lorentz_norm_integral(l),
                "coulomb": lorentz_coulomb_integral(l),
            }
            res_g = quad_semiinfinite(lambda x, l=l: (1.0 + x * x) ** -(l + 1.0))
            res_n = quad_semiinfinite(
                lambda x, l=l: x ** (2 * l + 2) / (1.0 + x * x) ** (2 * l + 2))
            res_c = quad_semiinfinite(
                lambda x, l=l: x ** (2 * l + 1) / (1.0 + x * x) ** (2 * l + 2))
            for res, key in ((res_g, "g"), (res_n, "norm"), (res_c, "coulomb")):
                assert abs(res.value - closed[key]) <= max(
                    1e-9, 10.0 * res.abs_error_estimate)
            # reduction chain and ratio chain
            assert abs(closed["norm"] - math.ldexp(closed["g"], -(2 * l + 1))) <= \
                1e-13 * closed["norm"]
            quotient = closed["coulomb"] / closed["norm"]
            anatomy = 1.0 / ((l + 0.5) * PI * wallis_ratio(l) ** 2)
            assert abs(quotient - anatomy) <= 1e-13 * quotient


def test_criterion_08_bounds():
    with criterion(8, "gamma-ratio sandwiches hold strictly on their grids"):
        for n in range(1, 1001):
            assert kazarinoff_bounds(n).satisfied
        n = 1
        while n <= 10**6:
            assert kazarinoff_bounds(n).satisfied
            n *= 3
        x = 0.2
        while x <= 1e5:
            assert quartic_root_bounds(x).satisfied
            x *= 1.5
        assert abs(wendel_deviation(1e6, 0.5)) < 1e-6


def test_criterion_09_oscillator():
    with criterion(9, "oscillator levels: exact for Gaussian, √-formula for Lorentz"):
        for l in range(0, 21):
            est = variational_energy(GAUSSIAN, OSC, l)
            assert abs(est.value - (l + 1.5)) <= 1e-12 * (l + 1.5)
        for l in range(0, 21, 5):
            numeric = variational_energy(GAUSSIAN, OSC, l, Method.NUMERIC)
            assert abs(numeric.value - (l + 1.5)) <= 1e-6 * (l + 1.5)
        for l in range(1, 21):
            closed = variational_energy(LORENTZ, OSC, l, Method.CLOSED_FORM)
            numeric = variational_energy(LORENTZ, OSC, l, Method.NUMERIC)
            assert abs(numeric.value - closed.value) <= 1e-6 * abs(closed.value)
        with pytest.raises(DivergenceError):
            variational_energy(LORENTZ, OSC, 0)


def test_criterion_10_mutation_sensitivity(monkeypatch):
    with criterion(10, "verify catches a perturbed partial-sum coefficient"):
        baseline = {r.name: r.passed for r in verify.run()}
        assert all(baseline.values())

        def perturbed(n):
            sa = scaled_a(n)
            return PartialSum(
                n_terms=n,
                value=4.0 * sa - 2.9 * (8.0 / (3.0 * PI)),
                closed_form_limit=4.0 - 8.0 / PI,
                tail_bound=4.0 * (1.0 - sa),
            )

        monkeypatch.setattr(wallis_series, "sum_a_recurrence", perturbed)
        mutated = {r.name: r for r in verify.run()}
        assert not mutated["sum-a-recurrence-vs-direct"].passed
        assert any(not r.passed for r in mutated.values())
