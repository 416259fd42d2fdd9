"""Named invariant claims behind the ``verify`` command.

The claims are one table, ``_CLAIMS``: a suite's name, tolerance, detail
template and measure.  Most measures are a :class:`_Gap`, the worst relative
or absolute gap between two named evaluation paths over a grid, so the table
shows which two paths each claim compares.  The others compute a deviation
of their own or apply a strict rule (sandwiches, monotonicity, the upper
bound), which has no tolerance and raises :class:`_Violation` when it fails.
:func:`run` judges every claim, formats the detail and reports the
measured worst deviation and its tolerance.

Paths resolve library functions through their modules at call time, so a
deliberately perturbed function (mutation testing) is picked up.  The term
tables a_1..a_10⁴, n²a_n (n <= 10⁴), b_1..b_2000 per (m, k) and the Wallis
products P_1..P_10001 are built once per :func:`run`, which clears them on
entry and exit; they reach the paths as fields of the grid points.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, NamedTuple

from . import gamma_kit as gk
from . import integral_kit as ik
from . import variational_engine as ve
from . import wallis_series as ws

__all__ = ["CheckResult", "CHECKS", "run"]


class CheckResult(NamedTuple):
    """One claim's verdict; measured and tolerance are None for a claim
    judged by a strict rule of its own."""

    name: str
    passed: bool
    detail: str
    measured: float | None = None
    tolerance: float | None = None


class _Violation(Exception):
    """A strict rule failed; the message is the claim's detail."""


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0.0 else abs(x - ref)


def _abs(x: float, ref: float) -> float:
    return abs(x - ref)


class _Gap(NamedTuple):
    """(worst, at): the worst gap(path(*p), other(*p)) over the points p of
    grid(), built at call time, and the first point at which it occurs (a
    nan is the worst).  A point that is not a tuple is the paths' one
    argument."""

    path: Callable
    other: Callable
    grid: Callable[[], Iterable]
    gap: Callable[[float, float], float] = _rel

    def __call__(self):
        path, other, gap = self.path, self.other, self.gap
        worst, at = 0.0, None
        for p in self.grid():
            dev = gap(path(*p), other(*p)) if type(p) is tuple else gap(path(p), other(p))
            if dev > worst or dev != dev:
                worst, at = dev, p
        return worst, at


class _Chain(tuple):
    """The _Gap links of a chain of identities; its worst link is its measure."""

    def __call__(self):
        return max((link() for link in self),
                   key=lambda r: r[0] if r[0] == r[0] else math.inf)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """count evenly spaced points from lo to hi, with numpy.linspace's flops."""
    step = (hi - lo) / (count - 1)
    xs = [i * step + lo for i in range(count)]
    xs[-1] = hi
    return xs


def _logspace(lo: float, hi: float, count: int) -> list[float]:
    """count points from lo to hi, both exact, evenly spaced in log10."""
    xs = [10.0 ** y for y in _linspace(math.log10(lo), math.log10(hi), count)]
    xs[0], xs[-1] = lo, hi
    return xs


def _log_int_grid(lo: int, hi: int, count: int) -> list[int]:
    return sorted(set(int(round(v)) for v in _logspace(lo, hi, count)))


# --- gamma_kit ------------------------------------------------------------

def _sandwich(points: list, holds: Callable, where: str = "") -> int:
    """len(points), or _Violation naming the first five where holds fails."""
    bad = [p for p in points if not holds(p)]
    if bad:
        raise _Violation(f"{len(points)} points{where}, violations: {bad[:5]}")
    return len(points)


def _wendel_grid() -> list[tuple[float, float]]:
    """(x, s) on x = 10^3..10^12, after checking that the deviation vanishes
    exactly at s = 0 and s = 1."""
    for x in (1.0, 7.5, 1e3):
        if gk.wendel_deviation(x, 0.0) != 0.0 or gk.wendel_deviation(x, 1.0) != 0.0:
            raise _Violation(f"nonzero deviation at s in {{0,1}}, x = {x}")
    return [(10.0 ** p, s) for s in (0.25, 0.3, 1.0 / 3.0, 0.5, 0.75, 0.9) for p in range(3, 13)]


def _stirling_asymptotic() -> float:
    worst = 0.0
    halves = (0.0, 0.5, 1.0, 1.5, 2.0)
    for x, a, b in itertools.product((100.0, 1e3, 1e4, 1e5, 1e6), halves, halves):
        dev = abs(gk.gamma_ratio(gk.GammaRatioQuery(x, a, b)) * x ** (b - a) - 1.0)
        worst = max(worst, dev * x)
        if dev >= 10.0 / x:
            raise _Violation(f"|ratio·x^(b-a) - 1| = {dev:.2e} at x={x}, a={a}, b={b}")
    return worst


# --- wallis_series ---------------------------------------------------------

_A_TERMS = 10_000
_B_TERMS = 2000
_MK_GRID = [(m, k) for m in (-0.4, 0.0, 0.5, 1.0, 2.3) for k in (-0.4, 0.0, 0.5, 1.0, 2.3)
            if 2.0 * (k - m) + 1.0 != 0.0]


@functools.cache
def _terms(name: str, *shifts: float) -> list[float]:
    """[t_1, ..., t_N] of ws.<name>: N = 10⁴ for a_seq and scaled_a, 2000 for
    b_seq at the shifts (m, k).  run() clears this cache on entry and exit,
    so each table is built once per run."""
    seq = getattr(ws, name)
    if shifts:
        seq = functools.partial(seq, ws.GeneralizedParams(*shifts))
    return [seq(n) for n in range(1, (_B_TERMS if shifts else _A_TERMS) + 1)]


def _wallis_log_terms(lo: int, hi: int) -> list[float]:
    return [math.log1p(1.0 / (4.0 * j * j - 1.0)) for j in range(lo, hi)]


@functools.cache
def _wallis_products() -> list[float]:
    """[P_1, ..., P_10001], each exp of the exact sum of its own math.log1p
    terms, from one ws._prefix_fsums sweep: independent of numpy's log1p
    and of the gamma path.  run() clears it with _terms."""
    ns = list(range(1, _A_TERMS + 2))
    return [math.exp(s) for s in ws._prefix_fsums(_wallis_log_terms, ns)]


def _b_steps():
    """(n, m, k, 2(k-m)+1, b_(n-1), b_n) for n in [2, 2000] at each (m, k)."""
    for m, k in _MK_GRID:
        c = 2.0 * (k - m) + 1.0
        b = _terms("b_seq", m, k)
        yield from ((n, m, k, c, b[n - 2], b[n - 1]) for n in range(2, _B_TERMS + 1))


def _sum_b_telescoped(m: float, k: float) -> float:
    """sum_b_partial at n = 2000, whose residual to the closed form must lie
    in (0, tail bound]."""
    p = ws.GeneralizedParams(m, k)
    part = ws.sum_b_partial(p, _B_TERMS)
    residual = ws.sum_b_closed(p) - part.value
    if not 0.0 < residual <= part.tail_bound:
        raise _Violation(f"residual {residual:.3e} outside (0, tail {part.tail_bound:.3e}] "
                         f"at (m,k)=({m},{k})")
    return part.value


def _partial_sum_sandwich() -> None:
    for n in _log_int_grid(1, 10**6, 40):
        gap = 1.0 - ws.scaled_a(n)
        if not (0.0 < gap < 1.0 / (4.0 * n + 2.0)):
            raise _Violation(f"0 < 1 - n²a_n < 1/(4n+2) fails at n = {n} (gap {gap:.3e})")


def _monotonicity() -> None:
    prev_p = 0.0
    for n, pn in zip(range(1, 2001), _wallis_products()):
        if not (prev_p < pn < math.pi / 2.0):
            raise _Violation(f"P_n not strictly increasing below π/2 at n = {n}")
        prev_p = pn
    a_prev, s_prev = math.inf, 0.0
    for n, a, s in zip(range(1, 2001), _terms("a_seq"), _terms("scaled_a")):
        if not a < a_prev:
            raise _Violation(f"a_n not strictly decreasing at n = {n}")
        if not s > s_prev:
            raise _Violation(f"n²a_n not strictly increasing at n = {n}")
        a_prev, s_prev = a, s


# --- integral_kit -----------------------------------------------------------

def _quadrature() -> tuple[int, float]:
    """(cases, worst |closed - quad|) of the integral table at l <= 15."""
    cases = list(ik._certified_integrals(15))
    for label, idx, closed, quad, _, _, passed in cases:
        if not passed:
            raise _Violation(f"{label} {idx}: closed form {closed:.6e} vs quadrature {quad:.6e}")
    return len(cases), max(dev for *_, dev, _ in cases)


def _beta_by_factorials(m: float, n: float) -> float:
    """beta_trig_integral((m+1)/2, n-(m+1)/2) for integer m and 2n, from
    Γ(j/2) = 2·gaussian_moment(j-1): exact factorials, no lgamma."""
    gm = ik.gaussian_moment
    return gm(m) * gm(2.0 * n - m - 2.0) / gm(2.0 * n - 1.0)


# --- variational_engine ------------------------------------------------------

_COMBOS = list(itertools.product(ve.Family, ve.Potential))
_GC, _GO, _LC, _LO = _COMBOS  # (family, potential): Gaussian/Lorentz, Coulomb/oscillator
_RATIO_LS = (0, 1, 2, 3, 5, 8, 13, 20, 50, 100, 1000, 10_000)


def _l_values(family, pot, ls):
    return [l for l in ls if l >= ve._l_min(family, pot)]


def _variational_upper_bound() -> None:
    for family, pot in _COMBOS:
        for l in _l_values(family, pot, [0, 1, 2, 3, 5, 8, 13, 20, 35, 50]):
            exact = ve.exact_energy(pot, l)
            p_star = ve.optimal_param_closed(family, pot, l)
            for factor in _logspace(0.01, 100.0, 9):
                e = ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star * factor), pot)
                if (family, pot) == _GO and factor == 1.0:
                    if e != exact:
                        raise _Violation(f"Gaussian-oscillator optimum not exact at l = {l}")
                elif not e > exact:
                    raise _Violation(f"⟨H⟩ = {e} not above exact {exact} at "
                                     f"({family.value}, {pot.value}, l={l}, ×{factor:.2g})")


def _stationarity() -> float:
    worst = 0.0
    for family, pot in _COMBOS:
        for l in _l_values(family, pot, [0, 1, 2, 5, 10, 20]):
            p_star = ve.optimal_param_closed(family, pot, l)
            e_star = ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star), pot)
            h = 1e-6 * p_star
            deriv = (ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star + h), pot)
                     - ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star - h), pot)) / (2.0 * h)
            worst = max(worst, abs(deriv * p_star / e_star))
    return worst


def _oscillator_ratio_window() -> None:
    prev = math.inf
    for l in range(2, 1001):
        r2 = ve.variational_energy(*_LO, l).ratio_to_exact ** 2
        if not (1.0 < r2 < 1.0 + 3.0 / l and r2 < prev):
            raise _Violation(f"ratio² window fails at l = {l} (value {r2})")
        prev = r2


# --- the claims ---------------------------------------------------------------

class Claim(NamedTuple):
    """One verify suite.  measure() returns the template's fields, led by the
    worst deviation if tol is set (None: a strict rule of its own)."""

    name: str
    tol: float | None
    template: str
    measure: Callable


_MAX_REL = "max rel dev {0:.2e} (tol {tol:.0e})"

_CLAIMS = {c.name: c for c in [
    Claim("gamma-recurrence-ratio", 1e-13, _MAX_REL, _Gap(
        lambda x: gk.gamma_ratio(gk.GammaRatioQuery(x, 1.0, 0.0)),
        lambda x: x,
        lambda: _linspace(0.05, 1.0, 20) + _linspace(1.5, 100.0, 198))),
    Claim("wallis-ratio-gamma-identity", 1e-12,
          "max |W_n·√π·Γ(n+1)/Γ(n+1/2) - 1| = {0:.2e} (tol {tol:.0e})", _Gap(
              # W_n = 1/√((2n+1)·P_n), since P_n·W_n² = 1/(2n+1): the product
              # path at every n, independent of the gamma kernel
              lambda n, pn: math.sqrt(math.pi) * gk.gamma_ratio(
                  gk.GammaRatioQuery(float(n), 1.0, 0.5)) / math.sqrt((2.0 * n + 1.0) * pn),
              lambda n, pn: 1.0,
              lambda: zip(range(0, 10_001), [1.0] + _wallis_products()), _abs)),
    Claim("wallis-ratio-path-overlap", 1e-13,
          "max product/gamma path dev {0:.2e} (tol {tol:.0e})", _Gap(
              lambda n: gk.wallis_ratio(n),
              lambda n: gk.gamma_ratio(gk.GammaRatioQuery(float(n), 0.5, 1.0)) / math.sqrt(math.pi),
              lambda: range(100, 151))),
    Claim("kazarinoff-sandwich", None, "{0} points, violations: []", lambda: _sandwich(
        list(range(1, 1001)) + _log_int_grid(1, 10**6, 40),
        lambda n: gk.kazarinoff_bounds(n).satisfied)),
    Claim("quartic-root-sandwich", None, "{0} points in [0.2, 1e5], violations: []",
          lambda: _sandwich(_logspace(0.2, 1e5, 40),
                            lambda x: gk.quartic_root_bounds(x).satisfied, " in [0.2, 1e5]")),
    Claim("wendel-limit", 1e-6, "max rel dev from 2-term expansion {0:.2e} (tol {tol:.0e})",
          _Gap(lambda x, s: gk.wendel_deviation(x, s),
               # gamma-free: the 2-term expansion, within 4.1e-8 relative for x >= 1e3
               lambda x, s: (s * (s - 1.0) / (2.0 * x)
                             * (1.0 + (s - 2.0) * (3.0 * s - 1.0) / (12.0 * x))),
               _wendel_grid)),
    Claim("stirling-ratio-asymptotic", None,
          "max x·|ratio·x^(b-a) - 1| = {0:.2f} (< 10)", _stirling_asymptotic),
    Claim("duplication-residual", 1e-12, "max |residual| = {0:.2e} for l <= 500 (tol {tol:.0e})",
          lambda: max(abs(gk.duplication_residual(l)) for l in range(0, 501))),
    Claim("sum-a-recurrence-vs-direct", 1e-12, "max rel dev {0:.2e} at n = {1} (tol {tol:.0e})",
          _Gap(lambda n: ws.sum_a_recurrence(n).value,
               lambda n: math.fsum(_terms("a_seq")[:n]),  # bit-identical to ws.sum_a_direct(n)
               lambda: (1, 2, 3, 10, 100, 1000, 10_000))),
    Claim("a-recurrence-identity", 1e-12, "max rel dev {0:.2e} for n <= 1e4 (tol {tol:.0e})", _Gap(
        lambda n, a_prev, a_n: 4.0 * n * n * a_n,
        lambda n, a_prev, a_n: 4.0 * (n - 1.0) ** 2 * a_prev + a_n,
        lambda: zip(range(2, _A_TERMS + 1), _terms("a_seq"), _terms("a_seq")[1:]))),
    Claim("b-recurrence-identity", 1e-12,
          f"max rel dev {{0:.2e}} over {len(_MK_GRID)} (m,k) pairs (tol {{tol:.0e}})", _Gap(
              lambda n, m, k, c, b_prev, b_n: 4.0 * (n + m) * (n + k) / c * b_n,
              lambda n, m, k, c, b_prev, b_n: 4.0 * (n - 1.0 + m) * (n - 1.0 + k) / c * b_prev + b_n,
              _b_steps)),
    Claim("scaled-a-wallis-product-identity", 1e-13,
          "max rel dev {0:.2e} for n <= 1e4 (tol {tol:.0e})", _Gap(
              lambda sa, pn: sa,
              lambda sa, pn: 2.0 / math.pi * pn,
              lambda: zip(_terms("scaled_a"), _wallis_products()))),
    Claim("partial-sum-sandwich", None, "strict on log grid n in [1, 1e6]", _partial_sum_sandwich),
    Claim("sequence-monotonicity", None, "P_n up, a_n down, n²a_n up for n <= 2000", _monotonicity),
    Claim("sum-b-recurrence-vs-direct", 1e-10, "max rel dev vs direct {0:.2e} (tol {tol:.0e})",
          _Gap(_sum_b_telescoped, lambda m, k: math.fsum(_terms("b_seq", m, k)), lambda: _MK_GRID)),
    Claim("gaussian-moment-recurrence", 1e-14, "max rel dev {0:.2e} for m in [2, 60] (tol {tol:.0e})",
          _Gap(lambda m: ik.gaussian_moment(m),
               lambda m: 0.5 * (m - 1) * ik.gaussian_moment(m - 2),
               lambda: range(2, 61))),
    Claim("rational-integral-wallis-identity", 1e-12,
          "max rel dev {0:.2e} for l in [0, 300] (tol {tol:.0e})", _Gap(
              lambda l: ik.G_rational(l),
              lambda l: math.pi / 2.0 * gk.wallis_ratio(l),
              lambda: range(0, 301))),
    Claim("quadrature-certifies-closed-forms", None,
          "{0} integrals, max |closed - quad| = {1:.2e}", _quadrature),
    Claim("tangent-substitution-identity", 1e-13, _MAX_REL, _Gap(
        lambda m, n: ik.rational_moment(ik.RationalMomentQuery(m, n)),
        _beta_by_factorials,
        lambda: [(m, n) for m in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0) for n in (1.0, 2.0, 3.5, 5.0, 8.0)
                 if 2.0 * n - m > 1.0])),
    Claim("lorentz-norm-reduction-chain", 1e-13,
          "max rel dev {0:.2e} for l in [0, 100] (tol {tol:.0e})", _Gap(
              lambda l: ik.lorentz_norm_integral(l),
              lambda l: math.ldexp(ik.G_rational(l), -(2 * l + 1)),
              lambda: range(0, 101))),
    Claim("lorentz-coulomb-duplication-chain", 1e-13, _MAX_REL, _Chain([
        _Gap(lambda l: ik.lorentz_coulomb_integral(l),
             lambda l: math.ldexp(math.sqrt(math.pi) * math.exp(gk._log_gamma_ratio(l, 1.0, 1.5)),
                                  -(2 * l + 2)),
             lambda: list(range(0, 85)) + _log_int_grid(85, 508, 20)),
        _Gap(lambda l: ik.coulomb_to_norm_ratio(l),
             lambda l: ik.lorentz_coulomb_integral(l) / ik.lorentz_norm_integral(l),
             lambda: range(0, 41)),
    ])),
    Claim("variational-upper-bound", None,
          "strict upper bound on ×10^±2 parameter grids, l <= 50", _variational_upper_bound),
    Claim("stationarity-at-optimum", 1e-6,
          "max |dE/dlog p|/|E| = {0:.2e} at optimum (tol {tol:.0e})", _stationarity),
    Claim("gaussian-ratio-wallis-linkage", 1e-12,
          "max |ratio - (2/π)P_(l+1)| = {0:.2e} (tol {tol:.0e})", _Gap(
              lambda l, pn: ve.variational_energy(*_GC, l).ratio_to_exact,
              lambda l, pn: 2.0 / math.pi * pn,
              lambda: [(l, _wallis_products()[l]) for l in _RATIO_LS],
              _abs)),
    Claim("lorentz-ratio-identity", 1e-12, "max identity dev {0:.2e} (tol {tol:.0e})", _Gap(
        lambda l: ve.variational_energy(*_LC, l).ratio_to_exact,
        # (n-1/2)(n+1/2)²/n³·(n²a_n)² at n = l+1
        lambda l: (l + 0.5) * (l + 1.5) ** 2 / (l + 1.0) ** 3 * ws.scaled_a(l + 1) ** 2,
        lambda: _RATIO_LS, _abs)),
    Claim("oscillator-ratio-window", None,
          "ratio² in (1, 1+3/l) and decreasing for l in [2, 1000]", _oscillator_ratio_window),
    # eight levels of each (family, potential), up to the orbital limit
    # l = 10²⁴ of both methods, the same moment algebra on quadrature and on
    # closed moment ratios.  Against 50 digits (every l < 400, 10⁴ log-uniform
    # draws up to 10²⁴) the closed levels are within 2.2e-14 (Lorentz-Coulomb,
    # W_l⁴ with W_l's gamma form past l = 150) and the numeric ones 4.5e-15,
    # so the paths differ by 2.7e-14 at most: 5e-14 is about twice that
    Claim("numeric-path-agreement", 5e-14, "max numeric/closed rel dev {0:.2e} (tol {tol:.0e})", _Gap(
        lambda family, pot, l: ve.variational_energy(family, pot, l, ve.Method.NUMERIC).value,
        lambda family, pot, l: ve.variational_energy(family, pot, l, ve.Method.CLOSED_FORM).value,
        lambda: [(*combo, l) for combo in _COMBOS for l in (2, 20, 100, 500, 10**3, 10**6, 10**12, 10**24)])),
]}

# (name, measure) in suite order; run() reads it at call time, so a wrapped
# or replaced measure is what runs
CHECKS = [(name, claim.measure) for name, claim in _CLAIMS.items()]


def _judge(claim: Claim, measure: Callable) -> CheckResult:
    tol = claim.tol
    try:
        out = measure()
        fields = out if isinstance(out, tuple) else (out,)
        measured = None if tol is None else fields[0]
        return CheckResult(claim.name, tol is None or measured <= tol,
                           claim.template.format(*fields, tol=tol), measured, tol)
    except _Violation as exc:
        detail = str(exc)
    except Exception as exc:  # a crashed check is a failed check
        detail = f"raised {type(exc).__name__}: {exc}"
    return CheckResult(claim.name, False, detail, tolerance=tol)


def run() -> list[CheckResult]:
    """Run every claim of CHECKS; returns one result per claim."""
    _clear_tables()
    try:
        return [_judge(_CLAIMS[name], measure) for name, measure in CHECKS]
    finally:
        _clear_tables()


def _clear_tables() -> None:
    _terms.cache_clear()
    _wallis_products.cache_clear()
