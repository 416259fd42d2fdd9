"""Named invariant suites behind the ``verify`` command.

Each check re-derives one of the library's cross-identities on a fixed grid
and reports pass/fail with a short detail string.  The ``relaxed`` profile
multiplies every relative tolerance by 100; strict-inequality checks
(monotonicity, sandwiches) are tolerance-free and run identically in both
profiles.

Checks resolve library functions through their modules at call time, so a
deliberately perturbed function (mutation testing) is picked up.  The term
tables a_1..a_10⁴, n²a_n (n <= 10⁴) and b_1..b_2000 per (m, k) are built
once per :func:`run`, which clears them on entry and exit, and shared by
the suites that read them.  The quadrature suite certifies the table of
closed forms that the ``integrals`` command prints, for l <= 15.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import gamma_kit as gk
from . import integral_kit as ik
from . import variational_engine as ve
from . import wallis_series as ws

__all__ = ["CheckResult", "CHECKS", "run"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0.0 else abs(x - ref)


def _wallis_products(n_max: int):
    """Yield (n, P_n) with a Neumaier-compensated running log sum."""
    s = c = 0.0
    for n in range(1, n_max + 1):
        t = math.log1p(1.0 / (4.0 * n * n - 1.0))
        tmp = s + t
        if abs(s) >= abs(t):
            c += (s - tmp) + t
        else:
            c += (t - tmp) + s
        s = tmp
        yield n, math.exp(s + c)


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

def _check_gamma_recurrence(scale):
    tol = 1e-13 * scale
    xs = _linspace(0.05, 1.0, 20) + _linspace(1.5, 100.0, 198)
    worst = max(_rel(gk.gamma_ratio(gk.GammaRatioQuery(x, 1.0, 0.0)), x) for x in xs)
    return worst <= tol, f"max rel dev {worst:.2e} (tol {tol:.0e})"


def _check_wallis_gamma_identity(scale):
    tol = 1e-12 * scale
    worst = 0.0
    for n in range(0, 10_001):
        prod = gk.wallis_ratio(n) * math.sqrt(math.pi) * gk.gamma_ratio(
            gk.GammaRatioQuery(float(n), 1.0, 0.5))
        worst = max(worst, abs(prod - 1.0))
    return worst <= tol, f"max |W_n·√π·Γ(n+1)/Γ(n+1/2) - 1| = {worst:.2e} (tol {tol:.0e})"


def _check_wallis_path_overlap(scale):
    tol = 1e-13 * scale
    worst = max(
        _rel(gk.wallis_ratio(n),
             gk.gamma_ratio(gk.GammaRatioQuery(float(n), 0.5, 1.0)) / math.sqrt(math.pi))
        for n in range(100, 151))
    return worst <= tol, f"max product/gamma path dev {worst:.2e} (tol {tol:.0e})"


def _check_kazarinoff(scale):
    ns = list(range(1, 1001)) + _log_int_grid(1, 10**6, 40)
    bad = [n for n in ns if not gk.kazarinoff_bounds(n).satisfied]
    return not bad, f"{len(ns)} points, violations: {bad[:5]}"


def _check_quartic(scale):
    xs = _logspace(0.2, 1e5, 40)
    bad = [x for x in xs if not gk.quartic_root_bounds(x).satisfied]
    return not bad, f"{len(xs)} points in [0.2, 1e5], violations: {bad[:5]}"


def _check_wendel(scale):
    for x in (1.0, 7.5, 1e3):
        if gk.wendel_deviation(x, 0.0) != 0.0 or gk.wendel_deviation(x, 1.0) != 0.0:
            return False, f"nonzero deviation at s in {{0,1}}, x = {x}"
    # gamma-free reference: the 2-term expansion, within 4.1e-8 relative for x >= 1e3
    tol = 1e-6 * scale
    worst = 0.0
    for s in (0.25, 0.3, 1.0 / 3.0, 0.5, 0.75, 0.9):
        for p in range(3, 13):
            x = 10.0 ** p
            ref = s * (s - 1.0) / (2.0 * x) * (1.0 + (s - 2.0) * (3.0 * s - 1.0) / (12.0 * x))
            worst = max(worst, _rel(gk.wendel_deviation(x, s), ref))
    return worst <= tol, f"max rel dev from 2-term expansion {worst:.2e} (tol {tol:.0e})"


def _check_stirling_asymptotic(scale):
    worst = 0.0
    for x in (100.0, 1e3, 1e4, 1e5, 1e6):
        for a in (0.0, 0.5, 1.0, 1.5, 2.0):
            for b in (0.0, 0.5, 1.0, 1.5, 2.0):
                dev = abs(gk.gamma_ratio(gk.GammaRatioQuery(x, a, b)) * x ** (b - a) - 1.0)
                if dev * x > worst:
                    worst = dev * x
                if dev >= 10.0 / x:
                    return False, f"|ratio·x^(b-a) - 1| = {dev:.2e} at x={x}, a={a}, b={b}"
    return True, f"max x·|ratio·x^(b-a) - 1| = {worst:.2f} (< 10)"


def _check_duplication(scale):
    tol = 1e-12 * scale
    worst = max(abs(gk.duplication_residual(l)) for l in range(0, 501))
    return worst <= tol, f"max |residual| = {worst:.2e} for l <= 500 (tol {tol:.0e})"


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


def _check_sum_a_paths(scale):
    tol = 1e-12 * scale
    a = _terms("a_seq")
    worst, worst_n = 0.0, 0
    for n in (1, 2, 3, 10, 100, 1000, 10_000):
        rec = ws.sum_a_recurrence(n).value
        direct = math.fsum(a[:n])  # bit-identical to ws.sum_a_direct(n)
        dev = _rel(rec, direct)
        if dev > worst:
            worst, worst_n = dev, n
    return worst <= tol, f"max rel dev {worst:.2e} at n = {worst_n} (tol {tol:.0e})"


def _check_a_recurrence(scale):
    tol = 1e-12 * scale
    a = [0.0] + _terms("a_seq")  # a[n] = a_n
    worst = max(_rel(4.0 * n * n * a[n], 4.0 * (n - 1.0) ** 2 * a[n - 1] + a[n])
                for n in range(2, _A_TERMS + 1))
    return worst <= tol, f"max rel dev {worst:.2e} for n <= 1e4 (tol {tol:.0e})"


def _check_b_recurrence(scale):
    tol = 1e-12 * scale
    worst = 0.0
    for m, k in _MK_GRID:
        c = 2.0 * (k - m) + 1.0
        b = [0.0] + _terms("b_seq", m, k)  # b[n] = b_n
        worst = max(worst, max(_rel(4.0 * (n + m) * (n + k) / c * b[n],
                                    4.0 * (n - 1.0 + m) * (n - 1.0 + k) / c * b[n - 1] + b[n])
                               for n in range(2, _B_TERMS + 1)))
    return worst <= tol, f"max rel dev {worst:.2e} over {len(_MK_GRID)} (m,k) pairs (tol {tol:.0e})"


def _check_scaled_a_product_identity(scale):
    tol = 1e-13 * scale
    worst = max(_rel(sa, 2.0 / math.pi * pn)
                for (_, pn), sa in zip(_wallis_products(_A_TERMS), _terms("scaled_a")))
    return worst <= tol, f"max rel dev {worst:.2e} for n <= 1e4 (tol {tol:.0e})"


def _check_partial_sum_sandwich(scale):
    for n in _log_int_grid(1, 10**6, 40):
        gap = 1.0 - ws.scaled_a(n)
        if not (0.0 < gap < 1.0 / (4.0 * n + 2.0)):
            return False, f"0 < 1 - n²a_n < 1/(4n+2) fails at n = {n} (gap {gap:.3e})"
    return True, "strict on log grid n in [1, 1e6]"


def _check_monotonicity(scale):
    prev_p = 0.0
    for n, pn in _wallis_products(2000):
        if not (prev_p < pn < math.pi / 2.0):
            return False, f"P_n not strictly increasing below π/2 at n = {n}"
        prev_p = pn
    a_prev, s_prev = math.inf, 0.0
    for n, a, s in zip(range(1, 2001), _terms("a_seq"), _terms("scaled_a")):
        if not a < a_prev:
            return False, f"a_n not strictly decreasing at n = {n}"
        if not s > s_prev:
            return False, f"n²a_n not strictly increasing at n = {n}"
        a_prev, s_prev = a, s
    return True, "P_n up, a_n down, n²a_n up for n <= 2000"


def _check_sum_b_paths(scale):
    tol = 1e-10 * scale
    worst = 0.0
    for m, k in _MK_GRID:
        p = ws.GeneralizedParams(m, k)
        part = ws.sum_b_partial(p, _B_TERMS)
        direct = math.fsum(_terms("b_seq", m, k))
        worst = max(worst, _rel(part.value, direct))
        residual = ws.sum_b_closed(p) - part.value
        if not 0.0 < residual <= part.tail_bound:
            return False, f"residual {residual:.3e} outside (0, tail {part.tail_bound:.3e}] at (m,k)=({m},{k})"
    return worst <= tol, f"max rel dev vs direct {worst:.2e} (tol {tol:.0e})"


# --- integral_kit -----------------------------------------------------------

def _check_gaussian_moment_recurrence(scale):
    tol = 1e-14 * scale
    worst = max(_rel(ik.gaussian_moment(m), 0.5 * (m - 1) * ik.gaussian_moment(m - 2))
                for m in range(2, 61))
    return worst <= tol, f"max rel dev {worst:.2e} for m in [2, 60] (tol {tol:.0e})"


def _check_g_rational_wallis(scale):
    tol = 1e-12 * scale
    worst = max(_rel(ik.G_rational(l), math.pi / 2.0 * gk.wallis_ratio(l))
                for l in range(0, 301))
    return worst <= tol, f"max rel dev {worst:.2e} for l in [0, 300] (tol {tol:.0e})"


def _check_quadrature_closed_forms(scale):
    cases = list(ik._certified_integrals(15, 1e-10, scale))
    for label, idx, closed, quad, _, _, passed in cases:
        if not passed:
            return False, f"{label} {idx}: closed form {closed:.6e} vs quadrature {quad:.6e}"
    worst = max(dev for *_, dev, _ in cases)
    return True, f"{len(cases)} integrals, max |closed - quad| = {worst:.2e}"


def _check_substitution_identity(scale):
    tol = 1e-13 * scale
    worst = 0.0
    for m in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0):
        for n in (1.0, 2.0, 3.5, 5.0, 8.0):
            if 2.0 * n - m <= 1.0:
                continue
            q = ik.RationalMomentQuery(m, n)
            worst = max(worst, _rel(ik.rational_moment(q),
                                    ik.beta_trig_integral((m + 1.0) / 2.0, n - (m + 1.0) / 2.0)))
    return worst <= tol, f"max rel dev {worst:.2e} (tol {tol:.0e})"


def _check_norm_chain(scale):
    tol = 1e-13 * scale
    worst = max(_rel(ik.lorentz_norm_integral(l), math.ldexp(ik.G_rational(l), -(2 * l + 1)))
                for l in range(0, 101))
    return worst <= tol, f"max rel dev {worst:.2e} for l in [0, 100] (tol {tol:.0e})"


def _check_coulomb_chain(scale):
    tol = 1e-13 * scale
    worst = 0.0
    for l in range(0, 85):
        dup_form = math.ldexp(
            math.sqrt(math.pi) * math.exp(gk._log_gamma_ratio(l, 1.0, 1.5)), -(2 * l + 2))
        worst = max(worst, _rel(ik.lorentz_coulomb_integral(l), dup_form))
    for l in range(0, 41):
        worst = max(worst, _rel(ik.coulomb_to_norm_ratio(l),
                                ik.lorentz_coulomb_integral(l) / ik.lorentz_norm_integral(l)))
    return worst <= tol, f"max rel dev {worst:.2e} (tol {tol:.0e})"


# --- variational_engine ------------------------------------------------------

_COMBOS = [
    (ve.Family.GAUSSIAN, ve.Potential.COULOMB),
    (ve.Family.GAUSSIAN, ve.Potential.HARMONIC_OSCILLATOR),
    (ve.Family.LORENTZ, ve.Potential.COULOMB),
    (ve.Family.LORENTZ, ve.Potential.HARMONIC_OSCILLATOR),
]


def _l_values(family, pot, ls):
    lorentz_osc = family is ve.Family.LORENTZ and pot is ve.Potential.HARMONIC_OSCILLATOR
    return [l for l in ls if l >= 1 or not lorentz_osc]


def _check_variational_upper_bound(scale):
    for family, pot in _COMBOS:
        for l in _l_values(family, pot, [0, 1, 2, 3, 5, 8, 13, 20, 35, 50]):
            exact = ve.exact_energy(pot, l)
            p_star = ve.optimal_param_closed(family, pot, l)
            for factor in _logspace(0.01, 100.0, 9):
                e = ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star * factor), pot)
                at_exact_min = (family is ve.Family.GAUSSIAN
                                and pot is ve.Potential.HARMONIC_OSCILLATOR
                                and factor == 1.0)
                if at_exact_min:
                    if e != exact:
                        return False, f"Gaussian-oscillator optimum not exact at l = {l}"
                elif not e > exact:
                    return False, (f"⟨H⟩ = {e} not above exact {exact} at "
                                   f"({family.value}, {pot.value}, l={l}, ×{factor:.2g})")
    return True, "strict upper bound on ×10^±2 parameter grids, l <= 50"


def _check_stationarity(scale):
    tol = 1e-6 * scale
    worst = 0.0
    for family, pot in _COMBOS:
        for l in _l_values(family, pot, [0, 1, 2, 5, 10, 20]):
            p_star = ve.optimal_param_closed(family, pot, l)
            e_star = ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star), pot)
            h = 1e-6 * p_star
            deriv = (ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star + h), pot)
                     - ve.expectation_energy_closed(ve.TrialSpec(family, l, p_star - h), pot)) / (2.0 * h)
            worst = max(worst, abs(deriv * p_star / e_star))
    return worst <= tol, f"max |dE/dlog p|/|E| = {worst:.2e} at optimum (tol {tol:.0e})"


def _check_ratio_wallis_linkage(scale):
    tol = 1e-12 * scale
    marks = {l + 1: None for l in [0, 1, 2, 3, 5, 8, 13, 20, 50, 100, 1000, 10_000]}
    worst = 0.0
    for n, pn in _wallis_products(10_001):
        if n in marks:
            ratio = ve.variational_energy(ve.Family.GAUSSIAN, ve.Potential.COULOMB,
                                          n - 1).ratio_to_exact
            worst = max(worst, abs(ratio - 2.0 / math.pi * pn))
    return worst <= tol, f"max |ratio - (2/π)P_(l+1)| = {worst:.2e} (tol {tol:.0e})"


def _check_lorentz_ratio_identity(scale):
    tol = 1e-12 * scale
    worst = 0.0
    for l in [0, 1, 2, 3, 5, 8, 13, 20, 50, 100, 1000, 10_000]:
        n = l + 1.0
        ratio = ve.variational_energy(ve.Family.LORENTZ, ve.Potential.COULOMB,
                                      l).ratio_to_exact
        ident = (n - 0.5) * (n + 0.5) ** 2 / n ** 3 * ws.scaled_a(l + 1) ** 2
        worst = max(worst, abs(ratio - ident))
    return worst <= tol, f"max identity dev {worst:.2e} (tol {tol:.0e})"


def _check_oscillator_ratio_window(scale):
    prev = math.inf
    for l in range(2, 1001):
        r2 = (l + 1.0) * (l + 0.5) / ((l + 1.5) * (l - 0.5))
        if not (1.0 < r2 < 1.0 + 3.0 / l and r2 < prev):
            return False, f"ratio² window fails at l = {l} (value {r2})"
        prev = r2
    return True, "ratio² in (1, 1+3/l) and decreasing for l in [2, 1000]"


def _check_numeric_path_spot(scale):
    tol = 1e-6 * scale
    worst = 0.0
    for family, pot, l in [
        (ve.Family.GAUSSIAN, ve.Potential.COULOMB, 2),
        (ve.Family.LORENTZ, ve.Potential.HARMONIC_OSCILLATOR, 1),
    ]:
        closed = ve.variational_energy(family, pot, l, ve.Method.CLOSED_FORM).value
        numeric = ve.variational_energy(family, pot, l, ve.Method.NUMERIC).value
        worst = max(worst, _rel(numeric, closed))
    return worst <= tol, f"max numeric/closed rel dev {worst:.2e} (tol {tol:.0e})"


CHECKS = [
    ("gamma-recurrence-ratio", _check_gamma_recurrence),
    ("wallis-ratio-gamma-identity", _check_wallis_gamma_identity),
    ("wallis-ratio-path-overlap", _check_wallis_path_overlap),
    ("kazarinoff-sandwich", _check_kazarinoff),
    ("quartic-root-sandwich", _check_quartic),
    ("wendel-limit", _check_wendel),
    ("stirling-ratio-asymptotic", _check_stirling_asymptotic),
    ("duplication-residual", _check_duplication),
    ("sum-a-recurrence-vs-direct", _check_sum_a_paths),
    ("a-recurrence-identity", _check_a_recurrence),
    ("b-recurrence-identity", _check_b_recurrence),
    ("scaled-a-wallis-product-identity", _check_scaled_a_product_identity),
    ("partial-sum-sandwich", _check_partial_sum_sandwich),
    ("sequence-monotonicity", _check_monotonicity),
    ("sum-b-recurrence-vs-direct", _check_sum_b_paths),
    ("gaussian-moment-recurrence", _check_gaussian_moment_recurrence),
    ("rational-integral-wallis-identity", _check_g_rational_wallis),
    ("quadrature-certifies-closed-forms", _check_quadrature_closed_forms),
    ("tangent-substitution-identity", _check_substitution_identity),
    ("lorentz-norm-reduction-chain", _check_norm_chain),
    ("lorentz-coulomb-duplication-chain", _check_coulomb_chain),
    ("variational-upper-bound", _check_variational_upper_bound),
    ("stationarity-at-optimum", _check_stationarity),
    ("gaussian-ratio-wallis-linkage", _check_ratio_wallis_linkage),
    ("lorentz-ratio-identity", _check_lorentz_ratio_identity),
    ("oscillator-ratio-window", _check_oscillator_ratio_window),
    ("numeric-path-agreement", _check_numeric_path_spot),
]

_PROFILES = {"strict": 1.0, "relaxed": 100.0}


def run(profile: str = "strict") -> list[CheckResult]:
    """Run every invariant check; returns one result per check."""
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(_PROFILES)}")
    scale = _PROFILES[profile]
    _terms.cache_clear()
    results = []
    try:
        for name, fn in CHECKS:
            try:
                passed, detail = fn(scale)
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(name=name, passed=passed, detail=detail))
    finally:
        _terms.cache_clear()
    return results
