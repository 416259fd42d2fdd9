"""Seeded inputs, operations and output checks for the three workloads.

Inputs come in *passes*.  A pass is a batch of operations drawn from one
``random.Random(seed)`` stream, with each input dimension stratified (one
draw per equal-probability stratum, then shuffled), so every pass covers
the whole documented domain with nearly the same cost while no two passes
repeat an input.  A measuring run repeats the seed's first pass round after
round; a traced run replays a fixed number of passes.  The program only
ever sees the generated arguments.

series   single calls into gamma_kit and wallis_series, each checked against
         the library's second path at the stated tolerance.
levels   numeric variational levels (quadrature + golden section), checked
         against the closed-form level to 1e-6 relative.
cli      one fresh ``python -m wallisqm.cli`` per README invocation, with
         seeded grids; exit 0, no traceback, and a table that parses back
         with the expected row count.

Failed checks are counted, never skipped.  ``known_defect`` names, by their
inputs, the program faults present at the commit that introduced this
benchmark, left standing for a library fix.  Operations drawn inside one of
them are split off the timed loop (``split_known_faults``) and run once,
untimed, so each run reports how many of them still give a wrong value while
the timed operations are ones on which the program is expected to be right:
any failure among those, and any failure other than a wrong value among the
split-off ones, makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WORKLOADS = ("series", "levels", "cli")

SERIES_KINDS = ("wallis", "sum_a", "sum_b", "kazarinoff", "quartic", "wendel")
SERIES_PER_KIND = 200          # 1200 operations per pass, about 2 s
SUM_TOL = 1e-10                # telescoped vs direct partial sums, relative
LEVEL_TOL = 1e-6               # numeric vs closed variational level, relative

# wallisqm.cli's exit codes: a printed table with a failed check, and success
EXIT_OK, EXIT_VERIFICATION_FAILURE = 0, 1

# Operations traced per workload: a fixed amount of work, so the per-layer
# counts are exact and the totals compare across commits.
TRACE_PASSES = {"series": 4, "levels": 2, "cli": 2}


# ---------------------------------------------------------------------------
# stratified draws
# ---------------------------------------------------------------------------

def _unit(rng: random.Random) -> float:
    """Uniform draw strictly inside (0, 1)."""
    r = rng.random()
    while r == 0.0:
        r = rng.random()
    return r


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw strictly inside each of ``count`` equal strata of
    (0, 1), in shuffled order."""
    out = [(i + _unit(rng)) / count for i in range(count)]
    rng.shuffle(out)
    return out


def _log_int(u: float, lo: int, hi: int) -> int:
    """Integer log-uniform in [lo, hi]."""
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


def _log_real(u: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, lo * (hi / lo) ** u))


def _uniform_int(u: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(u * (hi - lo + 1)))


def _open(u: float, lo: float, hi: float) -> float:
    """Uniform in the open interval (lo, hi); u is strictly inside (0, 1)."""
    v = lo + (hi - lo) * u
    return v if lo < v < hi else 0.5 * (lo + hi)


def _mk(um: float, uk: float) -> tuple[float, float]:
    """(m, k) uniform in (-1, 3)²; the one excluded line k - m = -1/2 of
    GeneralizedParams is hit only by an exact float tie."""
    m, k = _open(um, -1.0, 3.0), _open(uk, -1.0, 3.0)
    if 2.0 * (k - m) + 1.0 == 0.0:
        k = math.nextafter(k, 3.0)
    return m, k


# ---------------------------------------------------------------------------
# pass generators: the same rng state gives the same pass
# ---------------------------------------------------------------------------

def series_pass(rng: random.Random) -> list[tuple]:
    ops: list[tuple] = []
    for u in _strata(rng, SERIES_PER_KIND):
        ops.append(("wallis", _log_int(u, 1, 10**6)))
    for u in _strata(rng, SERIES_PER_KIND):
        ops.append(("sum_a", _log_int(u, 1, 10**4)))
    for um, uk, un in zip(_strata(rng, SERIES_PER_KIND), _strata(rng, SERIES_PER_KIND),
                          _strata(rng, SERIES_PER_KIND)):
        m, k = _mk(um, uk)
        ops.append(("sum_b", m, k, _uniform_int(un, 1, 2000)))
    for u in _strata(rng, SERIES_PER_KIND):
        ops.append(("kazarinoff", _log_int(u, 1, 10**6)))
    for u in _strata(rng, SERIES_PER_KIND):
        ops.append(("quartic", _log_real(u, 0.2, 1e5)))
    for ux, us in zip(_strata(rng, SERIES_PER_KIND), _strata(rng, SERIES_PER_KIND)):
        ops.append(("wendel", _log_real(ux, 1.0, 1e6), _open(us, 0.0, 1.0)))
    rng.shuffle(ops)
    return ops


CLI_SUBCOMMANDS = ("pi", "sum", "variational", "bounds", "integrals", "verify")

COMBOS = (("gaussian", "coulomb"), ("gaussian", "oscillator"),
          ("lorentz", "coulomb"), ("lorentz", "oscillator"))
L_MAX = 20


def level_domain() -> list[tuple]:
    """Every (family, potential, l) the levels workload may draw: l in
    [0, 20], l >= 1 for Lorentz-oscillator (divergent at l = 0)."""
    return [("level", f, p, l) for f, p in COMBOS for l in range(L_MAX + 1)
            if l >= 1 or (f, p) != ("lorentz", "oscillator")]


def levels_pass(rng: random.Random) -> list[tuple]:
    ops = level_domain()
    rng.shuffle(ops)
    return ops


def cli_pass(rng: random.Random) -> list[tuple]:
    """The nine README invocations with seeded grids and shifts.

    Each op is ("cli", label, argv, expected_rows, params).
    """
    # the README grid's end point n = 10^6, where the documented envelope
    # claim ends, stays in every pi grid; the other three points are seeded
    pi_ns = sorted(_log_int(u, 1, 10**6) for u in _strata(rng, 3)) + [10**6]
    start, step = _uniform_int(rng.random(), 1, 999), _uniform_int(rng.random(), 900, 1100)
    m, k = _mk(_unit(rng), _unit(rng))
    n_b = _uniform_int(rng.random(), 1, 2000)
    l_coul = _uniform_int(rng.random(), 0, 20)
    l_osc = _uniform_int(rng.random(), 1, 10)
    k_start, k_step = _uniform_int(rng.random(), 1, 37), _uniform_int(rng.random(), 1, 74)
    quartic_xs = sorted(_log_real(u, 0.2, 1e5) for u in _strata(rng, 4))
    l_int = _uniform_int(rng.random(), 0, 15)
    return [
        ("cli", "pi", ["pi", "--n", ",".join(map(str, pi_ns))], len(pi_ns), {}),
        ("cli", "sum", ["sum", "--n", f"{start}:10000:{step}"],
         2 * len(range(start, 10001, step)), {}),
        ("cli", "sum", ["sum", "--mode", "general", f"--m={m!r}",
                        f"--k={k!r}", "--n", str(n_b)], 2, {"m": m, "k": k}),
        ("cli", "variational", ["variational", "--family", "lorentz", "--potential",
                                "coulomb", "--l-max", str(l_coul)], l_coul + 1, {}),
        ("cli", "variational", ["variational", "--family", "lorentz", "--potential",
                                "oscillator", "--l-min", "1", "--l-max", str(l_osc)],
         l_osc, {}),
        ("cli", "bounds", ["bounds", "--kind", "kazarinoff", "--grid",
                           f"{k_start}:1000:{k_step}"],
         len(range(k_start, 1001, k_step)), {}),
        ("cli", "bounds", ["bounds", "--kind", "quartic", "--grid",
                           ",".join(map(repr, quartic_xs))], len(quartic_xs), {}),
        ("cli", "integrals", ["--format", "json", "integrals", "--l-max", str(l_int)],
         13 + 6 + 3 * (l_int + 1), {}),
        ("cli", "verify", ["verify"], None, {}),
    ]


PASSES = {"series": series_pass, "levels": levels_pass, "cli": cli_pass}


def passes(workload: str, seed: int):
    """Endless, deterministic stream of passes for one workload and seed."""
    rng = random.Random(f"wallisqm-bench:{workload}:{seed}")
    make = PASSES[workload]
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# in-process operations (series, levels)
# ---------------------------------------------------------------------------

def _rel_ok(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * abs(ref)


def run_series_op(op: tuple, gk, ws) -> bool:
    """Run one series operation and its check; True when the output holds."""
    kind = op[0]
    if kind == "wallis":
        n = op[1]
        err = abs(2.0 * ws.wallis_partial_product(n) - math.pi)
        return 0.0 < err < math.pi / (4.0 * n + 2.0)
    if kind == "sum_a":
        n = op[1]
        return _rel_ok(ws.sum_a_recurrence(n).value, ws.sum_a_direct(n), SUM_TOL)
    if kind == "sum_b":
        _, m, k, n = op
        p = ws.GeneralizedParams(m, k)
        direct = math.fsum(ws.b_seq(p, i) for i in range(1, n + 1))
        return _rel_ok(ws.sum_b_partial(p, n).value, direct, SUM_TOL)
    if kind == "kazarinoff":
        return gk.kazarinoff_bounds(op[1]).satisfied
    if kind == "quartic":
        return gk.quartic_root_bounds(op[1]).satisfied
    if kind == "wendel":
        _, x, s = op
        env = s * (1.0 - s) / x
        return -env < gk.wendel_deviation(x, s) < env
    raise ValueError(f"unknown series operation {kind!r}")


def run_level_op(op: tuple, ve) -> bool:
    _, family, pot, l = op
    fam = ve.Family(family)
    p = ve.Potential(pot)
    numeric = ve.variational_energy(fam, p, l, ve.Method.NUMERIC).value
    closed = ve.variational_energy(fam, p, l, ve.Method.CLOSED_FORM).value
    return _rel_ok(numeric, closed, LEVEL_TOL)


def series_warmup(gk, ws) -> None:
    """One small call of each kind: imports mpmath and fills lazy state."""
    for op in (("wallis", 10), ("sum_a", 10), ("sum_b", 0.5, 0.5, 10),
               ("kazarinoff", 10), ("quartic", 1.0), ("wendel", 10.0, 0.5)):
        run_series_op(op, gk, ws)


def levels_warmup(ve) -> None:
    """One numeric level: builds the quadrature node tables."""
    run_level_op(("level", "gaussian", "coulomb", 0), ve)


# ---------------------------------------------------------------------------
# cli output checks
# ---------------------------------------------------------------------------

def cli_rows(argv: list[str], stdout: str) -> int | None:
    """Rows in a command's table, or None when it does not parse.

    ``verify`` prints one PASS/FAIL line per suite and a ``p/t ...`` summary
    whose total must equal the number of suite lines."""
    try:
        if argv[0] == "verify":
            *suites, summary = stdout.splitlines()
            total = int(summary.split()[0].split("/")[1])
            ok = total == len(suites) and all(s.startswith(("PASS ", "FAIL ")) for s in suites)
            return len(suites) if ok else None
        if "json" in argv:
            table = json.loads(stdout)
            return len(table) if isinstance(table, list) else None
        rows = list(csv.reader(io.StringIO(stdout)))
        return len(rows) - 1 if rows else None
    except (ValueError, IndexError, csv.Error):
        return None


class CommandError(Exception):
    """A command that crashed or printed no complete table."""


def check_cli(op: tuple, returncode: int, stdout: str, stderr: str) -> bool:
    """True when a command exits 0 with its whole table; False when it prints
    the whole table and exits with the CLI's verification-failure code, i.e.
    reports a wrong value.  Raises CommandError for any other outcome."""
    _, _, argv, expected, _ = op
    if "Traceback" in stderr or returncode not in (EXIT_OK, EXIT_VERIFICATION_FAILURE):
        raise CommandError(f"exit {returncode}: {stderr[-500:]}")
    rows = cli_rows(argv, stdout)
    if rows is None or (expected is not None and rows != expected):
        raise CommandError(f"exit {returncode}, {rows} table rows where {expected} "
                           f"were expected: {stderr[-500:]}")
    return returncode == EXIT_OK


# ---------------------------------------------------------------------------
# known program faults
# ---------------------------------------------------------------------------

def known_defect(op: tuple) -> str | None:
    """The known program fault whose inputs ``op`` lies in, if any.  It can
    explain only a *wrong value*; an exception or crash is never a known
    fault."""
    kind = op[0]
    mk = None
    if kind == "sum_b":
        mk = op[1], op[2]
    elif kind == "cli" and "m" in op[4]:
        mk = op[4]["m"], op[4]["k"]
    if mk is not None:
        m, k = mk
        # sum_b_partial/sum_b_closed take lgamma of Gamma(m+1/2) < 0 and lose
        # its sign; reproducer: wallisqm sum --mode general --m -0.7 --k 1 --n 10
        if m < -0.5:
            return "sum_b.m_below_half"
        # the telescoped sum C*(q - g), C = 4/(2(k-m)+1), cancels near
        # k - m = -1/2: relative error ~5e-14/|2(k-m)+1| against 1e-10
        if abs(2.0 * (k - m) + 1.0) < 4e-3:
            return "sum_b.near_singular_prefactor"
    if kind == "wendel":
        # wendel_deviation rounds s into fl(x+s) and cancels s*ln(x): an
        # absolute error ~ulp(x)*ln(x) beyond the s(1-s)/x envelope margin
        _, x, s = op
        if s * (1.0 - s) <= 4.0 * x * math.ulp(x) * math.log(x):
            return "wendel.offset_rounding"
    return None


def split_known_faults(ops: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    """(operations outside every known fault, operations inside one)."""
    timed: list[tuple] = []
    faulty: list[tuple] = []
    for op in ops:
        (faulty if known_defect(op) else timed).append(op)
    return timed, faulty


def describe(op: tuple) -> str:
    if op[0] == "cli":
        return "wallisqm " + " ".join(op[2])
    return f"{op[0]}{op[1:]!r}"
