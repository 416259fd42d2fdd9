"""Command-line front end emitting reproduction tables as CSV or JSON.

Subcommands:

    pi           Wallis partial products 2·P_n against π with the
                 π/(4n+2) convergence envelope.
    sum          Gamma-ratio series partial sums: telescoped formula vs
                 direct summation vs the closed-form limit.
    variational  Variational energy levels against the exact spectrum.
    bounds       Double-inequality sandwiches (Kazarinoff, quartic-root,
                 Wendel) with per-row satisfied flags.
    integrals    Closed forms vs the quadrature engine, with residuals.
    verify       Runs every invariant suite; one pass/fail line each, or
                 with ``--format json`` one record per suite carrying its
                 measured worst deviation and tolerance.

Global flags (before the subcommand): ``--format {csv,json}`` and
``--out <path>``.  No option sets a quadrature tolerance: ``integrals``
certifies each closed form by the quadrature's one tolerance, 1e-10,
against 1e-9 on the scaled integral, as verify does.  An option that the
chosen mode ignores is a usage error: ``--m`` and ``--k`` outside ``sum
--mode general``, ``--l-min`` with an ``--l-max`` list or range, and
``--s`` outside ``bounds --kind wendel``.  Numeric cells are emitted with
17 significant digits so parsing them back reproduces the doubles
bit-for-bit; identical invocations produce byte-identical output.

CSV rows are the cells joined with commas, never quoted: no cell can hold a
comma, a quote, CR or LF, because labels are fixed identifiers or option
choices, numbers are ``.17g`` floats or ints, flags are ``true``/``false``,
and an absent value is empty.

Exit status: 0 success, 1 verification failure, 2 usage or domain error.

Each subcommand imports only the modules it runs: ``wallis_series``,
``verify``, ``integral_kit`` and ``variational_engine`` are imported inside
the commands that call them, so ``bounds`` loads none of them, ``pi`` and
``sum`` only ``wallis_series``, and ``variational`` and ``integrals`` not
``wallis_series``, as ``import wallisqm`` itself loads only ``errors``.
``json`` is imported only for JSON output, and ``decimal`` only for an
integer token, such as ``1e7``, that ``int`` refuses.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
from typing import NamedTuple

from .errors import _DOUBLE_MAX, _MAX_GRID_POINTS, _MAX_TERMS, ConvergenceError, DomainError, _index
from .gamma_kit import kazarinoff_bounds, quartic_root_bounds, wendel_deviation

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2


class ReportRow(NamedTuple):
    """One table row: a value against its reference, plus an optional bound."""

    label: str
    n_or_l: int
    value: float
    reference: float
    bound: float | None = None

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.reference)


class BoundsRow(NamedTuple):
    """One sandwich row; fields are None when the point was out of domain."""

    label: str
    x: float
    lower: float | None
    value: float | None
    upper: float | None
    satisfied: bool


_REPORT_FIELDS = ("label", "n_or_l", "value", "reference", "abs_error", "bound")
_BOUNDS_FIELDS = ("label", "x", "lower", "value", "upper", "satisfied")
_VERIFY_FIELDS = ("name", "passed", "measured", "tolerance", "detail")


# the %-spec of a cell of each plain type, and of a column whose cells all
# have one exact type of these
_COLUMN_SPECS = {float: "%.17g", int: "%d", str: "%s"}


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _COLUMN_SPECS[float] % v
    return str(v)


def _emit_table(rows, fields, fmt: str) -> str:
    if fmt == "json":
        import json

        payload = [
            {f: getattr(r, f) for f in fields}
            for r in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    # no cell can hold a comma, quote, CR or LF (labels are fixed identifiers
    # or option choices, the rest numbers, flags or empty), so a plain join
    # gives the bytes csv.writer would.  A column of one plain type is
    # formatted by its %-spec in one row template; any other column is
    # rendered cell by cell first, and enters the template as text.
    columns, specs = [], []
    for f in fields:
        column = list(map(operator.attrgetter(f), rows))
        kinds = set(map(type, column))
        spec = _COLUMN_SPECS.get(kinds.pop()) if len(kinds) == 1 else None
        if spec is None:
            column, spec = list(map(_fmt_cell, column)), "%s"
        columns.append(column)
        specs.append(spec)
    template = ",".join(specs)
    lines = [",".join(fields)]
    lines += [template % cells for cells in zip(*columns)]
    return "\n".join(lines) + "\n"


def _write(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_grid_size(text: str, count: float) -> None:
    # the count is known before any list is built, so an oversized range
    # fails fast instead of allocating it
    if not count <= _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"{text!r} selects {count:.6g} points, more than the {_MAX_GRID_POINTS} allowed")


# digits of the largest double, beyond which no index slot takes an integer
_MAX_INT_DIGITS = len(str(_DOUBLE_MAX))


def _parse_int(tok: str) -> int:
    """An integer token, exactly: plain digits through int, a form such as
    '1e76' or '5.0' through Decimal, refused before its conversion to int
    when it has more digits than the largest double."""
    try:
        return int(tok)
    except ValueError:
        pass
    import decimal

    try:
        d = decimal.Decimal(tok)
    except decimal.InvalidOperation:
        d = None
    if d is None or not d.is_finite() or d.adjusted() >= _MAX_INT_DIGITS \
            or d != d.to_integral_value():
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {_MAX_INT_DIGITS} digits, got {tok!r}")
    return int(d)


def _parse_int_spec(text: str) -> list[int]:
    """'5' | '1,10,100' | 'start:stop:step' (stop inclusive when hit)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise argparse.ArgumentTypeError(f"bad range {text!r}, use start:stop[:step]")
        start, stop = _parse_int(parts[0]), _parse_int(parts[1])
        step = _parse_int(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        _check_grid_size(text, (stop - start) // step + 1)
        return list(range(start, stop + 1, step))
    tokens = [tok for tok in text.split(",") if tok]
    _check_grid_size(text, len(tokens))
    return [_parse_int(tok) for tok in tokens]


def _parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad range {text!r}, use start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not (step > 0.0 and stop >= start):  # also rejects nan
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        span = (stop - start) / step + 1e-9
        # the count that is built; floor of a nan or inf span would raise
        count = math.floor(span) + 1 if math.isfinite(span) else math.inf
        _check_grid_size(text, count)
        return [start + i * step for i in range(count)]
    tokens = [tok for tok in text.split(",") if tok]
    _check_grid_size(text, len(tokens))
    return [float(tok) for tok in tokens]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _grid_sums(chunk_terms, ns: list[int]) -> dict[int, float]:
    """n -> fsum of terms 1..n for every n of the grid, from one sweep, whose
    O(max n) cost limits --n to [1, 10⁷]."""
    from . import wallis_series as ws

    grid = sorted(set(ns))
    for n in grid[:1] + grid[-1:]:
        _index(n, "--n", lo=1, hi=_MAX_TERMS)
    return dict(zip(grid, ws._prefix_fsums(chunk_terms, grid)))


def _cmd_pi(args) -> tuple[str, int]:
    from . import wallis_series as ws

    log_products = _grid_sums(ws._wallis_log_terms, args.n)
    rows = []
    failures = 0
    for n in args.n:
        value = 2.0 * math.exp(log_products[n])
        bound = math.pi / (4.0 * n + 2.0)
        row = ReportRow("wallis-pi", n, value, math.pi, bound)
        if not 0.0 < row.abs_error < bound:
            failures += 1
        rows.append(row)
    return _emit_table(rows, _REPORT_FIELDS, args.format), failures


def _cmd_sum(args) -> tuple[str, int]:
    from . import wallis_series as ws

    if args.mode == "simple":
        label, partial_sum, terms = "a-sum", ws.sum_a_recurrence, ws._a_terms
    else:
        if args.m is None or args.k is None:
            raise DomainError("general mode requires --m and --k")
        params = ws.GeneralizedParams(args.m, args.k)
        label = "b-sum"

        def partial_sum(n):
            return ws.sum_b_partial(params, n)

        def terms(lo, hi):
            return [ws.b_seq(params, i) for i in range(lo, hi)]

    directs = _grid_sums(terms, args.n)
    parts = [partial_sum(n) for n in args.n]
    rows = []
    failures = 0
    for n, part in zip(args.n, parts):
        direct = directs[n]
        limit = part.closed_form_limit
        rows.append(ReportRow(f"{label}-recurrence", n, part.value, limit, part.tail_bound))
        rows.append(ReportRow(f"{label}-direct", n, direct, limit, part.tail_bound))
        if not abs(part.value - direct) <= 1e-10 * abs(direct):  # a nan fails
            failures += 1
    return _emit_table(rows, _REPORT_FIELDS, args.format), failures


def _cmd_variational(args) -> tuple[str, int]:
    from .variational_engine import Family, Method, Potential, variational_energy

    family = Family(args.family)
    pot = Potential(args.potential)
    method = Method(args.method)
    ls = args.l_max
    if len(ls) == 1:  # the range from --l-min, capped like any grid
        l_min = 0 if args.l_min is None else args.l_min
        if ls[0] - l_min >= _MAX_GRID_POINTS:
            raise DomainError(f"--l-min {l_min} to --l-max {ls[0]} selects more "
                              f"than the {_MAX_GRID_POINTS} orbital numbers allowed")
        ls = list(range(l_min, ls[0] + 1))
    if not ls:
        raise DomainError("--l-max/--l-min select no orbital numbers")
    rows = []
    gaussian_coulomb = family is Family.GAUSSIAN and pot is Potential.COULOMB
    label = f"{args.family}-{args.potential}-{args.method}"
    for l in ls:
        est = variational_energy(family, pot, l, method)
        bound = None
        if gaussian_coulomb:
            # Kazarinoff envelope: 1 - ratio < 1/(4n+2), n = l+1, as an
            # absolute bound on |E_var - E_exact|
            bound = abs(est.exact_reference) / (4.0 * (l + 1.0) + 2.0)
        rows.append(ReportRow(label, l, est.value, est.exact_reference, bound))
    return _emit_table(rows, _REPORT_FIELDS, args.format), 0


def _cmd_bounds(args) -> tuple[str, int]:
    rows = []
    for x in args.grid:
        try:
            if args.kind == "kazarinoff":
                t = kazarinoff_bounds(x)
            elif args.kind == "quartic":
                t = quartic_root_bounds(x)
            else:
                dev = wendel_deviation(x, args.s)
                env = args.s * (1.0 - args.s) / x
                rows.append(BoundsRow("wendel", x, -env, dev, env,
                                      -env < dev < env))
                continue
            rows.append(BoundsRow(args.kind, x, t.lower, t.value, t.upper, t.satisfied))
        except DomainError:
            rows.append(BoundsRow(args.kind, x, None, None, None, False))
    violated = sum(not r.satisfied for r in rows)
    return _emit_table(rows, _BOUNDS_FIELDS, args.format), violated


def _cmd_integrals(args) -> tuple[str, int]:
    from .integral_kit import _LORENTZ_L_MAX, _certified_integrals

    # checked before the first quadrature, and named as the option it came from
    _index(args.l_max, "--l-max", hi=_LORENTZ_L_MAX)
    cases = list(_certified_integrals(args.l_max))
    rows = [ReportRow(label, idx, closed, quad, bound)
            for label, idx, closed, quad, bound, _, _ in cases]
    failed = sum(not passed for *_, passed in cases)
    return _emit_table(rows, _REPORT_FIELDS, args.format), failed


def _cmd_verify(args) -> tuple[str, int]:
    from . import verify

    results = verify.run()
    n_fail = sum(not r.passed for r in results)
    if args.format == "json":
        text = _emit_table(results, _VERIFY_FIELDS, "json")
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
        lines.append(f"{len(results) - n_fail}/{len(results)} invariant suites passed [strict]")
        text = "\n".join(lines) + "\n"
    return text, n_fail


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallisqm",
        description="Reproduction tables for Wallis-product and variational-level numerics.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (default csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="Wallis product convergence to π")
    p.add_argument("--n", type=_parse_int_spec, default=[1, 10, 100, 1000, 10000],
                   help="product lengths: value, comma list, or start:stop:step")
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("sum", help="gamma-ratio series partial sums")
    p.add_argument("--mode", choices=("simple", "general"), default="simple")
    p.add_argument("--m", type=float, default=None, help="first shift (general mode)")
    p.add_argument("--k", type=float, default=None, help="second shift (general mode)")
    p.add_argument("--n", type=_parse_int_spec, default=[1, 10, 100, 1000, 10000],
                   help="partial-sum lengths: value, comma list, or start:stop:step")
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("variational", help="variational energy levels")
    # the values of Family, Potential and Method, spelled out so that the
    # parser is built without importing variational_engine
    p.add_argument("--family", choices=("gaussian", "lorentz"), required=True)
    p.add_argument("--potential", choices=("coulomb", "oscillator"), required=True)
    p.add_argument("--l-max", type=_parse_int_spec, default=[10],
                   help="single value (range from --l-min), comma list, or start:stop:step")
    p.add_argument("--l-min", type=_parse_int, default=None,
                   help="first l of the range to a single --l-max (default 0)")
    p.add_argument("--method", choices=("closed", "numeric"), default="closed")
    p.set_defaults(handler=_cmd_variational)

    p = sub.add_parser("bounds", help="gamma-ratio double inequalities")
    p.add_argument("--kind", choices=("kazarinoff", "quartic", "wendel"), required=True)
    p.add_argument("--grid", type=_parse_float_list,
                   default=[1.0, 10.0, 100.0, 1000.0, 1e6],
                   help="evaluation points: value, comma list, or start:stop:step")
    p.add_argument("--s", type=float, default=None,
                   help="shift for the wendel kind, in (0, 1) (default 0.5)")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("integrals", help="closed forms vs quadrature residuals")
    p.add_argument("--l-max", type=_parse_int, default=15)
    p.set_defaults(handler=_cmd_integrals)

    p = sub.add_parser("verify", help="run every invariant suite")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # an option the chosen mode would ignore is refused, not dropped
    if args.command == "sum" and args.mode == "simple" and (args.m, args.k) != (None, None):
        parser.error("--m and --k apply only to --mode general")
    if args.command == "variational" and args.l_min is not None and len(args.l_max) != 1:
        parser.error("--l-min applies only to a single --l-max value, not a list or range")
    if args.command == "bounds":
        if args.kind != "wendel" and args.s is not None:
            parser.error("--s applies only to --kind wendel")
        if args.s is None:
            args.s = 0.5
        elif not 0.0 < args.s < 1.0:
            parser.error(f"--s must lie strictly inside (0, 1), got {args.s}")
    try:
        text, failures = args.handler(args)
        _write(text, args.out)
    except DomainError as exc:
        print(f"wallisqm: domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"wallisqm: convergence error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except OSError as exc:
        print(f"wallisqm: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VERIFICATION_FAILURE if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
