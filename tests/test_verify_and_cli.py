import argparse
import csv
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from wallisqm import cli, gamma_kit, integral_kit, variational_engine, verify, wallis_series
from wallisqm.cli import main
from wallisqm.errors import ConvergenceError
from wallisqm.wallis_series import PartialSum, scaled_a


class TestVerifySuites:
    def test_strict_all_pass(self):
        results = verify.run()
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert len(results) == len(verify.CHECKS)

    def test_detects_perturbed_partial_sum(self, monkeypatch):
        def perturbed(n):
            sa = scaled_a(n)
            return PartialSum(
                n_terms=n,
                value=4.0 * sa - 2.9 * (8.0 / (3.0 * math.pi)),
                closed_form_limit=4.0 - 8.0 / math.pi,
                tail_bound=4.0 * (1.0 - sa),
            )

        monkeypatch.setattr(wallis_series, "sum_a_recurrence", perturbed)
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["sum-a-recurrence-vs-direct"].passed

    def test_one_b_table_per_pair_and_run(self, monkeypatch):
        counts = {"b_seq": 0, "sum_b_partial": 0}

        def counted(name):
            fn = getattr(wallis_series, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(wallis_series, name, counted(name))
        assert all(r.passed for r in verify.run())
        # sum_b_partial reaches b_seq through the patched module attribute too
        assert counts["b_seq"] <= len(verify._MK_GRID) * 2000 + counts["sum_b_partial"]
        assert verify._terms.cache_info().currsize == 0  # the tables live only inside run()

    def test_one_product_table_per_run(self, monkeypatch):
        sweeps = []
        prefix_fsums = wallis_series._prefix_fsums

        def counted(chunk_terms, ns):
            sweeps.append(chunk_terms)
            return prefix_fsums(chunk_terms, ns)

        monkeypatch.setattr(wallis_series, "_prefix_fsums", counted)
        assert all(r.passed for r in verify.run())
        assert sweeps.count(verify._wallis_log_terms) == 1
        assert verify._wallis_products.cache_info().currsize == 0  # only inside run()

    def test_products_are_exact_sums_of_their_log_terms(self):
        terms = verify._wallis_log_terms(1, 10_001)
        products = verify._wallis_products.__wrapped__()  # built afresh, not cached
        assert len(products) == 10_001
        for n in (1, 2, 1000, 10_000):
            assert products[n - 1] == math.exp(math.fsum(terms[:n]))

    def test_detects_perturbed_b_seq_in_both_b_suites(self, monkeypatch):
        b_seq = wallis_series.b_seq
        monkeypatch.setattr(wallis_series, "b_seq",
                            lambda p, n: b_seq(p, n) * (1.0 + 1e-8 * (n % 2)))
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["b-recurrence-identity"].passed
        assert not by_name["sum-b-recurrence-vs-direct"].passed

    def test_detects_perturbed_gamma_kernel_in_kazarinoff_sandwich(self, monkeypatch):
        # a 1e-6 relative error in the log pushes the value below √(n+1/4)
        # from n = 84; on the grid, n <= 10⁶, the proven rule must not mask it
        kernel = gamma_kit._log_gamma_ratio
        monkeypatch.setattr(gamma_kit, "_log_gamma_ratio",
                            lambda x, a, b: kernel(x, a, b) * (1.0 - 1e-6))
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["kazarinoff-sandwich"].passed

    def test_detects_perturbed_gamma_kernel_in_quartic_sandwich(self, monkeypatch):
        # the same error pushes the value below its quartic lower bound from
        # x ~ 10; on the grid's x <= 300 the proven rule must not mask it
        kernel = gamma_kit._log_gamma_ratio
        monkeypatch.setattr(gamma_kit, "_log_gamma_ratio",
                            lambda x, a, b: kernel(x, a, b) * (1.0 - 1e-6))
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["quartic-root-sandwich"].passed

    def test_detects_perturbed_stirling_tail_beyond_the_product_crossover(self, monkeypatch):
        # beyond n = 150 wallis_ratio is the gamma path, so only the product
        # P_n can tell a fault of the kernel's Stirling tail
        claim = verify._CLAIMS["wallis-ratio-gamma-identity"]
        beyond = claim.measure._replace(
            grid=lambda: [(n, pn) for n, pn in claim.measure.grid() if n > 150])
        c0, *rest = gamma_kit._STIRLING
        try:
            assert beyond()[0] < 1e-14
            monkeypatch.setattr(gamma_kit, "_STIRLING", (c0 * 1.001, *rest))
            assert beyond()[0] > 1e-9
        finally:
            verify._clear_tables()
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["wallis-ratio-gamma-identity"].passed

    def test_one_a_table_per_run(self, monkeypatch):
        counts = {"a_seq": 0, "scaled_a": 0}

        def counted(name):
            fn = getattr(wallis_series, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(wallis_series, name, counted(name))
        assert all(r.passed for r in verify.run())
        # one 10⁴-term table each; scaled_a also serves the telescoped sums
        # and the grids of two suites beyond n = 10⁴
        assert counts["a_seq"] <= 10_000
        assert counts["scaled_a"] <= 10_058
        assert verify._terms.cache_info().currsize == 0

    def test_detects_perturbed_a_seq_in_both_a_suites(self, monkeypatch):
        a_seq = wallis_series.a_seq
        monkeypatch.setattr(wallis_series, "a_seq",
                            lambda n: a_seq(n) * (1.0 + 1e-8 * (n % 2)))
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["a-recurrence-identity"].passed
        assert not by_name["sum-a-recurrence-vs-direct"].passed

    def test_detects_perturbed_lorentz_norm_integral(self, monkeypatch, capsys):
        # 1 % off at l = 15 only: an integral of about 1e-10, which an
        # absolute 1e-9 floor would pass
        norm = integral_kit.lorentz_norm_integral
        monkeypatch.setattr(integral_kit, "lorentz_norm_integral",
                            lambda l: norm(l) * (1.01 if l == 15 else 1.0))
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["quadrature-certifies-closed-forms"].passed
        assert main(["integrals", "--l-max", "15"]) == 1
        capsys.readouterr()

    def test_detects_perturbed_tangent_substitution_pair(self, monkeypatch):
        # both sides of the substitution off by the same factor: a check
        # that compares the two of them with each other cannot see it
        for name in ("rational_moment", "beta_trig_integral"):
            fn = getattr(integral_kit, name)
            monkeypatch.setattr(integral_kit, name, lambda *a, fn=fn: fn(*a) * (1.0 + 1e-10))
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["tangent-substitution-identity"].passed

    def test_detects_perturbed_lorentz_oscillator_ratio(self, monkeypatch):
        # the window reads the library's ratio, not a formula of its own
        level = variational_engine.variational_energy

        def perturbed(family, pot, l, method=variational_engine.Method.CLOSED_FORM):
            est = level(family, pot, l, method)
            if (family, pot) != (variational_engine.Family.LORENTZ,
                                  variational_engine.Potential.HARMONIC_OSCILLATOR):
                return est
            return est._replace(ratio_to_exact=est.ratio_to_exact * (1.0 - 1e-3))

        monkeypatch.setattr(variational_engine, "variational_energy", perturbed)
        by_name = {r.name: r for r in verify.run()}
        assert not by_name["oscillator-ratio-window"].passed

    def test_grids_match_numpy(self):
        np = pytest.importorskip("numpy")
        assert verify._linspace(0.05, 1.0, 20) == np.linspace(0.05, 1.0, 20).tolist()
        assert verify._linspace(1.5, 100.0, 198) == np.linspace(1.5, 100.0, 198).tolist()
        assert verify._logspace(0.01, 100.0, 9) == np.logspace(-2.0, 2.0, 9).tolist()
        assert verify._log_int_grid(1, 10**6, 40) == sorted(
            {int(round(v)) for v in np.logspace(0.0, 6.0, 40)})
        xs = verify._logspace(0.2, 1e5, 40)
        assert (xs[0], xs[-1]) == (0.2, 1e5)
        # libm pow may differ from numpy's vectorized pow by an ulp inside
        assert xs == pytest.approx(np.logspace(math.log10(0.2), 5.0, 40).tolist(),
                                   rel=1e-15)


def _two_path_links():
    """(claim name, link index) of every _Gap in the claims table."""
    for name, claim in verify._CLAIMS.items():
        chain = claim.measure if isinstance(claim.measure, verify._Chain) else [claim.measure]
        for i, link in enumerate(chain):
            if isinstance(link, verify._Gap):
                yield name, i


@pytest.mark.parametrize("side", ["path", "other"])
@pytest.mark.parametrize("name,link", list(_two_path_links()))
def test_each_two_path_claim_sees_a_perturbed_path(monkeypatch, name, link, side):
    # one path off by 10 tolerances must fail the claim on its measurement
    claim = verify._CLAIMS[name]
    is_chain = isinstance(claim.measure, verify._Chain)
    links = list(claim.measure) if is_chain else [claim.measure]
    fn, factor = getattr(links[link], side), 1.0 + 10.0 * claim.tol
    links[link] = links[link]._replace(**{side: lambda *a: fn(*a) * factor})
    measure = verify._Chain(links) if is_chain else links[0]
    monkeypatch.setattr(verify, "CHECKS", [(name, measure)])
    [result] = verify.run()
    assert result.name == name and not result.passed
    assert result.measured > result.tolerance == claim.tol


def test_claims_table_names_and_tolerances():
    # suite order and tolerances as printed by `wallisqm verify`; None marks
    # a claim judged by a strict rule of its own
    assert [(name, c.tol) for name, c in verify._CLAIMS.items()] == [
        ("gamma-recurrence-ratio", 1e-13), ("wallis-ratio-gamma-identity", 1e-12),
        ("wallis-ratio-path-overlap", 1e-13), ("kazarinoff-sandwich", None),
        ("quartic-root-sandwich", None), ("wendel-limit", 1e-6),
        ("stirling-ratio-asymptotic", None), ("duplication-residual", 1e-12),
        ("sum-a-recurrence-vs-direct", 1e-12), ("a-recurrence-identity", 1e-12),
        ("b-recurrence-identity", 1e-12), ("scaled-a-wallis-product-identity", 1e-13),
        ("partial-sum-sandwich", None), ("sequence-monotonicity", None),
        ("sum-b-recurrence-vs-direct", 1e-10), ("gaussian-moment-recurrence", 1e-14),
        ("rational-integral-wallis-identity", 1e-12),
        ("quadrature-certifies-closed-forms", None), ("tangent-substitution-identity", 1e-13),
        ("lorentz-norm-reduction-chain", 1e-13), ("lorentz-coulomb-duplication-chain", 1e-13),
        ("variational-upper-bound", None), ("stationarity-at-optimum", 1e-6),
        ("gaussian-ratio-wallis-linkage", 1e-12), ("lorentz-ratio-identity", 1e-12),
        ("oscillator-ratio-window", None), ("numeric-path-agreement", 1e-12),
    ]
    assert [name for name, _ in verify.CHECKS] == list(verify._CLAIMS)
    assert len({name for name, _ in _two_path_links()}) == 17


def test_cli_import_leaves_numpy_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c",
                    "import sys, wallisqm.cli; assert 'numpy' not in sys.modules"],
                   check=True, env=env, timeout=60)


# every option string of the parser and of each subcommand, -h aside; a new
# option must be added here, and a global one named in the README too
_GLOBAL_OPTIONS = {"--format", "--out"}
_COMMAND_OPTIONS = {
    "pi": {"--n"},
    "sum": {"--mode", "--m", "--k", "--n"},
    "variational": {"--family", "--potential", "--l-max", "--l-min", "--method"},
    "bounds": {"--kind", "--grid", "--s"},
    "integrals": {"--l-max"},
    "verify": set(),
}


def _option_strings(parser):
    return {opt for action in parser._actions for opt in action.option_strings} - {"-h",
                                                                                   "--help"}


def test_option_surface_is_pinned():
    parser = cli.build_parser()
    assert _option_strings(parser) == _GLOBAL_OPTIONS
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _option_strings(p) for name, p in sub.choices.items()} == _COMMAND_OPTIONS


def test_readme_names_every_global_option():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    for opt in _GLOBAL_OPTIONS:
        assert f"`{opt}" in section, opt


def _csv_writer_table(rows, fields):
    # the reference: the csv module, which quotes any cell that needs it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in rows:
        writer.writerow([cli._fmt_cell(getattr(r, f)) for f in fields])
    return buf.getvalue()


def test_csv_rows_need_no_quoting():
    # every label the CLI can emit, with the awkward cells a row can hold
    labels = ["wallis-pi", "kazarinoff", "quartic", "wendel"]
    labels += [f"{s}-sum-{p}" for s in "ab" for p in ("recurrence", "direct")]
    labels += [f"{f.value}-{p.value}-{m.value}" for f, p, m in
               itertools.product(variational_engine.Family, variational_engine.Potential,
                                 variational_engine.Method)]
    labels += sorted({case[0] for case in integral_kit._integral_cases(1)})
    cells = [None, math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
             math.pi, -1.0000000000000002, 1.7976931348623157e308, 0.1 + 0.2]
    # a report row's value and reference are always floats; its bound may be None
    report = [cli.ReportRow(label, i, cells[1 + i % 11], cells[1 + (i + 5) % 11], cells[i % 12])
              for i, label in enumerate(labels)]
    bounds = [cli.BoundsRow(label, cells[i % 12], cells[(i + 1) % 12], cells[(i + 2) % 12],
                            cells[(i + 3) % 12], i % 2 == 0)
              for i, label in enumerate(labels)]
    for rows, fields in ((report, cli._REPORT_FIELDS), (bounds, cli._BOUNDS_FIELDS)):
        text = cli._emit_table(rows, fields, "csv")
        assert text == _csv_writer_table(rows, fields)
        assert '"' not in text and len(text.splitlines()) == len(rows) + 1
    assert {"true", "false", "", "inf", "-inf", "nan", "-0"} <= set(
        _csv_writer_table(bounds, cli._BOUNDS_FIELDS).replace("\n", ",").split(","))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPiCommand:
    def test_csv_roundtrip_and_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "pi", "--n", "1,10,1000")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n_or_l"] for r in rows] == ["1", "10", "1000"]
        for r in rows:
            value = float(r["value"])
            reference = float(r["reference"])
            assert reference == math.pi
            assert float(r["abs_error"]) == abs(value - reference)
            assert float(r["abs_error"]) < float(r["bound"])
        # 17-significant-digit cells reproduce the doubles exactly
        n1 = rows[0]
        assert float(n1["value"]) == 2.0 * (4.0 / 3.0)

    def test_json_matches_csv(self, capsys):
        code, out_csv, _ = run_cli(capsys, "pi", "--n", "5")
        code2, out_json, _ = run_cli(capsys, "--format", "json", "pi", "--n", "5")
        assert code == code2 == 0
        row_csv = next(csv.DictReader(io.StringIO(out_csv)))
        row_json = json.loads(out_json)[0]
        assert row_json["value"] == float(row_csv["value"])
        assert row_json["bound"] == float(row_csv["bound"])

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "pi", "--n", "1:20:3")
        _, out2, _ = run_cli(capsys, "pi", "--n", "1:20:3")
        assert out1 == out2

    def test_range_selection(self, capsys):
        _, out, _ = run_cli(capsys, "pi", "--n", "2:10:4")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n_or_l"] for r in rows] == ["2", "6", "10"]


class TestSumCommand:
    def test_simple_mode(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--n", "1,2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["label"] for r in rows] == [
            "a-sum-recurrence", "a-sum-direct"] * 2
        first = rows[0]
        assert float(first["value"]) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-13)
        assert float(first["reference"]) == pytest.approx(4.0 - 8.0 / math.pi, rel=1e-15)

    def test_general_mode(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--mode", "general",
                               "--m", "0.5", "--k", "0.5", "--n", "100")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["reference"]) == pytest.approx(4.0 - math.pi, rel=1e-13)

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--mode", "general",
                               "--m", "0.5", "--k", "0.0", "--n", "10")
        assert code == 2
        assert "k - m" in err

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--mode", "general", "--n", "10")
        assert code == 2
        assert "--m" in err


class TestVariationalCommand:
    def test_gaussian_coulomb_row(self, capsys):
        code, out, _ = run_cli(capsys, "variational", "--family", "gaussian",
                               "--potential", "coulomb", "--l-max", "0")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["value"]) == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-13)
        assert float(row["reference"]) == -0.5
        assert float(row["abs_error"]) < float(row["bound"])

    def test_oscillator_rows_have_no_bound(self, capsys):
        _, out, _ = run_cli(capsys, "variational", "--family", "gaussian",
                            "--potential", "oscillator", "--l-max", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["bound"] == "" for r in rows)
        assert all(float(r["abs_error"]) == 0.0 for r in rows)

    def test_lorentz_oscillator_l0_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "variational", "--family", "lorentz",
                               "--potential", "oscillator", "--l-max", "3")
        assert code == 2
        assert "l-min 1" in err or "l >= 1" in err or "l = 0" in err

    def test_lorentz_oscillator_with_l_min(self, capsys):
        code, out, _ = run_cli(capsys, "variational", "--family", "lorentz",
                               "--potential", "oscillator", "--l-max", "3",
                               "--l-min", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n_or_l"] for r in rows] == ["1", "2", "3"]
        assert float(rows[0]["value"]) == pytest.approx(math.sqrt(15.0), rel=1e-13)

    @pytest.mark.parametrize("token,l", [
        ("9007199254740993", 9007199254740993),  # 2^53 + 1, which a float rounds
        ("1e24", 10**24),  # the largest orbital number, in exponent notation
        (str(10**24), 10**24),
        ("2.5e1", 25),
    ])
    def test_l_max_is_parsed_exactly(self, capsys, token, l):
        code, out, _ = run_cli(capsys, "variational", "--family", "lorentz",
                               "--potential", "coulomb", "--l-max", f"{token},{token}")
        assert code == 0
        assert [r["n_or_l"] for r in csv.DictReader(io.StringIO(out))] == [str(l)] * 2

    def test_l_min_takes_the_same_integer_tokens(self, capsys):
        argv = ("variational", "--family", "gaussian", "--potential", "coulomb", "--l-max", "3")
        code, out, _ = run_cli(capsys, *argv, "--l-min", "1e0")
        assert code == 0
        assert out == run_cli(capsys, *argv, "--l-min", "1")[1]
        assert [r["n_or_l"] for r in csv.DictReader(io.StringIO(out))] == ["1", "2", "3"]


class TestBoundsCommand:
    def test_kazarinoff_all_satisfied(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--kind", "kazarinoff",
                               "--grid", "1,10,100,1000000")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["satisfied"] == "true" for r in rows)
        assert all(float(r["lower"]) < float(r["value"]) < float(r["upper"])
                   for r in rows)

    def test_quartic_domain_violation_is_per_row(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--kind", "quartic",
                               "--grid", "0.04,1.0")
        assert code == 1  # the out-of-domain row counts as violated
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["satisfied"] == "false" and rows[0]["value"] == ""
        assert rows[1]["satisfied"] == "true"

    def test_wendel_deviation_below_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--kind", "wendel",
                               "--grid", "1000000", "--s", "0.5")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert abs(float(row["value"])) < 1e-6

    def test_wendel_bad_s_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--kind", "wendel", "--grid", "10", "--s", "1.5"])
        assert info.value.code == 2


class TestIntegralsCommand:
    def test_residuals_within_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "integrals", "--l-max", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        labels = {r["label"] for r in rows}
        assert labels == {"gaussian-moment", "rational-moment",
                          "rational-integral", "lorentz-norm", "lorentz-coulomb"}
        for r in rows:
            assert float(r["abs_error"]) <= float(r["bound"])

    def test_lorentz_rows_relative_to_their_size(self, capsys):
        # certified against each integrand's peak, not an absolute floor,
        # up to l = 508 where the integrals reach the smallest normal double
        code, out, _ = run_cli(capsys, "integrals", "--l-max", "508")
        assert code == 0
        rows = [r for r in csv.DictReader(io.StringIO(out))
                if r["label"].startswith("lorentz-")]
        assert len(rows) == 2 * 509
        for r in rows:
            value, reference = float(r["value"]), float(r["reference"])
            assert abs(value - reference) <= 1e-13 * value, r

    def test_every_bound_is_the_floor_on_the_scaled_integral(self):
        # at tolerance 1e-10 the error estimate never reaches 1e-10, so the
        # bound is the 1e-9 floor scaled back by 2^-e on every row to l = 508
        cases = list(integral_kit._integral_cases(508))
        rows = list(integral_kit._certified_integrals(508))
        assert len(rows) == len(cases) == 1546
        for (label, idx, closed, e, _), row in zip(cases, rows):
            assert row[:3] == (label, idx, closed)
            assert row[4] == math.ldexp(1e-9, -e), row
            assert row[5] <= 1e-9 and row[6] is True, row

    def test_verify_and_the_command_read_the_same_rows(self, capsys, monkeypatch):
        certified = integral_kit._certified_integrals
        reads = []

        def recorded(*args):
            reads.append((args, list(certified(*args))))
            return iter(reads[-1][1])

        monkeypatch.setattr(integral_kit, "_certified_integrals", recorded)
        count, worst = verify._quadrature()
        code, out, _ = run_cli(capsys, "integrals", "--l-max", "15")
        assert code == 0
        (verify_args, verify_rows), (cli_args, cli_rows) = reads
        assert verify_args == cli_args == (15,)
        assert verify_rows == cli_rows
        assert (count, worst) == (len(cli_rows), max(row[5] for row in cli_rows))
        printed = [(r["label"], int(r["n_or_l"]), float(r["value"]), float(r["reference"]),
                    float(r["bound"])) for r in csv.DictReader(io.StringIO(out))]
        assert printed == [row[:5] for row in cli_rows]

    def test_l_max_takes_the_same_integer_tokens(self, capsys):
        code, out, _ = run_cli(capsys, "integrals", "--l-max", "1e2")
        assert code == 0
        assert out == run_cli(capsys, "integrals", "--l-max", "100")[1]
        assert max(int(r["n_or_l"]) for r in csv.DictReader(io.StringIO(out))) == 100

    @pytest.mark.parametrize("l_max", [509, 600])
    def test_l_max_past_508_is_refused_before_any_quadrature(self, capsys, monkeypatch, l_max):
        calls = []

        def counted(*args):
            calls.append(args)
            return quad(*args)

        quad = integral_kit.quad_semiinfinite
        monkeypatch.setattr(integral_kit, "quad_semiinfinite", counted)
        code, out, err = run_cli(capsys, "integrals", "--l-max", str(l_max))
        assert code == 2 and out == ""
        assert f"--l-max requires an integer in [0, 508], got {l_max}" in err
        assert calls == []


class TestVerifyCommand:
    def test_strict_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("[strict]")

    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify")
        assert code == 0
        records = json.loads(out)
        assert [r["name"] for r in records] == [name for name, _ in verify.CHECKS]
        assert len(records) == 27
        for r in records:
            assert list(r) == ["name", "passed", "measured", "tolerance", "detail"]
            assert r["passed"] is True
            if r["tolerance"] is not None:
                assert r["measured"] <= r["tolerance"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code = main(["--out", str(target), "verify"])
        capsys.readouterr()
        assert code == 0
        assert "[strict]" in target.read_text()


@pytest.mark.parametrize("argv,expected", [
    (["bounds", "--kind", "kazarinoff", "--grid", "inf"], 1),
    (["bounds", "--kind", "quartic", "--grid", "inf"], 1),
    # past x = 300 the verdict is the proven sandwich at every x
    (["bounds", "--kind", "quartic", "--grid", "1e13,1e15,1e100,1e300"], 0),
    # where the doubles tie or cross, the proven sandwich decides
    (["bounds", "--kind", "kazarinoff", "--grid", "1e7,1e8,1e9,1e12,1e15"], 0),
    (["bounds", "--kind", "wendel", "--s", "0.3", "--grid", "1e8,1e10"], 0),
    (["sum", "--mode", "general", "--m", "-0.7", "--k", "1", "--n", "10"], 0),
    (["sum", "--mode", "general", "--m", "inf", "--k", "0", "--n", "1,2"], 2),
    (["sum", "--mode", "general", "--m", "0", "--k", "inf", "--n", "1,2"], 2),
    (["variational", "--family", "lorentz", "--potential", "oscillator", "--l-max", "-1"], 2),
    (["variational", "--family", "gaussian", "--potential", "coulomb", "--l-max", "-1"], 2),
    (["integrals", "--l-max", "-3"], 2),
    # the Lorentz closed forms are subnormal beyond l = 508
    (["integrals", "--l-max", "509"], 2),
    (["integrals", "--l-max", "600"], 2),
    # no value of the removed --tol is taken, in the quadrature's range or out of it
    (["--tol", "inf", "integrals"], 2),
    (["--tol", "-1", "integrals"], 2),
    (["--tol", "0", "integrals"], 2),
    (["--tol", "1e-300", "integrals"], 2),
    (["--tol", "1e308", "integrals", "--l-max", "2"], 2),
    # a nan partial sum is a failed comparison, not a pass
    (["sum", "--mode", "general", "--m", "1e308", "--k", "1e308", "--n", "5"], 1),
    # a single --l-max spans --l-min..--l-max: 100 002 points, over the grid cap
    (["variational", "--family", "gaussian", "--potential", "coulomb", "--l-max", "100001"], 2),
    # the one sweep runs to the largest n, so n is capped at 10⁷
    (["sum", "--n", "1e12"], 2),
    (["pi", "--n", "10000001"], 2),
    # the centred quadrature follows the narrow Gaussian peak at l = 10⁴
    (["variational", "--family", "gaussian", "--potential", "oscillator",
      "--l-max", "10000,10000", "--method", "numeric"], 0),
    # verify has one set of tolerances and no profile flag
    (["verify", "--tol-profile", "relaxed"], 2),
    # both methods take every level up to the one orbital limit, 10²⁴, and
    # refuse the levels past it before any quadrature
    (["variational", "--family", "gaussian", "--potential", "oscillator",
      "--l-max", "1000001,1000001", "--method", "numeric"], 0),
    (["variational", "--family", "gaussian", "--potential", "coulomb",
      "--l-max", "1e24,1e24", "--method", "numeric"], 0),
    (["variational", "--family", "lorentz", "--potential", "coulomb",
      "--l-max", "1e24,1e24", "--method", "numeric"], 0),
    (["variational", "--family", "gaussian", "--potential", "coulomb", "--l-max", "1e25"], 2),
    (["variational", "--family", "gaussian", "--potential", "coulomb",
      "--l-max", "1e25,1e25"], 2),
    (["variational", "--family", "lorentz", "--potential", "oscillator",
      "--l-max", f"{10**24 + 1},{10**24 + 1}"], 2),
    (["variational", "--family", "gaussian", "--potential", "coulomb",
      "--l-max", "1e25,1e25", "--method", "numeric"], 2),
    (["variational", "--family", "lorentz", "--potential", "coulomb",
      "--l-max", "1e38,1e38", "--method", "numeric"], 2),
    (["variational", "--family", "lorentz", "--potential", "coulomb",
      "--l-max", "1e38,1e38"], 2),
])
def test_edge_argv_exit_codes(capsys, argv, expected):
    # main returns an exit code for each of these, never raising, except
    # that argparse itself exits 2 on a flag it does not know
    usage = "unrecognized arguments"
    if argv[0] == "--tol":
        # before the subcommand argparse takes the value for the command
        usage = f"invalid choice: '{argv[1]}'"
    try:
        code, out, err = run_cli(capsys, *argv)
    except SystemExit as exc:
        code, (out, err) = exc.code, capsys.readouterr()
        assert usage in err
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert out == "" and ("domain error" in err or usage in err)


@pytest.mark.parametrize("argv,message", [
    # before the subcommand argparse takes the value for the command
    (["--tol", "1e-10", "integrals"], "invalid choice: '1e-10'"),
    (["integrals", "--tol", "1e-10"], "unrecognized arguments: --tol 1e-10"),
])
def test_no_option_sets_a_quadrature_tolerance(capsys, argv, message):
    # the integral table runs at the tolerance of its claim, as verify does
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and message in err and "Traceback" not in err


def test_quartic_verdicts_where_the_doubles_fail(capsys):
    # past x = 300 the verdict is the sandwich proven for every x > 300;
    # 1325.03 is the smallest x where the doubles fail, just above it
    code, out, _ = run_cli(capsys, "bounds", "--kind", "quartic", "--grid", "1325.03,5000,1e5")
    assert code == 0
    assert [r["satisfied"] for r in csv.DictReader(io.StringIO(out))] == ["true"] * 3


def test_n_past_the_cap_is_refused_before_the_sweep(capsys, monkeypatch):
    # --n is checked before any term is computed, so 10¹² is refused at once
    def no_sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(wallis_series, "_prefix_fsums", no_sweep)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "sum", "--n", "1e12")
    assert time.perf_counter() - t0 < 20.0
    assert code == 2 and out == "" and "Traceback" not in err


def test_convergence_error_is_exit_1(capsys, monkeypatch):
    # no numeric level up to the limit fails to converge; a quadrature that
    # does is reported with its message, not a traceback
    def not_converging(f, tol):
        raise ConvergenceError("quadrature did not reach tol = 1e-10")

    monkeypatch.setattr(variational_engine, "quad_semiinfinite", not_converging)
    code, out, err = run_cli(capsys, "variational", "--family", "lorentz", "--potential",
                             "coulomb", "--l-max", "3", "--method", "numeric")
    assert code == 1 and out == ""
    assert "convergence error: quadrature did not reach" in err and "Traceback" not in err


def test_certified_bounds_need_no_mpmath(capsys, monkeypatch):
    # the library runs on the standard library and numpy alone: with mpmath
    # blocked, any import of it raises, and both verdicts still decide
    monkeypatch.setitem(sys.modules, "mpmath", None)
    for argv in (["bounds", "--kind", "quartic", "--grid", "0.2,1e5,1e300"],
                 ["bounds", "--kind", "kazarinoff", "--grid", "1e7,1e300"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert "false" not in out


def test_out_to_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "t.csv"
    code, out, err = run_cli(capsys, "--out", str(target), "pi", "--n", "5")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert f"wallisqm: cannot write {target}" in err
    assert not target.exists()


def test_quartic_inf_is_an_out_of_domain_row(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "quartic", "--grid", "inf")
    assert code == 1
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["value"] == "" and row["satisfied"] == "false"
    assert "nan" not in out


@pytest.mark.parametrize("argv", [
    ["pi", "--n", "1:1000000000000"],
    ["bounds", "--kind", "quartic", "--grid", "0:1:1e-12"],
    ["bounds", "--kind", "quartic", "--grid", "0:inf:1"],
    ["pi", "--n", "inf"],
    ["pi", "--n", "1.5"],
    # refused by its exponent, before a billion-digit int is built
    ["pi", "--n", "1e1000000000"],
    ["pi", "--n", "1" + "0" * 5000],
    ["bounds", "--kind", "quartic", "--grid", f"1:{cli._MAX_GRID_POINTS + 1}:1"],
])
def test_oversized_or_non_finite_grid_exits_2(capsys, argv):
    # rejected while parsing, before any grid list is built
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_grid_cap_admits_its_limit():
    assert len(cli._parse_int_spec(f"1:{cli._MAX_GRID_POINTS}")) == cli._MAX_GRID_POINTS
    assert len(cli._parse_float_list("0:1:0.25")) == 5
    cap = cli._MAX_GRID_POINTS
    assert len(cli._parse_float_list(f"1:{cap}:1")) == cap


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["conjure"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv,prefix,direct", [
    (["pi", "--n", "1:100000"], 40,
     lambda n: 2.0 * wallis_series.wallis_partial_product(n)),
    (["sum", "--n", "1:20000"], 25, wallis_series.sum_a_direct),
])
def test_dense_grids_sweep_once(capsys, argv, prefix, direct):
    # one sweep per grid: O(max n) work where a per-point oracle is O(sum n)
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 0 and elapsed < 20.0
    direct_rows = [r for r in rows if r["label"] in ("wallis-pi", "a-sum-direct")]
    assert len(direct_rows) == int(argv[-1].split(":")[1])
    for r in direct_rows[:prefix]:
        assert r["value"] == format(direct(int(r["n_or_l"])), ".17g")
