"""Tests of the benchmark itself: schema, seed determinism, input domains,
output checks and the tracer.

    python -m pytest perfbench -q
"""

import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _first_passes(workload, seed, count=3):
    return list(itertools.islice(wl.passes(workload, seed), count))


# -- schema -------------------------------------------------------------------

def test_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert set(wl.TRACE_PASSES) == set(wl.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def test_per_layer_names_match_what_the_trace_computes(spec):
    import wallisqm.verify as verify

    suites = [name for name, _ in verify.CHECKS]
    computed = set(tracer.layer_metrics(tracer.Tracer(), suites, {}))
    computed |= set(tracer.command_metrics(tracer.Tracer(), wl.CLI_SUBCOMMANDS, []))
    computed.add("trace.overhead_frac")
    assert {m["name"] for m in spec["per_layer"]} == computed


# -- seeded inputs ------------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _first_passes(workload, 7) == _first_passes(workload, 7)
    assert _first_passes(workload, 7) != _first_passes(workload, 8)


def test_passes_do_not_repeat_inputs():
    first, second = _first_passes("series", 3, 2)
    assert first != second


def _in_open(v, lo, hi):
    return isinstance(v, float) and lo < v < hi


def _is_int_in(v, lo, hi):
    return isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi


def test_series_inputs_in_domain_and_cover_it():
    ops = [op for p in _first_passes("series", 11, 5) for op in p]
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op[0], []).append(op[1:])
    assert set(by_kind) == set(wl.SERIES_KINDS)
    assert all(len(v) == 5 * wl.SERIES_PER_KIND for v in by_kind.values())
    for (n,) in by_kind["wallis"] + by_kind["kazarinoff"]:
        assert _is_int_in(n, 1, 10**6)
    for (n,) in by_kind["sum_a"]:
        assert _is_int_in(n, 1, 10**4)
    for m, k, n in by_kind["sum_b"]:
        assert _in_open(m, -1.0, 3.0) and _in_open(k, -1.0, 3.0)
        assert 2.0 * (k - m) + 1.0 != 0.0 and _is_int_in(n, 1, 2000)
    for (x,) in by_kind["quartic"]:
        assert 0.2 <= x <= 1e5
    for x, s in by_kind["wendel"]:
        assert 1.0 <= x <= 1e6 and _in_open(s, 0.0, 1.0)

    # the whole documented domain is drawn, not a narrowed part of it
    def spans(values, lo, hi):
        return min(values) <= lo and max(values) >= hi

    assert spans([n for (n,) in by_kind["wallis"]], 3, 6e5)
    assert spans([n for (n,) in by_kind["kazarinoff"]], 3, 6e5)
    assert spans([n for (n,) in by_kind["sum_a"]], 2, 8e3)
    assert spans([m for m, _, _ in by_kind["sum_b"]], -0.98, 2.98)
    assert spans([k for _, k, _ in by_kind["sum_b"]], -0.98, 2.98)
    assert spans([n for _, _, n in by_kind["sum_b"]], 20, 1980)
    assert spans([x for (x,) in by_kind["quartic"]], 0.25, 8e4)
    assert spans([s for _, s in by_kind["wendel"]], 0.01, 0.99)
    # m < -1/2, where the known sum_b fault lives, keeps its 1/8 share
    low = sum(1 for m, _, _ in by_kind["sum_b"] if m < -0.5)
    assert abs(low / len(by_kind["sum_b"]) - 0.125) < 0.01


def test_levels_cover_every_level_once_per_pass():
    domain = wl.level_domain()
    assert len(domain) == 4 * 21 - 1
    for p in _first_passes("levels", 5):
        assert sorted(p) == sorted(domain)
    for _, family, pot, l in domain:
        assert 0 <= l <= 20 and (l >= 1 or (family, pot) != ("lorentz", "oscillator"))


def test_cli_commands_parse_and_stay_in_domain():
    from wallisqm.cli import build_parser

    parser = build_parser()
    for p in _first_passes("cli", 9, 4):
        assert len(p) == 9
        for _, label, argv, expected, params in p:
            args = parser.parse_args(argv)
            assert args.command == label and label in wl.CLI_SUBCOMMANDS
            if label == "pi":
                assert all(1 <= n <= 10**6 for n in args.n) and expected == len(args.n)
            if label == "sum":
                assert expected == 2 * len(args.n) and all(n >= 1 for n in args.n)
                if args.mode == "general":
                    assert _in_open(args.m, -1.0, 3.0) and _in_open(args.k, -1.0, 3.0)
                    assert (args.m, args.k) == (params["m"], params["k"])
            if label == "bounds" and args.kind == "quartic":
                assert all(0.2 <= x <= 1e5 for x in args.grid)
            if label == "bounds" and args.kind == "kazarinoff":
                assert expected == len(args.grid) and all(x == int(x) >= 1 for x in args.grid)


# -- output checks --------------------------------------------------------------

def test_the_seed_fault_fails_and_is_classified():
    from wallisqm import gamma_kit as gk
    from wallisqm import wallis_series as ws

    op = ("sum_b", -0.7, 1.0, 10)
    assert wl.run_series_op(op, gk, ws) is False
    assert wl.known_defect(op) == "sum_b.m_below_half"
    assert wl.known_defect(("sum_b", 0.3, 1.0, 10)) is None
    assert wl.known_defect(("wallis", 10)) is None


def test_series_checks_pass_on_ordinary_inputs():
    from wallisqm import gamma_kit as gk
    from wallisqm import wallis_series as ws

    for op in (("wallis", 1000), ("sum_a", 50), ("sum_b", 0.5, 0.5, 30),
               ("kazarinoff", 12345), ("quartic", 3.5), ("wendel", 100.0, 0.3)):
        assert wl.run_series_op(op, gk, ws) is True, op


def test_cli_table_parsing():
    csv_out = "label,n_or_l\na,1\nb,2\n"
    assert wl.cli_rows(["pi"], csv_out) == 2
    assert wl.cli_rows(["--format", "json", "integrals"], "[{}, {}, {}]") == 3
    verify_out = "PASS a: x\nFAIL b: y\n1/2 invariant suites passed [strict]\n"
    assert wl.cli_rows(["verify"], verify_out) == 2
    assert wl.cli_rows(["verify"], "PASS a: x\n1/2 invariant suites passed\n") is None
    assert wl.cli_rows(["verify"], "") is None
    assert wl.cli_rows(["--format", "json", "integrals"], "not json") is None
    op = ("cli", "pi", ["pi", "--n", "1,2"], 2, {})
    assert wl.check_cli(op, 0, csv_out, "") is True
    # the whole table and the verification-failure code: a wrong value
    assert wl.check_cli(op, 1, csv_out, "") is False
    for returncode, stdout, stderr in ((0, csv_out, "Traceback (most recent call last):"),
                                       (0, "label\na,1\n", ""),
                                       (1, "", "wallisqm: convergence error: x"),
                                       (2, csv_out, ""), (-9, "", "")):
        with pytest.raises(wl.CommandError):
            wl.check_cli(op, returncode, stdout, stderr)


def test_only_a_wrong_value_can_be_a_known_fault():
    import worker

    def crash(op):
        raise ZeroDivisionError("boom")

    sum_b = ("sum_b", -0.7, 1.0, 10)
    cli = ("cli", "sum", ["sum", "--mode", "general", "--m=-0.7", "--k=1.0", "--n", "10"],
           2, {"m": -0.7, "k": 1.0})
    for op in (sum_b, cli):
        wrong = worker._known_faults(lambda op: False, [op])
        assert wrong == {"known_faults": {"sum_b.m_below_half": {"ops": 1, "wrong": 1}},
                         "fault_errors": []}
        crashed = worker._known_faults(crash, [op])
        assert crashed["known_faults"]["sum_b.m_below_half"]["wrong"] == 0
        assert len(crashed["fault_errors"]) == 1


def test_known_fault_inputs_leave_the_timed_loop():
    ops = next(wl.passes("series", 4))
    timed, faulty = wl.split_known_faults(ops)
    assert sorted(timed + faulty) == sorted(ops)
    assert faulty and all(wl.known_defect(op) for op in faulty)
    assert not any(wl.known_defect(op) for op in timed)
    # the timed operations still span every kind and m up to the fault's edge
    assert {op[0] for op in timed} == set(wl.SERIES_KINDS)
    assert min(op[1] for op in timed if op[0] == "sum_b") < -0.45


def test_rounds_report_each_operation_once():
    import worker

    calls = []
    loop = worker.Loop(lambda op: calls.append(op) or op != "bad")
    latencies, probes, rounds = loop.run_rounds(["a", "bad", "c"], 0.0, lambda: 1e-3)
    assert rounds == 1 and len(latencies) == 3 and probes == [1e-3]
    assert calls == ["a", "bad", "c"] and loop.attempted == 3
    assert loop.failures == [("bad", None)]
    assert worker.host_scale([1.0, 2.0, 4.0], 1.0) == 0.5


# -- tracer ---------------------------------------------------------------------

def test_tracer_wraps_every_lookup_and_restores():
    import wallisqm.cli as cli
    import wallisqm.gamma_kit as gk
    import wallisqm.integral_kit as ik
    import wallisqm.variational_engine as ve
    import wallisqm.verify as verify

    originals = (gk.kazarinoff_bounds, cli.kazarinoff_bounds, ve.quad_semiinfinite,
                 ik.wallis_ratio, verify.CHECKS[0][1])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert gk.kazarinoff_bounds is cli.kazarinoff_bounds is not originals[0]
        assert ve.quad_semiinfinite is ik.quad_semiinfinite is not originals[2]
        assert ik.wallis_ratio is gk.wallis_ratio is not originals[3]
        assert verify.CHECKS[0][1] is not originals[4]
        root = tr.begin("op.level")
        ve.variational_energy(ve.Family.GAUSSIAN, ve.Potential.COULOMB, 1, ve.Method.NUMERIC)
        tr.finish(root)
    finally:
        tr.uninstall()
    assert (gk.kazarinoff_bounds, cli.kazarinoff_bounds, ve.quad_semiinfinite,
            ik.wallis_ratio, verify.CHECKS[0][1]) == originals

    names = [tr.names[i] for i in tr.name_id]
    assert names[0] == "op.level" and tr.parent[0] == -1
    assert all(p < i for i, p in enumerate(tr.parent))
    quads = [i for i, n in enumerate(names) if n == "integral_kit.quad_semiinfinite"]
    assert quads and all(names[tr.parent[i]] == "variational_engine.expectation_energy_numeric"
                         for i in quads)
    m = tracer.layer_metrics(tr, [], {})
    assert m["variational_engine.objective_calls_per_level"] == len(quads) / 2
    assert m["integral_kit.quad_semiinfinite.evals_per_call"] == (
        sum(tr.count[i] for i in quads) / len(quads))
    # self times partition the traced time of the layers
    layer_total = sum(tr.end[i] - tr.start[i] for i in range(len(tr)) if tr.parent[i] == 0)
    self_total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert math.isclose(self_total, layer_total, rel_tol=1e-9)


def test_trace_file_round_trip(tmp_path):
    tr = tracer.Tracer()
    a = tr.begin("op.x")
    b = tr.begin("gamma_kit.f")
    tr.finish(b, 7)
    tr.finish(a)
    tr.extra["import_s"] = 0.5
    path = str(tmp_path / "t.trace")
    tr.write(path)
    parent = tracer.Tracer()
    root = parent.begin("op.cli")
    assert parent.merge_file(path, root) == {"import_s": 0.5}
    parent.finish(root)
    assert [parent.names[i] for i in parent.name_id] == ["op.cli", "op.x", "gamma_kit.f"]
    assert list(parent.parent) == [-1, 0, 1]
    assert list(parent.count) == [0, 0, 7]


# -- the command ----------------------------------------------------------------

def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "levels", "--seed", "1",
         "--seconds", "0.1", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_the_result_object(spec):
    proc = _run(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(wl.level_domain())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
