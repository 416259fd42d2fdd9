"""The one validation boundary: every public function and dataclass that
takes an index or a real rejects a bool, nan, ±inf and a string with
DomainError, as well as a non-integral float or an int too long to print in
an index slot, an integer too large for a double in either slot, and an
index past the limit of a call whose work grows with it; every Family,
Potential and Method slot takes only a member of its enum; and the CLI,
whatever its argv, exits 0, 1 or 2 without a traceback."""

import contextlib
import io
import itertools
import math
import sys
import time

import mpmath as mp

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallisqm import gamma_kit as gk
from wallisqm import integral_kit as ik
from wallisqm import variational_engine as ve
from wallisqm import wallis_series as ws
from wallisqm.cli import main
from wallisqm.errors import DomainError

_P = ws.GeneralizedParams(0.5, 0.5)
_G, _C = ve.Family.GAUSSIAN, ve.Potential.COULOMB
_SPEC = ve.TrialSpec(_G, 1, 0.25)

# each slot: a call that places its one argument there, all others valid
INDEX_SLOTS = {
    "wallis_ratio": gk.wallis_ratio,
    "kazarinoff_bounds": gk.kazarinoff_bounds,
    "duplication_residual": gk.duplication_residual,
    "wallis_partial_product": ws.wallis_partial_product,
    "a_seq": ws.a_seq,
    "scaled_a": ws.scaled_a,
    "sum_a_recurrence": ws.sum_a_recurrence,
    "sum_a_direct": ws.sum_a_direct,
    "b_seq": lambda n: ws.b_seq(_P, n),
    "sum_b_partial": lambda n: ws.sum_b_partial(_P, n),
    "gaussian_moment": ik.gaussian_moment,
    "G_rational": ik.G_rational,
    "lorentz_norm_integral": ik.lorentz_norm_integral,
    "lorentz_coulomb_integral": ik.lorentz_coulomb_integral,
    "coulomb_to_norm_ratio": ik.coulomb_to_norm_ratio,
    "TrialSpec.l": lambda l: ve.TrialSpec(_G, l, 0.25),
    "optimal_param_closed": lambda l: ve.optimal_param_closed(_G, _C, l),
    "exact_energy": lambda l: ve.exact_energy(_C, l),
    "variational_energy": lambda l: ve.variational_energy(_G, _C, l),
    "variational_energy.numeric": lambda l: ve.variational_energy(_G, _C, l, ve.Method.NUMERIC),
    "expectation_energy_numeric.l": lambda l: ve.expectation_energy_numeric(
        ve.TrialSpec(_G, l, 0.25), _C),
}

REAL_SLOTS = {
    "GammaRatioQuery.x": lambda v: gk.GammaRatioQuery(v, 0.0, 0.5),
    "GammaRatioQuery.a": lambda v: gk.GammaRatioQuery(3.0, v, 0.5),
    "GammaRatioQuery.b": lambda v: gk.GammaRatioQuery(3.0, 0.5, v),
    "quartic_root_bounds": gk.quartic_root_bounds,
    "wendel_deviation.x": lambda v: gk.wendel_deviation(v, 0.5),
    "wendel_deviation.s": lambda v: gk.wendel_deviation(10.0, v),
    "GeneralizedParams.m": lambda v: ws.GeneralizedParams(v, 0.5),
    "GeneralizedParams.k": lambda v: ws.GeneralizedParams(0.5, v),
    "RationalMomentQuery.m": lambda v: ik.RationalMomentQuery(v, 4.0),
    "RationalMomentQuery.n": lambda v: ik.RationalMomentQuery(0.0, v),
    "beta_trig_integral.p": lambda v: ik.beta_trig_integral(v, 1.0),
    "beta_trig_integral.q": lambda v: ik.beta_trig_integral(1.0, v),
    "quad_semiinfinite.tol": lambda v: ik.quad_semiinfinite(lambda x: math.exp(-x), v),
    "TrialSpec.param": lambda v: ve.TrialSpec(_G, 1, v),
}

_NEVER_VALID = [True, math.nan, math.inf, -math.inf, "3"]

_M = ve.Method.NUMERIC
# each enum slot: (function, slot) -> a call that places its one argument
# there, all others valid
ENUM_SLOTS = {
    ("TrialSpec", "family"): lambda v: ve.TrialSpec(v, 1, 0.25),
    ("expectation_energy_closed", "pot"): lambda v: ve.expectation_energy_closed(_SPEC, v),
    ("expectation_energy_numeric", "pot"): lambda v: ve.expectation_energy_numeric(_SPEC, v),
    ("optimal_param_closed", "family"): lambda v: ve.optimal_param_closed(v, _C, 2),
    ("optimal_param_closed", "pot"): lambda v: ve.optimal_param_closed(_G, v, 2),
    ("exact_energy", "pot"): lambda v: ve.exact_energy(v, 2),
    ("variational_energy", "family"): lambda v: ve.variational_energy(v, _C, 2, _M),
    ("variational_energy", "pot"): lambda v: ve.variational_energy(_G, v, 2, _M),
    ("variational_energy", "method"): lambda v: ve.variational_energy(_G, _C, 2, v),
}
# the enums' own value strings, and values that a truth or identity test
# would take for some member
_NOT_MEMBERS = ["coulomb", "gaussian", None, True, 0]


@pytest.mark.parametrize("bad", _NOT_MEMBERS, ids=repr)
@pytest.mark.parametrize("slot", sorted(ENUM_SLOTS), ids=".".join)
def test_enum_slot_rejects_a_non_member(slot, bad, monkeypatch):
    # a value that is not a member once picked the other branch silently,
    # or ran the numeric quadrature under another method's name
    def no_quadrature(*args, **kwargs):
        raise AssertionError("work done for an argument that is not a member")

    monkeypatch.setattr(ve, "quad_semiinfinite", no_quadrature)
    with pytest.raises(DomainError, match=slot[1] if slot[1] != "pot" else "potential"):
        ENUM_SLOTS[slot](bad)


@pytest.mark.parametrize("slot", sorted(ENUM_SLOTS), ids=".".join)
def test_enum_slot_accepts_every_member(slot):
    kind = {"family": ve.Family, "pot": ve.Potential, "method": ve.Method}[slot[1]]
    for member in kind:
        ENUM_SLOTS[slot](member)


@pytest.mark.parametrize("bad", _NEVER_VALID + [
    1.5, pytest.param(-10**5000, id="-10**5000"), pytest.param(10**400, id="10**400")], ids=repr)
@pytest.mark.parametrize("slot", sorted(INDEX_SLOTS))
def test_index_slot_rejects(slot, bad):
    with pytest.raises(DomainError):
        INDEX_SLOTS[slot](bad)


# each slot with an upper limit, and its largest index: the calls whose work
# grows with their index, and those whose result would stop being a double
# or whose offsets would stop being exact
INDEX_LIMITS = {
    "wallis_partial_product": 10**7,
    "sum_a_direct": 10**7,
    "G_rational": 10**7,
    "a_seq": 2**511 - 1,
    "b_seq": 2**52 - 2,
    "sum_b_partial": 2**52 - 2,
    # one orbital limit for every function and both methods
    "TrialSpec.l": ve._MAX_L,
    "exact_energy": ve._MAX_L,
    "optimal_param_closed": ve._MAX_L,
    "variational_energy": ve._MAX_L,
    "variational_energy.numeric": ve._MAX_L,
    "expectation_energy_numeric.l": ve._MAX_L,
}


@pytest.mark.parametrize("slot", sorted(INDEX_LIMITS))
def test_index_one_past_its_limit_is_rejected_at_once(slot):
    start = time.perf_counter()
    with pytest.raises(DomainError):
        INDEX_SLOTS[slot](INDEX_LIMITS[slot] + 1)
    assert time.perf_counter() - start < 0.1


def test_results_at_the_value_limits_are_sound():
    # a_n is still a normal double, b_n and its partial sum still see exact
    # offsets, and every closed form and numeric ⟨H⟩ at the largest l is finite
    assert ws.a_seq(2**511 - 1) >= sys.float_info.min
    n = 2**52 - 2
    with mp.workdps(50):
        N = mp.mpf(n)
        ref = float(mp.gamma(N + 0.5) ** 2 / (mp.gamma(N + 1) * mp.gamma(N + 2)))
    assert ws.b_seq(_P, n) == pytest.approx(ref, rel=1e-13)
    part = ws.sum_b_partial(_P, n)
    assert abs(part.tail_bound) < 1e-13 and part.value == pytest.approx(part.closed_form_limit)
    l = ve._MAX_L
    for family, pot in itertools.product(ve.Family, ve.Potential):
        for param in (1e-75, 1e75):
            spec = ve.TrialSpec(family, l, param)
            assert math.isfinite(ve.expectation_energy_closed(spec, pot))
            assert math.isfinite(ve.expectation_energy_numeric(spec, pot))
        for method in ve.Method:
            est = ve.variational_energy(family, pot, l, method)
            assert all(math.isfinite(v) and v != 0.0
                       for v in (est.value, est.optimal_param, est.exact_reference))


@pytest.mark.parametrize("bad", _NEVER_VALID + [pytest.param(10**400, id="10**400")], ids=repr)
@pytest.mark.parametrize("slot", sorted(REAL_SLOTS))
def test_real_slot_rejects(slot, bad):
    with pytest.raises(DomainError):
        REAL_SLOTS[slot](bad)


@pytest.mark.parametrize("slot", sorted(INDEX_SLOTS) + sorted(REAL_SLOTS))
def test_slot_accepts_three(slot):
    # the rejections above are not vacuous: 3 and 3.0 are valid in every slot
    call = INDEX_SLOTS.get(slot) or REAL_SLOTS[slot]
    call(3)
    call(3.0)


_VALUES = ["0", "1", "2", "3", "7", "-1", "0.5", "nan", "inf", "-inf", "1e400",
           "", "1:0", "1:3", "1,2"]
_value = st.sampled_from(_VALUES)


def _args(required=(), optional=()):
    """Each required (flag, values) pair, then any subset of the optional ones."""
    parts = [v.map(lambda x, f=f: [f, x]) for f, v in required]
    parts += [st.one_of(st.just([]), v.map(lambda x, f=f: [f, x])) for f, v in optional]
    return st.tuples(*parts).map(lambda ps: sum(ps, []))


_COMMANDS = st.one_of(
    _args(optional=[("--n", _value)]).map(lambda a: ["pi"] + a),
    _args(optional=[("--mode", st.sampled_from(["simple", "general"])), ("--m", _value),
                    ("--k", _value), ("--n", _value)]).map(lambda a: ["sum"] + a),
    _args([("--kind", st.sampled_from(["kazarinoff", "quartic", "wendel"]))],
          [("--grid", _value), ("--s", _value)]).map(lambda a: ["bounds"] + a),
    _args(optional=[("--l-max", _value)]).map(lambda a: ["integrals"] + a),
    _args([("--family", st.sampled_from(["gaussian", "lorentz"])),
           ("--potential", st.sampled_from(["coulomb", "oscillator"]))],
          [("--l-max", _value), ("--l-min", _value)]).map(lambda a: ["variational"] + a),
)
_GLOBALS = _args(optional=[("--format", st.sampled_from(["csv", "json"]))])


@given(_GLOBALS, _COMMANDS)
@example([], ["variational", "--family", "gaussian", "--potential", "coulomb", "--l-max", ""])
@settings(max_examples=200, deadline=None)
def test_cli_argv_fuzz_never_tracebacks(global_flags, command):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(global_flags + command)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (global_flags + command, code)
    assert "Traceback" not in err.getvalue()
