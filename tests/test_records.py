"""The result records are named tuples with the fields, defaults, docstrings
and methods the frozen dataclasses had: immutable, equal and equally hashed
when their fields are, printed as ``Name(field=value, ...)``.  A record that
validates its fields raises the same DomainError from every construction
path: the constructor, ``_make``, ``_replace`` and, from Python 3.13,
``copy.replace``."""

import copy
import math
import pickle
import re
import sys

import pytest

from wallisqm import cli, verify
from wallisqm.errors import DomainError
from wallisqm.gamma_kit import BoundsTriple, GammaRatioQuery
from wallisqm.integral_kit import QuadratureParts, QuadratureResult, RationalMomentQuery
from wallisqm.variational_engine import EnergyEstimate, Family, Method, TrialSpec
from wallisqm.wallis_series import GeneralizedParams, PartialSum

_Q = QuadratureResult(1.0, 1e-12, 42, 3)
_GAP = verify._Gap(abs, math.fabs, list)

# record -> (fields, defaults, the values of one valid record)
RECORDS = {
    GammaRatioQuery: (("x", "a", "b"), {}, (2.0, 1.0, 0.5)),
    BoundsTriple: (("lower", "value", "upper", "satisfied"), {}, (1.0, 2.0, 3.0, True)),
    PartialSum: (("n_terms", "value", "closed_form_limit", "tail_bound"), {},
                 (10, 0.5, None, 0.25)),
    GeneralizedParams: (("m", "k"), {}, (0.5, 1.0)),
    RationalMomentQuery: (("m", "n"), {}, (2.0, 3.0)),
    QuadratureResult: (("value", "abs_error_estimate", "evaluations", "levels"), {},
                       (1.0, 1e-12, 42, 3)),
    QuadratureParts: (("parts", "evaluations", "levels"), {}, ((_Q, _Q), 42, 3)),
    TrialSpec: (("family", "l", "param"), {}, (Family.LORENTZ, 2, 0.5)),
    EnergyEstimate: (("value", "optimal_param", "method", "exact_reference",
                      "ratio_to_exact"), {}, (-0.4, 1.5, Method.CLOSED_FORM, -0.5, 0.8)),
    cli.ReportRow: (("label", "n_or_l", "value", "reference", "bound"), {"bound": None},
                    ("pi", 5, 3.0, 3.25, 0.5)),
    cli.BoundsRow: (("label", "x", "lower", "value", "upper", "satisfied"), {},
                    ("quartic", 2.0, None, None, None, False)),
    verify.CheckResult: (("name", "passed", "detail", "measured", "tolerance"),
                         {"measured": None, "tolerance": None},
                         ("claim", True, "max rel dev", 1e-15, 1e-13)),
    verify._Gap: (("path", "other", "grid", "gap"), {"gap": verify._rel},
                  (abs, math.fabs, list, verify._abs)),
    verify.Claim: (("name", "tol", "template", "measure"), {}, ("claim", None, "rule", _GAP)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordContract:
    def test_fields_and_defaults(self, cls):
        fields, defaults, _ = RECORDS[cls]
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        # its own docstring, not the generated "Name(field, ...)"
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")

    def test_immutable(self, cls):
        fields, _, values = RECORDS[cls]
        rec = cls(*values)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, 0)
        with pytest.raises(AttributeError):
            rec.not_a_field = 0

    def test_equal_fields_equal_records_and_hashes(self, cls):
        values = RECORDS[cls][2]
        a, b = cls(*values), cls(*values)
        assert a == b and hash(a) == hash(b)
        # the deliberate change from the dataclasses: a record is a tuple
        assert a == values and tuple(a) == values

    def test_repr(self, cls):
        fields, _, values = RECORDS[cls]
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({shown})"

    def test_every_construction_path_keeps_the_type(self, cls):
        values = RECORDS[cls][2]
        rec = cls(*values)
        for other in (cls._make(values), rec._replace(), copy.copy(rec),
                      pickle.loads(pickle.dumps(rec)), cls(**dict(zip(cls._fields, values)))):
            assert type(other) is cls and other == rec


def test_defaults_fill_the_trailing_fields():
    assert cli.ReportRow("pi", 5, 3.0, 3.25).bound is None
    res = verify.CheckResult("claim", False, "raised")
    assert (res.measured, res.tolerance) == (None, None)
    assert verify._Gap(abs, abs, list).gap is verify._rel


def test_methods_survive():
    assert cli.ReportRow("pi", 5, 3.0, 3.25).abs_error == 0.25
    # worst relative gap |x - 2x|/|2x| = 1/2, first at x = 1
    gap = verify._Gap(lambda x: x, lambda x: 2.0 * x, lambda: [1.0, 2.0, (3.0,)])
    assert gap() == (0.5, 1.0)


# how a construction path builds a record of the bad values, given a valid one
PATHS = {
    "constructor": lambda cls, good, bad: cls(*bad),
    "_make": lambda cls, good, bad: cls._make(bad),
    "_replace": lambda cls, good, bad: cls(*good)._replace(**dict(zip(cls._fields, bad))),
    "copy.replace": lambda cls, good, bad: copy.replace(cls(*good),
                                                        **dict(zip(cls._fields, bad))),
}

# validating record -> (valid values, invalid values, the DomainError message)
INVALID = [
    (GammaRatioQuery, (1.0, 1.0, 0.0), (1.0, -2.0, 0.0),
     "gamma pole: x+a = -1.0, x+b = 1.0 must both be positive"),
    (GammaRatioQuery, (1.0, 1.0, 0.0), (math.nan, 1.0, 0.0),
     "x must be a finite real number, got nan"),
    (GeneralizedParams, (0.5, 0.5), (0.5, -2.0),
     "k must exceed -1 (gamma pole at n = 1), got k = -2.0"),
    (GeneralizedParams, (0.5, 0.5), (-1.0, 0.5),
     "m must exceed -1 (gamma pole at n = 1), got m = -1.0"),
    (GeneralizedParams, (0.5, 0.5), (1.0, 0.5),
     "k - m = -1/2 makes the closed-form prefactor singular (m = 1.0, k = 0.5)"),
    (RationalMomentQuery, (0.0, 1.0), (0.0, 0.25),
     "divergent at infinity: need 2n - m > 1, got 2·0.25 - 0.0"),
    (RationalMomentQuery, (0.0, 1.0), (-0.5, 1.0),
     "numerator power must be nonnegative, got m = -0.5"),
    (RationalMomentQuery, (0.0, 1.0), (0.0, True),
     "n must be a finite real number, got True"),
    (TrialSpec, (Family.GAUSSIAN, 3, 0.5), (Family.GAUSSIAN, 3, 0.0),
     "scale parameter must lie in [1e-75, 1e+75], got 0.0"),
    (TrialSpec, (Family.GAUSSIAN, 3, 0.5), (Family.GAUSSIAN, 2.5, 0.5),
     "orbital number l requires an integer in [0, 1e+76], got 2.5"),
    (TrialSpec, (Family.GAUSSIAN, 3, 0.5), ("gaussian", 3, 0.5),
     "family must be a Family member, got 'gaussian'"),
]


@pytest.mark.parametrize("path", [
    *(p for p in PATHS if p != "copy.replace"),
    pytest.param("copy.replace", marks=pytest.mark.skipif(
        sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")),
])
@pytest.mark.parametrize("cls,good,bad,message", INVALID,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(INVALID)])
def test_every_construction_path_validates(path, cls, good, bad, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        PATHS[path](cls, good, bad)


def test_trial_spec_stores_the_validated_int():
    spec = TrialSpec(Family.GAUSSIAN, 3.0, 0.5)
    assert type(spec.l) is int and spec.l == 3
    for other in (spec._replace(l=4.0), TrialSpec._make((Family.GAUSSIAN, 4.0, 0.5))):
        assert type(other.l) is int and other.l == 4
    if sys.version_info >= (3, 13):
        assert type(copy.replace(spec, l=5.0).l) is int


def test_make_keeps_the_tuple_length_check():
    with pytest.raises(TypeError):
        GeneralizedParams._make((0.5, 0.5, 0.5))
    with pytest.raises(TypeError):
        BoundsTriple._make((1.0, 2.0, 3.0))
