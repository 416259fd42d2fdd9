"""Golden tables: the README commands must print the stored output.

Each file under ``tests/golden/`` is the standard output of one command
(csv, json or the verify report), and the exit code sits beside it in
``GOLDEN``.  A change that is meant to keep the tables byte-identical (a
speed-up, a refactor) must leave every file as it is.

The files hold the doubles that one platform's libm and numpy produce, and
``tests/golden/PLATFORM.json`` names that platform (numpy version, machine,
libc).  There the output must match byte for byte.  Elsewhere the last bits
of log1p, exp or pow may differ, so each line must keep its text and every
number must agree to ``FOREIGN_RTOL`` of the largest non-integer number on
its line (for json, in its record); verify's measured deviations, the
numbers it prints in exponent form, may differ freely, but its verdicts may
not.  Both checks run on the reference platform too.  To write the files
afresh, check out the commit whose output is the reference and run

    PYTHONPATH=src python tests/test_golden_tables.py
"""

import contextlib
import importlib.metadata
import io
import json
import pathlib
import platform
import re
import sys

import pytest

from wallisqm.cli import main

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
PLATFORM_FILE = GOLDEN_DIR / "PLATFORM.json"
FOREIGN_RTOL = 1e-14

# file name -> (argv, exit code)
GOLDEN = {
    "pi.csv": (["pi", "--n", "1,100,10000,1000000"], 0),
    "pi_dense.csv": (["pi", "--n", "1:2000:7"], 0),
    "sum.csv": (["sum", "--n", "1:10000:999"], 0),
    "sum_general.csv": (["sum", "--mode", "general", "--m", "0.5", "--k", "0.5",
                         "--n", "2000"], 0),
    "sum_general_grid.csv": (["sum", "--mode", "general", "--m", "0.5", "--k", "1",
                              "--n", "1,10,100"], 0),
    # real shifts: the kernel folds the two-sum residues of n + m and n + k
    "sum_general_real.csv": (["sum", "--mode", "general", "--m", "-0.4", "--k", "2.3",
                              "--n", "1:2000:37"], 0),
    "variational_lorentz_coulomb.csv": (["variational", "--family", "lorentz",
                                         "--potential", "coulomb", "--l-max", "20"], 0),
    "variational_lorentz_oscillator.csv": (["variational", "--family", "lorentz",
                                            "--potential", "oscillator", "--l-min", "1",
                                            "--l-max", "10"], 0),
    "variational_gaussian_coulomb_numeric.csv": (["variational", "--family", "gaussian",
                                                  "--potential", "coulomb", "--method",
                                                  "numeric", "--l-max", "20"], 0),
    "variational_gaussian_oscillator_numeric.csv": (["variational", "--family", "gaussian",
                                                     "--potential", "oscillator", "--method",
                                                     "numeric", "--l-max", "20"], 0),
    "variational_lorentz_coulomb_numeric.csv": (["variational", "--family", "lorentz",
                                                 "--potential", "coulomb", "--method",
                                                 "numeric", "--l-max", "20"], 0),
    "variational_lorentz_oscillator_numeric.csv": (["variational", "--family", "lorentz",
                                                    "--potential", "oscillator", "--method",
                                                    "numeric", "--l-min", "1", "--l-max", "20"],
                                                   0),
    "bounds_kazarinoff.csv": (["bounds", "--kind", "kazarinoff", "--grid", "1:1000:37"], 0),
    "bounds_quartic.csv": (["bounds", "--kind", "quartic", "--grid",
                            "0.2,1,100,100000"], 0),
    "integrals.json": (["--format", "json", "integrals", "--l-max", "15"], 0),
    "verify.txt": (["verify"], 0),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def this_platform():
    return {"numpy": importlib.metadata.version("numpy"),
            "machine": platform.machine(),
            "libc": " ".join(platform.libc_ver())}


def _records(name, text):
    """Lines of a csv or verify output, or one line per json record."""
    if name.endswith(".json"):
        return [json.dumps(r, sort_keys=True) for r in json.loads(text)]
    return text.splitlines()


def assert_close(name, out, golden):
    """The check off the reference platform: same text, numbers to FOREIGN_RTOL."""
    got, want = _records(name, out), _records(name, golden)
    assert len(got) == len(want), f"{name}: {len(got)} records, expected {len(want)}"
    for line, ref in zip(got, want):
        assert _NUMBER.sub("#", line) == _NUMBER.sub("#", ref), (line, ref)
        pairs = [(a, b) for a, b in zip(_NUMBER.findall(line), _NUMBER.findall(ref))
                 if not (name == "verify.txt" and "e" in b.lower())]
        # integers (an n, a count) set no scale, so they must match exactly
        scale = max((abs(float(b)) for _, b in pairs if not b.lstrip("+-").isdigit()),
                    default=0.0)
        for a, b in pairs:
            a, b = float(a), float(b)
            assert abs(a - b) <= FOREIGN_RTOL * max(scale, abs(a), abs(b)), (line, ref)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(name):
    argv, expected_code = GOLDEN[name]
    code, out = run(argv)
    assert code == expected_code
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert_close(name, out, golden)
    if this_platform() == json.loads(PLATFORM_FILE.read_text(encoding="utf-8")):
        assert out == golden


class TestAssertClose:
    # the check that runs off the reference platform, exercised here
    ROW = "wallis-pi,100,3.133787490628162,3.1415926535897931,0.0078051629616311402,0.5\n"

    def test_last_bits_pass(self):
        assert_close("pi.csv", self.ROW,
                     self.ROW.replace("3.133787490628162", "3.1337874906281624"))
        assert_close("pi.csv", self.ROW.replace("0.0078051629616311402", "0.0"),
                     self.ROW.replace("0.0078051629616311402", "1.1e-16"))

    @pytest.mark.parametrize("old,new", [
        ("3.133787490628162", "3.1337874906285"),  # a 1e-13 relative change
        ("wallis-pi", "wallis-pj"),
        (",100,", ",101,"),
        (",0.5", ",0.5,"),
    ])
    def test_changed_text_or_value_fails(self, old, new):
        with pytest.raises(AssertionError):
            assert_close("pi.csv", self.ROW.replace(old, new), self.ROW)

    def test_json_records_and_verify_measurements(self):
        rec = [{"label": "gaussian-moment", "n_or_l": 1, "value": 0.5, "abs_error": 0.0}]
        near = [dict(rec[0], abs_error=5e-17)]
        assert_close("integrals.json", json.dumps(near), json.dumps(rec))
        line = "PASS gamma-recurrence-ratio: max rel dev 1.65e-14 (tol 1e-13)\n"
        assert_close("verify.txt", line.replace("1.65e-14", "2.20e-14"), line)
        with pytest.raises(AssertionError):
            assert_close("verify.txt", line.replace("PASS", "FAIL"), line)
        with pytest.raises(AssertionError):
            assert_close("verify.txt", "PASS a: 1039 points\n", "PASS a: 1040 points\n")

    def test_reference_platform_is_recorded(self):
        assert set(json.loads(PLATFORM_FILE.read_text(encoding="utf-8"))) == set(this_platform())


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, expected_code) in GOLDEN.items():
        code, out = run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
    PLATFORM_FILE.write_text(json.dumps(this_platform(), indent=2) + "\n", encoding="utf-8")
