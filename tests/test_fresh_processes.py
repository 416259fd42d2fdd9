"""Checks of whole processes: a command or script run in a fresh interpreter,
where what is checked is the process itself (its wall time, its peak memory,
what it can run without, or a script's exit status)."""

import os
import pathlib
import subprocess
import sys

import pytest

from wallisqm.errors import _MAX_GRID_POINTS

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(_ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _python(*args, timeout=120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_ENV, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("kind,grid", [
    ("quartic", "1e303:1.7e308:1.7e303"),
    ("kazarinoff", "1e303:1.7e308:1.7e303"),
    # a float grid of exactly 10⁵ points is admitted
    ("kazarinoff", "1:100000:1"),
])
def test_grids_at_the_cap_finish_within_60_s_every_row_true(kind, grid):
    # no verdict pays a per-point proof: 10⁵ points, up to the largest
    # double, take about 2 s a command; the timeout fails the test at 60 s
    proc = _python("-m", "wallisqm.cli", "bounds", "--kind", kind, "--grid", grid, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == _MAX_GRID_POINTS
    assert all(row.endswith(",true") for row in rows)


# ru_maxrss is in KiB on Linux and in bytes on macOS
_PEAK_RSS_MB = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "wallisqm.cli", "pi", "--n", "10000000"],
               check=True, stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak / (2**20 if sys.platform == "darwin" else 2**10))
"""


def test_pi_sweep_to_the_n_cap_stays_under_64_mb():
    # the sweep to n = 10⁷ holds one chunk of terms, not a Python float per
    # term (about 29 MB).  The helper's only child is the command, so its
    # RUSAGE_CHILDREN peak is the command's, whatever pytest ran before
    proc = _python("-c", _PEAK_RSS_MB)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 64.0


_BOUNDS_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
from wallisqm.cli import main
sys.exit(main(["bounds", "--kind", "quartic", "--grid", "0.2,1e5,1e300"])
         or main(["bounds", "--kind", "kazarinoff", "--grid", "1e7,1e300"]))
"""


def test_bounds_run_with_mpmath_blocked_before_any_import():
    # both verdicts run on the standard library: with mpmath blocked before
    # wallisqm is imported, an import of it anywhere raises
    proc = _python("-c", _BOUNDS_WITHOUT_MPMATH)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_every_demo_exits_0():
    demos = sorted((_ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        proc = _python(str(demo))
        assert proc.returncode == 0, (demo.name, proc.stderr[-2000:])
