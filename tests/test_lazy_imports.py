"""What each entry point imports.  A CLI command loads only the modules it
runs and ``import wallisqm`` loads only ``errors``; no CLI command and no
library module loads ``dataclasses``, ``inspect`` or ``mpmath``, and only
the commands that use them load ``json`` and ``decimal``; the package's lazy
submodule attributes and the parser's spelled-out choices keep what the eager
imports gave."""

import argparse
import os
import subprocess
import sys

import pytest

import wallisqm
from wallisqm import cli
from wallisqm.variational_engine import Family, Method, Potential

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
_SUBMODULES = ("gamma_kit", "integral_kit", "variational_engine", "wallis_series")
# modules that cost milliseconds of start-up and that no entry point needs:
# dataclasses (which loads inspect), json for JSON output only, decimal for
# integer tokens such as 1e7 only, and mpmath, a test dependency that the
# library never imports
_WATCHED = {"dataclasses", "inspect", "json", "decimal", "mpmath"}


def _python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_ENV, capture_output=True,
                          text=True, timeout=120)


def _loaded(*args) -> set[str]:
    """The wallisqm modules, numpy, and the _WATCHED modules that a fresh
    ``python -X importtime ARGS`` imports, read from its import-time report
    on stderr.  A _WATCHED module that numpy's own import loads is numpy's
    cost, not the entry point's, and is left out."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = set()
    # the report lists each module after the modules it imports, which are
    # indented deeper; read backwards, the stack holds a line's importers
    stack = []
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:"):
            continue
        field = line.rsplit("|", 1)[1]
        name = field.strip()
        depth = len(field) - len(field.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        under_numpy = any(n.split(".")[0] == "numpy" for _, n in stack)
        stack.append((depth, name))
        if name == "numpy" or name.split(".")[0] == "wallisqm" \
                or (name in _WATCHED and not under_numpy):
            names.add(name)
    return names


# what every command loads; the cli module itself runs as __main__ under -m,
# so the report does not list it.  No command here loads a _WATCHED module:
# pi and bounds, say, write CSV and parse no integer token that int refuses
_EVERY_COMMAND = {"wallisqm", "wallisqm.errors", "wallisqm.gamma_kit"}


@pytest.mark.parametrize("argv,extra", [
    (["pi", "--n", "5"], {"numpy", "wallisqm.wallis_series"}),
    (["sum", "--n", "5"], {"wallisqm.wallis_series"}),
    (["bounds", "--kind", "quartic", "--grid", "2,1e5"], set()),
    (["variational", "--family", "gaussian", "--potential", "coulomb", "--l-max", "2"],
     {"wallisqm.integral_kit", "wallisqm.variational_engine"}),
    (["integrals", "--l-max", "1"], {"wallisqm.integral_kit"}),
    (["verify"], {"wallisqm.integral_kit", "wallisqm.variational_engine", "wallisqm.verify",
                  "wallisqm.wallis_series"}),
], ids=["pi", "sum", "bounds", "variational", "integrals", "verify"])
def test_each_command_loads_only_the_modules_it_runs(argv, extra):
    assert _loaded("-m", "wallisqm.cli", *argv) == _EVERY_COMMAND | extra


def test_import_wallisqm_loads_only_errors():
    assert _loaded("-c", "import wallisqm") == {"wallisqm", "wallisqm.errors"}


@pytest.mark.parametrize("module", [*_SUBMODULES, "verify"])
def test_library_modules_load_no_watched_module(module):
    assert not _loaded("-c", f"import wallisqm.{module}") & _WATCHED


def test_import_report_sees_watched_modules_outside_numpy():
    # JSON output and a token int refuses load json and decimal
    assert {"json", "decimal"} <= _loaded(
        "-m", "wallisqm.cli", "--format", "json", "sum", "--n", "1e1")
    assert {"dataclasses", "inspect"} <= _loaded("-c", "import dataclasses")
    assert "mpmath" in _loaded("-c", "import mpmath")
    # whatever numpy's own import loads is left out
    assert _loaded("-c", "import numpy") == {"numpy"}


def _choices(command: str) -> dict[str, list[str]]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: list(a.choices) for a in sub.choices[command]._actions if a.choices}


def test_variational_choices_are_the_enum_values():
    choices = _choices("variational")
    assert choices["family"] == [v.value for v in Family]
    assert choices["potential"] == [v.value for v in Potential]
    assert choices["method"] == [v.value for v in Method]


@pytest.mark.parametrize("script", [
    # each submodule of __all__ is an attribute after a bare import
    "import sys, wallisqm\n"
    "for name in SUBMODULES:\n"
    "    assert getattr(wallisqm, name) is sys.modules['wallisqm.' + name], name\n",
    # and the star import binds all four
    "import sys\n"
    "from wallisqm import *\n"
    "for name in SUBMODULES:\n"
    "    assert globals()[name] is sys.modules['wallisqm.' + name], name\n",
], ids=["attribute", "star-import"])
def test_submodules_load_on_first_access(script):
    assert [n for n in wallisqm.__all__ if n.islower() and not n.startswith("_")] \
        == list(_SUBMODULES)
    proc = _python("-c", f"SUBMODULES = {_SUBMODULES!r}\n{script}")
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_module'"):
        wallisqm.no_such_module  # noqa: B018
    assert not hasattr(wallisqm, "no_such_module")
