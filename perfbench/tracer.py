"""Span tracing of the wallisqm layers, from outside the library.

``Tracer.install`` replaces every public function of the six layer modules
with a timing wrapper, everywhere a caller looks it up: the defining
module, every module that bound it with ``from … import`` (``cli``,
``variational_engine``, ``integral_kit``), and the ``verify.CHECKS`` suite
table.  Each call records one span (name, parent span, start, end, and an
optional work count such as quadrature evaluations) in flat in-memory
arrays; ``write`` stores them once, when the run ends.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import statistics
import time

LAYERS = ("gamma_kit", "wallis_series", "integral_kit", "variational_engine",
          "verify", "cli")

# Work counts read from a call's arguments or result.
_COUNTS = {
    "integral_kit.quad_semiinfinite": lambda args, result: result.evaluations,
    "wallis_series.wallis_partial_product": lambda args, result: int(args[0]),
}


class Tracer:
    """Flat span store: span i has name ``names[name_id[i]]``, parent span
    ``parent[i]`` (-1 at the root), start/end in ``time.perf_counter``
    seconds and a work ``count``.  Parents precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.count = array.array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.extra: dict = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int, count: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.count[idx] = count
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        counter = _COUNTS.get(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, count = self.start, self.end, self.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            count.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count[idx] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        import importlib

        modules = [importlib.import_module(f"wallisqm.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("wallisqm"))
        for layer, mod in zip(LAYERS, modules):
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                traced = self.wrap(fn, f"{layer}.{attr}")
                for other in modules:
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            self._undo.append((other, key, fn))
                            setattr(other, key, traced)
        verify = modules[LAYERS.index("verify")]
        original = list(verify.CHECKS)
        self._undo.append((verify, "CHECKS", original))
        verify.CHECKS[:] = [(name, self.wrap(fn, f"verify.{name}")) for name, fn in original]

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._undo):
            if key == "CHECKS":
                mod.CHECKS[:] = val
            else:
                setattr(mod, key, val)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.start)

    # -- storage -------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON header line, then the five columns as raw arrays."""
        header = {"names": self.names, "spans": len(self), "extra": self.extra,
                  "columns": ["name_id:i", "parent:i", "start:d", "end:d", "count:q"]}
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_id, self.parent, self.start, self.end, self.count):
                col.tofile(fh)
        os.replace(tmp, path)

    def merge_file(self, path: str, root: int) -> dict:
        """Append the spans written by a child process under span ``root``;
        returns the child's ``extra`` record."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            cols = []
            for code in ("i", "i", "d", "d", "q"):
                col = array.array(code)
                col.fromfile(fh, n)
                cols.append(col)
        ids = [self._intern(name) for name in header["names"]]
        base = len(self)
        name_id, parent, start, end, count = cols
        self.name_id.extend(ids[i] for i in name_id)
        self.parent.extend(root if p < 0 else p + base for p in parent)
        self.start.extend(start)
        self.end.extend(end)
        self.count.extend(count)
        return header["extra"]


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def layer_metrics(tr: Tracer, suites: list[str], rows: dict[int, int]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics, in one pass.

    ``rows`` maps each root span of an oracle operation (a Wallis product,
    a partial sum, or a ``pi``/``sum`` command) to the grid rows it emitted.
    """
    nid = tr._ids.get
    a_seq, b_seq = nid("wallis_series.a_seq", -1), nid("wallis_series.b_seq", -1)
    direct_a = nid("wallis_series.sum_a_direct", -1)
    partial_b = nid("wallis_series.sum_b_partial", -1)
    product = nid("wallis_series.wallis_partial_product", -1)
    quad = nid("integral_kit.quad_semiinfinite", -1)
    level_name = nid("variational_engine.variational_energy", -1)
    energy = nid("variational_engine.expectation_energy_numeric", -1)
    verify_run = nid("verify.run", -1)

    names = len(tr.names)
    calls, total, counts = [0] * names, [0.0] * names, [0] * names
    n = len(tr)
    child = array.array("d", bytes(8 * n))   # time in traced children
    root = array.array("i", bytes(4 * n))    # the operation a span serves
    level = array.array("i", bytes(4 * n))   # enclosing variational_energy
    in_verify = array.array("b", bytes(n))
    terms = objective = evals = verify_b = 0
    numeric_levels = set()
    for i in range(n):
        name, p, c = tr.name_id[i], tr.parent[i], tr.count[i]
        d = tr.end[i] - tr.start[i]
        calls[name] += 1
        total[name] += d
        counts[name] += c
        if p < 0:
            root[i], level[i], in_verify[i], pname = i, -1, 0, -1
        else:
            child[p] += d
            root[i], level[i], in_verify[i], pname = root[p], level[p], in_verify[p], tr.name_id[p]
        if name == level_name:
            level[i] = i
        elif name == verify_run:
            in_verify[i] = 1
        if root[i] in rows:  # oracle terms: n per product, one per direct a_n or b_n
            if name == product:
                terms += c
            elif (name == a_seq and pname == direct_a) or (name == b_seq and pname != partial_b):
                terms += 1
        lv = level[i]
        if lv >= 0:
            if name == energy and p == lv:
                numeric_levels.add(lv)
                objective += 1
            elif name == quad:
                evals += c
        if name == b_seq and in_verify[i]:
            verify_b += 1

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_of = [name.split(".", 1)[0] for name in tr.names]
    for i in range(n):
        layer = layer_of[tr.name_id[i]]
        if layer in layer_self:
            layer_self[layer] += tr.end[i] - tr.start[i] - child[i]

    def ratio(a, b):
        return a / b if b else 0.0

    def by(name: str, table) -> float:
        i = nid(name, -1)
        return table[i] if i >= 0 else 0

    out: dict[str, float] = {}
    for fn in ("kazarinoff_bounds", "quartic_root_bounds", "wendel_deviation",
               "gamma_ratio", "wallis_ratio"):
        out[f"gamma_kit.{fn}.calls"] = by(f"gamma_kit.{fn}", calls)
        out[f"gamma_kit.{fn}.s"] = by(f"gamma_kit.{fn}", total)
    for fn in ("wallis_partial_product", "a_seq", "scaled_a", "b_seq",
               "sum_a_direct", "sum_b_partial", "sum_b_closed"):
        out[f"wallis_series.{fn}.calls"] = by(f"wallis_series.{fn}", calls)
        out[f"wallis_series.{fn}.s"] = by(f"wallis_series.{fn}", total)
    out["wallis_series.oracle_terms_per_row"] = ratio(terms, sum(rows.values()))

    quad_calls = by("integral_kit.quad_semiinfinite", calls)
    out["integral_kit.quad_semiinfinite.calls"] = quad_calls
    out["integral_kit.quad_semiinfinite.s"] = by("integral_kit.quad_semiinfinite", total)
    out["integral_kit.quad_semiinfinite.evals_per_call"] = ratio(
        by("integral_kit.quad_semiinfinite", counts), quad_calls)

    # a numeric level is a variational_energy span with <H> quadratures below it
    out["variational_engine.objective_calls_per_level"] = ratio(objective, len(numeric_levels))
    out["variational_engine.quad_evals_per_level"] = ratio(evals, len(numeric_levels))
    out["variational_engine.expectation_energy_numeric.s"] = by(
        "variational_engine.expectation_energy_numeric", total)

    runs = by("verify.run", calls)
    for suite in suites:
        out[f"verify.{suite}.s"] = ratio(by(f"verify.{suite}", total), runs)
    out["verify.b_seq_calls_per_run"] = ratio(verify_b, runs)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


def command_metrics(tr: Tracer, subcommands: list[str], import_s: list[float]) -> dict[str, float]:
    """Median wall time of each CLI subcommand's ``main`` and of the import."""
    out = {}
    for sub in subcommands:
        i = tr._ids.get(f"cli.{sub}", -1)
        ds = [(tr.end[j] - tr.start[j]) * 1e3 for j in range(len(tr)) if tr.name_id[j] == i]
        out[f"cli.{sub}.ms"] = statistics.median(ds) if ds else 0.0
    out["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    return out
