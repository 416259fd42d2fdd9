"""One fresh interpreter of the benchmark: set up, then measure or probe.

usage: python perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``probe`` (set up, report the ready time, exit), ``measure`` (the
seed's first pass, untraced, round after round for SECONDS) or ``trace``
(the workload's fixed ``workloads.TRACE_PASSES`` passes untraced, then the
same passes replayed with every layer traced; SECONDS is not used).
Operations whose inputs lie in a known program fault are left out of the
timed loop and run once each after it (``known_faults`` in the output).
The last line of standard output is one JSON object; ``ready`` is the
``time.monotonic`` reading at which set-up finished, for the parent to turn
into set-up time.
"""

import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 150


def _set_up(workload: str):
    """Import the library, pay the workload's one-time warm-up, and return
    the function that runs one operation and checks its output."""
    import wallisqm

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([src, os.path.abspath(wallisqm.__file__)]) != src:
        raise RuntimeError(f"wallisqm imported from {wallisqm.__file__}, not {src}")
    if workload == "series":
        from wallisqm import gamma_kit as gk
        from wallisqm import wallis_series as ws

        wl.series_warmup(gk, ws)
        return lambda op: wl.run_series_op(op, gk, ws)
    if workload == "levels":
        from wallisqm import variational_engine as ve

        wl.levels_warmup(ve)
        return lambda op: wl.run_level_op(op, ve)
    import wallisqm.cli  # noqa: F401  (what every command pays before its work)

    return _run_command


def _run_command(op, trace_file=None) -> bool:
    _, label, argv, _, _ = op
    if trace_file is None:
        cmd = [sys.executable, "-m", "wallisqm.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_file, label, *argv]
    # a timeout raises, and the loop counts it as a failed operation
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return wl.check_cli(op, proc.returncode, proc.stdout, proc.stderr)


# The host's speed drifts by tens of per cent over seconds to minutes, and
# a whole run can sit in a slow spell.  So a fixed reference task, which
# does not touch the library, is timed all through the run, and the times
# of in-process operations and of set-ups are scaled to a host on which
# that task's median takes its nominal time (about its median on the 2-vCPU
# Xeon host the bounds were set on): a slow spell slows both and cancels
# out.  In-process operations are scaled by a small kernel timed between
# them; a set-up, whose time is mostly interpreter start and imports, by a
# fresh interpreter that imports numpy.  CLI commands are reported as
# measured: that reference tracked them no better than their raw times.
REFERENCE_KERNEL_S = 1.1e-3
REFERENCE_COMMAND_S = 0.25
PROBE_EVERY_S = 0.05


def reference_kernel_s() -> float:
    """Seconds taken by one run of the reference kernel: a float loop and
    numpy passes, the two kinds of work the library does in process."""
    import numpy as np  # imported here, after set-up, which it must not move

    # arrays stay well below glibc's mmap threshold, so what the library
    # did to the allocator does not change the kernel's speed
    x = np.linspace(0.0, 5.0, 2000)
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 4000):
        s += math.exp(-i * 1e-4) / i
    for _ in range(40):
        s += float(np.exp(-x).sum())
    return time.perf_counter() - t0


def reference_command_s(env=None) -> float:
    """Seconds taken by a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, env=env,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def host_scale(samples, nominal_s: float) -> float:
    """Factor that turns times measured alongside ``samples`` of a reference
    task into times on the host where its median is ``nominal_s``."""
    return nominal_s / statistics.median(samples)


class Loop:
    """Closed loop: one operation at a time, the next started when the
    previous one has returned.  Every run of an operation is checked."""

    def __init__(self, execute):
        self.execute = execute
        self.attempted = 0
        self.failures: list[tuple] = []  # (op, None for a wrong value or the error)

    def run_op(self, op, *extra) -> float:
        """Run and check one operation; returns its latency in seconds."""
        t0 = time.perf_counter()
        try:
            failure = None if self.execute(op, *extra) else (op, None)
        except Exception as exc:  # an exception, a crash or a timeout fails the operation
            failure = (op, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        self.attempted += 1
        if failure:
            self.failures.append(failure)
        return latency

    def run_rounds(self, ops, seconds: float, probe=None
                   ) -> tuple[list[float], list[float], int]:
        """Run the whole list ``ops`` round after round until ``seconds``
        have passed, calling ``probe``, if given, between operations every
        PROBE_EVERY_S; returns each operation's median latency over the
        rounds, the probe times and the number of rounds."""
        samples: list[list[float]] = [[] for _ in ops]
        probes: list[float] = []
        deadline = time.perf_counter() + seconds
        next_probe = 0.0
        rounds = 0
        while True:
            for i, op in enumerate(ops):
                samples[i].append(self.run_op(op))
                if probe and time.perf_counter() >= next_probe:
                    probes.append(probe())
                    next_probe = time.perf_counter() + PROBE_EVERY_S
            rounds += 1
            if time.perf_counter() >= deadline:
                return [statistics.median(v) for v in samples], probes, rounds


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _summary(latencies: list[float], loop: Loop, rounds: int, scale: float = 1.0) -> dict:
    """Figures over one latency per distinct operation, scaled by ``scale``."""
    latencies = [t * scale for t in latencies]
    out = {
        "ops": len(latencies),
        "attempted": loop.attempted,
        "rounds": rounds,
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "op_ms.p50": statistics.median(latencies) * 1e3,
        "failures": [wl.describe(op) + (f": {error}" if error else ": wrong value")
                     for op, error in loop.failures],
    }
    if len(latencies) >= 100:  # at least ten operations lie beyond the 90th percentile
        out["op_ms.p90"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return out


def _known_faults(execute, ops) -> dict:
    """Run each operation whose inputs lie in a known program fault once,
    untimed.  Returns, per fault, how many ran and how many gave a wrong
    value, and every other failure, which no known fault explains."""
    faults: dict[str, dict] = {}
    errors: list[str] = []
    for op in ops:
        counts = faults.setdefault(wl.known_defect(op), {"ops": 0, "wrong": 0})
        counts["ops"] += 1
        try:
            if not execute(op):
                counts["wrong"] += 1
        except Exception as exc:
            errors.append(f"{wl.describe(op)}: {type(exc).__name__}: {exc}")
    return {"known_faults": faults, "fault_errors": errors}


def _traced(workload: str, seed: int, execute) -> dict:
    from tracer import Tracer, command_metrics, layer_metrics

    import wallisqm.verify as verify

    ops, faulty = [], []
    for p in itertools.islice(wl.passes(workload, seed), wl.TRACE_PASSES[workload]):
        timed, known = wl.split_known_faults(p)
        ops += timed
        faulty += known
    reference = Loop(execute)
    reference_s = math.fsum(reference.run_op(op) for op in ops)
    suites = [name for name, _ in verify.CHECKS]

    tr = Tracer()
    tr.install()
    traced = Loop(execute)
    traced_s = []
    rows: dict[int, int] = {}
    import_s: list[float] = []
    trace_dir = os.path.join(HERE, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    child_file = os.path.join(trace_dir, f"child-{os.getpid()}.trace")
    for op in ops:
        kind = op[1] if op[0] == "cli" else op[0]
        root = tr.begin(f"op.{kind}")
        if workload == "cli":
            traced_s.append(traced.run_op(op, child_file))
            if os.path.exists(child_file):  # absent if the command was killed
                import_s.append(tr.merge_file(child_file, root)["import_s"])
                os.remove(child_file)
            if kind in ("pi", "sum"):
                rows[root] = op[3] // (2 if kind == "sum" else 1)
        else:
            traced_s.append(traced.run_op(op))
            if kind in ("wallis", "sum_a", "sum_b"):
                rows[root] = 1
        tr.finish(root)
    tr.uninstall()
    tr.extra["env"] = environment()
    tr.write(os.path.join(trace_dir, f"{workload}.trace"))

    metrics = layer_metrics(tr, suites, rows)
    metrics.update(command_metrics(tr, wl.CLI_SUBCOMMANDS, import_s))
    metrics["trace.overhead_frac"] = math.fsum(traced_s) / reference_s - 1.0
    traced.attempted += reference.attempted
    traced.failures += reference.failures
    out = _summary(traced_s, traced, 2)
    out["layer_metrics"] = metrics
    out["spans"] = len(tr)
    out.update(_known_faults(execute, faulty))
    return out


def environment() -> dict:
    from importlib import metadata

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": sys.version.split()[0], **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    execute = _set_up(workload)
    ready = time.monotonic()
    if mode == "probe":
        out = {}
    elif mode == "trace":
        out = _traced(workload, seed, execute)
    else:
        ops, faulty = wl.split_known_faults(next(wl.passes(workload, seed)))
        loop = Loop(execute)
        if workload == "cli":
            latencies, _, rounds = loop.run_rounds(ops, seconds)
            scale = 1.0
        else:
            latencies, probes, rounds = loop.run_rounds(ops, seconds, reference_kernel_s)
            scale = host_scale(probes, REFERENCE_KERNEL_S)
        out = _summary(latencies, loop, rounds, scale)
        out["host_scale"] = scale
        out["raw_op_ms.p50"] = statistics.median(latencies) * 1e3
        out.update(_known_faults(execute, faulty))
    out["ready"] = ready
    out["peak_rss_mb"] = _peak_rss_mb(workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
