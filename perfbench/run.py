"""wallisqm benchmark: one workload, one seed, one run.

usage: python3 perfbench/run.py --workload {series,levels,cli} --seed N
                                --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up probes and the measuring run are fresh worker interpreters
(``worker.py``), started one at a time.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones;
README.md defines them.

The last line of standard output is the result object; the line before it
holds the environment, ``fail_frac``, the failures, the known program faults
(operations split off the timed loop, and how many of them gave a wrong
value) and, where a run holds at least 100 operations, ``op_ms.p90``.
``correct`` is false when a timed operation fails, or a split-off one fails
other than by a wrong value; every failed timed run of an operation counts
in ``failed``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0


def _spawn(workload: str, seed: int, seconds: float, mode: str, env: dict,
           deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           repr(seconds), mode]
    t0 = time.monotonic()
    # own process group, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - t0))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{stderr[-4000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    return out, out["ready"] - t0


def _metric_spec(section: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("series", "levels", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # a stop request unwinds through _spawn, which kills the worker's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "wallisqm", "__init__.py")):
        print(f"benchmark: no wallisqm sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    deadline = time.monotonic() + RUN_LIMIT_S

    from worker import REFERENCE_COMMAND_S, environment, host_scale, reference_command_s

    try:
        if args.trace:
            result, _ = _spawn(args.workload, args.seed, args.seconds, "trace", env, deadline)
            values = result["layer_metrics"]
            section = "per_layer"
        else:
            # set-up probes before and after the measuring worker, so the
            # median spans the run rather than one moment of the host's
            # speed; each set-up is scaled by the reference command run
            # right after it
            raw_setups, setups = [], []

            def set_up_once(seconds, mode):
                out, raw_setup = _spawn(args.workload, args.seed, seconds, mode, env,
                                        deadline)
                raw_setups.append(raw_setup)
                setups.append(raw_setup * host_scale([reference_command_s(env)],
                                                     REFERENCE_COMMAND_S))
                return out

            for _ in range(SETUP_SAMPLES // 2):
                set_up_once(0.0, "probe")
            result = set_up_once(args.seconds, "measure")
            for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2):
                set_up_once(0.0, "probe")
            values = {
                "setup_s": statistics.median(setups),
                "ops_per_s": result["ops_per_s"],
                "op_ms.p50": result["op_ms.p50"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            section = "end_to_end"
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    failures = result["failures"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(), "ops": result["ops"], "rounds": result["rounds"],
        "fail_frac": len(failures) / result["attempted"],
        "failures": failures[:20],
        "known_faults": result["known_faults"],
        "fault_errors": result["fault_errors"][:20],
    }
    for key in ("op_ms.p90", "spans", "host_scale", "raw_op_ms.p50"):
        if key in result:
            info[key] = result[key]
    if args.trace:
        info["trace.overhead_frac"] = values["trace.overhead_frac"]
    else:
        info["setup_samples_s"] = setups
        info["raw_setup_s"] = statistics.median(raw_setups)
    print(json.dumps({"info": info}))

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in _metric_spec(section)}
    print(json.dumps({
        "correct": not failures and not result["fault_errors"],
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
