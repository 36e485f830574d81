"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk_map --seed 1 --seconds 10 \
        --trace 0

Each measurement runs in a fresh interpreter (``worker.py``), because
forked replica children inherit the parent's flight-recorder ring and a
second run in one process would start with a full one.

* ``--trace 0`` runs the workload once with tracing off and reports the
  end-to-end metrics.  ``setup_s`` is the median over that run and four
  more set-up-only interpreters.
* ``--trace 1`` runs it once with tracing off and once traced, and
  reports the per-layer metrics of the traced run plus the tracing
  overhead (traced against untraced throughput).

Metric names and units come from ``BENCHMARK.json``; a per-layer metric
of a layer the workload does not pass through reads 0.  The last line
of standard output is the JSON result.  The run fails (``correct`` is
false) on any failed operation, any leaked shared-memory segment,
thread or spill file, or ``bulk_map`` PMU counts that differ between
interpreters given the same seed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Every interpreter must be finished this long after start, so that a
#: run ends within 180 s even when a worker hangs.
BUDGET_S = 170.0
SETUP_PROBES = 4
#: prctl(2) option that makes orphaned descendants re-parent here.
PR_SET_CHILD_SUBREAPER = 36


class RunError(Exception):
    """A worker produced no result."""


def launch(args, mode: str, scratch: str, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its result."""
    env = dict(os.environ,
               PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=scratch,
               REPRO_FLIGHTREC_DIR=os.path.join(scratch, "flightrec"))
    launched = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--launched", repr(launched)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{mode} run timed out")
    finally:
        reap_group(proc.pid)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} run exited with {proc.returncode}")
    return json.loads(lines[-1])


def become_subreaper() -> None:
    """Adopt orphaned descendants (the workers' resource trackers), so
    :func:`reap_group` can wait for them instead of for ``init``."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait until every process of the worker's session has ended and
    been reaped; stragglers are killed after ``grace_s`` and given as
    long again to go."""
    start = time.monotonic()
    killed = False
    while time.monotonic() - start < 2 * grace_s:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if not killed and time.monotonic() - start > grace_s:
            os.killpg(pgid, signal.SIGKILL)
            killed = True
        time.sleep(0.01)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk_map", "serve_mixed",
                                 "serve_replica"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "src", "repro",
                                        "__init__.py"))
            and os.path.isfile(spec_path)):
        print("perfbench: no program under src/repro to benchmark",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    deadline = time.monotonic() + BUDGET_S
    become_subreaper()
    # Every interpreter of the run (the replica included) shares one
    # CPU.  On a shared 2-vCPU VM, keeping both vCPUs busy multiplied
    # host steal time five- to tenfold and swung serve_mixed throughput
    # by up to 2x between runs; on one CPU the spread stayed near 5%.
    # The GIL runs one thread at a time, so in-process workloads lose
    # little.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.trace:
            runs = [launch(args, "run", scratch, deadline),
                    launch(args, "traced", scratch, deadline)]
        else:
            runs = [launch(args, "run", scratch, deadline)]
            runs += [launch(args, "setup", scratch, deadline)
                     for _ in range(SETUP_PROBES)]
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    errors = [e for run in runs for e in run["errors"]]
    leaks = sum(run["leaks"] for run in runs)
    dram = [run["dram_pass"] for run in runs if run["dram_pass"]]
    if any(d != dram[0] for d in dram):
        errors.append("PMU counts differ between runs with one seed")
    if args.trace:
        measured = dict(runs[1]["layers"])
        base = runs[0]["metrics"]
        key = ("host_melem_per_s" if args.workload == "bulk_map"
               else "serve_rps")
        measured["obs.trace_overhead_frac"] = (
            1.0 - runs[1]["metrics"][key] / base[key] if base[key] else 0.0)
        for name in ("runtime.leaked_shm", "runtime.leaked_threads",
                     "obs.leaked_spill_files"):
            measured[name] = sum(run["layers"][name] for run in runs)
        wanted = spec["per_layer"]
    else:
        measured = dict(runs[0]["metrics"])
        measured["setup_s"] = statistics.median(
            run["setup_s"] for run in runs)
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        value = measured.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:40s} {value:>16.6g} {entry['unit']}")
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    result = {"correct": not errors and failed == 0 and leaks == 0,
              "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
