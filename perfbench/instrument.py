"""Measurement helpers of the benchmark: layer timers, the trace fold,
PMU deltas and the resource-hygiene snapshot.

Everything here drives the program only through its public objects:
it wraps methods on *instances* the workload built, reads
``repro.obs`` spans and counters, and looks at the operating system's
view of the process.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import glob
import os
import resource
import threading
import time
from collections import defaultdict

from repro.obs.pmu import get_pmu

#: Span name -> per-layer metric holding that span's *self* time (its
#: duration minus the part of it that its child spans cover).
SPAN_LAYERS = {
    "serve.admit": "serve.admit_ms",
    "serve.pack": "serve.pack_ms",
    "serve.dispatch": "serve.dispatch_ms",
    "serve.scatter": "serve.scatter_ms",
    "cluster.dispatch": "runtime.cluster_dispatch_ms",
    "router.place": "serve.router_place_ms",
    "replica.transport": "runtime.replica_transport_ms",
    "replica.execute": "runtime.replica_execute_ms",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


def timing_metrics(name: str, samples) -> dict:
    """``<name>.count``, ``<name>.p50`` and ``<name>.p99`` of one
    timing sample set (milliseconds)."""
    return {f"{name}.count": len(samples),
            f"{name}.p50": percentile(samples, 50),
            f"{name}.p99": percentile(samples, 99)}


class LayerTimer:
    """Self-time recorder for wrapped instance methods.

    :meth:`wrap` replaces ``obj.attr`` with a timing shim.  Calls nest
    per thread, and each sample is the call's duration minus the time
    spent in wrapped calls it made, so ``lazy.evaluate_ms`` excludes
    the transposition and engine time recorded under their own names.
    """

    def __init__(self) -> None:
        self.samples: "defaultdict[str, list[float]]" = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, obj, attr: str, name: str, grew=None) -> None:
        """Replace ``obj.attr`` with :meth:`timed` of it."""
        setattr(obj, attr, self.timed(name, getattr(obj, attr), grew))

    def timed(self, name: str, inner, grew=None):
        """``inner`` with each call's self time recorded under
        ``name``; with ``grew`` (a counter callable) only calls that
        raised the counter are kept, i.e. compiles that missed the
        kernel cache."""

        def timed(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            before = grew() if grew is not None else None
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if grew is None or grew() > before:
                    with self._lock:
                        self.samples[name].append(
                            (elapsed - nested) * 1e3)

        return timed

    def clear(self, keep=()) -> None:
        """Drop recorded samples except the names in ``keep``."""
        with self._lock:
            for name in list(self.samples):
                if name not in keep:
                    del self.samples[name]


def log_child_compiles(cls, path: str) -> None:
    """Time the cache-missing ``compile``/``compile_expr`` calls that
    instances of ``cls`` make in *forked children* of this process
    (replicas), appending one line of milliseconds per compile to
    ``<path>-<pid>.txt``; the children's memory is out of reach, so
    the samples travel through files.  Call before the fork."""
    owner = os.getpid()
    for attr in ("compile", "compile_expr"):
        inner = getattr(cls, attr)

        def timed(self, *args, _inner=inner, **kwargs):
            before = self.kernel_cache_size
            t0 = time.perf_counter()
            try:
                return _inner(self, *args, **kwargs)
            finally:
                pid = os.getpid()
                if pid != owner and self.kernel_cache_size > before:
                    with open(f"{path}-{pid}.txt", "a",
                              encoding="utf-8") as log:
                        log.write(f"{(time.perf_counter() - t0) * 1e3!r}\n")

        setattr(cls, attr, timed)


def read_child_compiles(path: str) -> "list[float]":
    samples = []
    for name in glob.glob(f"{path}-*.txt"):
        with open(name, encoding="utf-8") as log:
            samples += [float(line) for line in log if line.strip()]
    return samples


def _self_time(span) -> float:
    """Span duration minus the union of its children's intervals
    (children may run on other threads and overlap)."""
    t0, t1 = span.t0, span.t1
    intervals = sorted((max(c.t0, t0), min(c.t1, t1))
                       for c in span.children
                       if c.t1 is not None and c.t1 > c.t0)
    covered, end = 0.0, t0
    for lo, hi in intervals:
        lo = max(lo, end)
        if hi > lo:
            covered += hi - lo
            end = hi
    return max(0.0, (t1 - t0) - covered)


class TraceFold:
    """Folds drained ``serve.request`` trees into per-layer samples.

    The service grafts each pack's shared dispatch subtree into every
    request that rode in the pack (``Span.copy_tree`` keeps ``t0``,
    ``t1``, ``pid`` and ``tid``), so a span is counted once per
    ``(name, t0, t1, pid, tid)``: shared work is summed once, not once
    per rider.
    """

    def __init__(self) -> None:
        self.samples: "defaultdict[str, list[float]]" = defaultdict(list)
        self._seen: set = set()
        #: (start, wall seconds) of every distinct replica dispatch.
        self.transports: "list[tuple[float, float]]" = []

    def add(self, roots) -> None:
        for root in roots:
            if root.t1 is None:
                continue
            self.samples["serve.request_ms"].append(root.duration * 1e3)
            packs = [c.t0 for c in root.children if c.name == "serve.pack"]
            if packs:
                self.samples["serve.queue_wait_ms"].append(
                    (min(packs) - root.t0) * 1e3)
            for node in root.walk():
                metric = SPAN_LAYERS.get(node.name)
                if metric is None or node.t1 is None:
                    continue
                key = (node.name, node.t0, node.t1, node.pid, node.tid)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self.samples[metric].append(_self_time(node) * 1e3)
                if node.name == "replica.transport":
                    self.transports.append((node.t0, node.duration))

    def uptime_ratio(self) -> float:
        """Mean per-dispatch replica wall time of the last tenth of
        dispatches over that of the first tenth (0.0 without enough
        dispatches to form both tenths)."""
        ordered = [d for _, d in sorted(self.transports)]
        tenth = len(ordered) // 10
        if tenth == 0:
            return 0.0
        first = sum(ordered[:tenth]) / tenth
        last = sum(ordered[-tenth:]) / tenth
        return last / first if first > 0 else 0.0


def pmu_counts(module_ids) -> dict:
    """Summed PMU counters of the given modules (``dram.*`` names)."""
    modules = get_pmu().snapshot()["modules"]
    out = {"dram.busy_ns": 0.0, "dram.energy_nj": 0.0,
           "dram.activations": 0.0, "dram.transposition_bits": 0.0,
           "dram.dispatches": 0.0}
    for module_id in module_ids:
        row = modules[module_id]
        out["dram.busy_ns"] += row["busy_ns"]
        out["dram.energy_nj"] += row["energy_nj"]
        out["dram.activations"] += sum(b["activations"]
                                       for b in row["banks"])
        out["dram.transposition_bits"] += row["transposition_bits"]
        out["dram.dispatches"] += row["dispatches"]
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0.0) for k in after}


class Hygiene:
    """Snapshot of the resources a run can leak: ``psm_*`` shared
    memory segments, live non-daemon threads and flight-recorder spill
    files under the run's scratch directory."""

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        self.before = self._take()

    def _take(self) -> dict:
        try:
            shm = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
        except OSError:
            shm = set()
        threads = {t.ident for t in threading.enumerate()
                   if t.is_alive() and not t.daemon}
        spills = set(glob.glob(os.path.join(self.scratch, "**", "*.json*"),
                               recursive=True))
        return {"shm": shm, "threads": threads, "spills": spills}

    def leaks(self) -> dict:
        after = self._take()
        return {"runtime.leaked_shm":
                len(after["shm"] - self.before["shm"]),
                "runtime.leaked_threads":
                len(after["threads"] - self.before["threads"]),
                "obs.leaked_spill_files":
                len(after["spills"] - self.before["spills"])}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
