"""One run of one benchmark workload, in a fresh interpreter.

Usage (``run.py`` launches this; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload bulk_map --seed 1 \
        --seconds 10 --mode run --launched <time.monotonic() at launch>

``--mode run`` sets up, measures for ``--seconds`` with tracing off and
reports the end-to-end metrics; ``--mode traced`` does the same with
the layer timers and the service tracer on and reports the per-layer
metrics; ``--mode setup`` only sets up and tears down (``setup_s``
probe).  The last line of standard output is one JSON object.

Inputs come from ``--seed`` alone; the program only ever sees the
generated vectors.  Every result is checked against the numpy golden
models in unsigned ``w``-bit encoding, since max, min and relu return
two's complement.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import sys
import tempfile
import time
import traceback

import numpy as np

from instrument import (Hygiene, LayerTimer, TraceFold, delta,
                        log_child_compiles, peak_rss_mb, percentile,
                        pmu_counts, read_child_compiles, timing_metrics)
from repro import Simdram, SimdramCluster, SimdramService, get_operation
from repro import lazy
from repro.core import expr
from repro.obs.pmu import get_pmu
from repro.obs.tracing import Tracer
from repro.serve.router import ReplicaRouter
from repro.serve.streaming import affine_relu_step

#: bulk_map vector length: 64 lane-batches of the default 512 lanes.
BULK_ELEMENTS = 32768
#: bulk_map's catalog calls: (operation, width).  Widths 8 -> 32 shift
#: the transposition-to-engine ratio; max is the signed comparison.
BULK_CALLS = (("add", 8), ("mul", 8), ("add", 16), ("max", 16),
              ("add", 32))

EXPR_ADD = expr.op("add", expr.inp("a"), expr.inp("b"))
AFFINE_RELU = affine_relu_step()
#: Serve request mix: (kind, width, weight).  ``expr_add`` is the
#: one-node twin of catalog add; add@16 packs apart from the 8-bit ops.
SERVE_MIX = (("add", 8, 0.14), ("sub", 8, 0.12), ("max", 8, 0.12),
             ("min", 8, 0.12), ("mul", 8, 0.10), ("expr_add", 8, 0.12),
             ("affine_relu", 8, 0.12), ("add", 16, 0.16))
SERVE_ROOTS = {"expr_add": EXPR_ADD, "affine_relu": AFFINE_RELU}
SERVE_MANIFEST = [(SERVE_ROOTS.get(kind, kind), width)
                  for kind, width, _ in SERVE_MIX]
SERVE_TENANTS = 8
SERVE_POOL = 1024
MAX_REQUEST_LANES = 64


def mask(width: int) -> int:
    return (1 << width) - 1


def matches(out, golden: np.ndarray, out_width: int) -> bool:
    """Bit-exact in unsigned ``out_width``-bit encoding."""
    out = np.asarray(out)
    return (out.shape == golden.shape
            and np.array_equal(out.astype(np.int64) & mask(out_width),
                               golden & mask(out_width)))


def catalog_case(rng, op: str, width: int, n: int, signed=False):
    """Operands (as the caller would pass them) plus golden output."""
    spec = get_operation(op)
    lo, hi = ((-(1 << (width - 1)), 1 << (width - 1)) if signed
              else (0, 1 << width))
    operands = [rng.integers(lo, hi, n) for _ in range(spec.arity)]
    unsigned = [v & mask(width) for v in operands]
    golden = np.asarray(spec.golden(unsigned, width), dtype=np.int64)
    return operands, golden, spec.out_width(width)


def expr_case(rng, root, width: int, n: int):
    feeds = {name: rng.integers(0, 1 << width, n)
             for name in expr.input_names(root)}
    golden = np.asarray(expr.golden(root, feeds, width), dtype=np.int64)
    return feeds, golden, expr.analyze(root, width).out_width


def wrap_exec(timer: LayerTimer, sim: Simdram) -> None:
    """Time one module's transposition unit and control unit."""
    timer.wrap(sim.transposer, "host_to_vertical", "exec.transpose_in_ms")
    timer.wrap(sim.transposer, "vertical_to_host", "exec.transpose_out_ms")
    timer.wrap(sim.control, "execute_on_module", "exec.engine_ms")


def wrap_compiles(timer: LayerTimer, target) -> None:
    """Time the compiles of a ``Simdram`` or ``SimdramCluster`` that
    miss its kernel cache."""
    for attr in ("compile", "compile_expr"):
        timer.wrap(target, attr, "core.compile_ms",
                   grew=lambda: target.kernel_cache_size)


class Counts:
    """Attempted/failed operation counts plus error notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


class BulkMap:
    """One ``Simdram()`` running a fixed sequence of long-vector calls:
    five catalog ``map`` calls, one ``map_expr`` and one lazy pipeline
    (64 lane-sized ``.numpy()`` evaluations), 32768 elements each."""

    def __init__(self, seed: int, timer: "LayerTimer | None") -> None:
        self.seed = seed
        self.timer = timer
        self.counts = Counts()
        self.verified_elements = self.verified_calls = 0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.sim = sim = Simdram()
        self.device = lazy.device(sim)
        if self.timer is not None:
            wrap_exec(self.timer, sim)
            wrap_compiles(self.timer, sim)
        self.calls = []
        for op, width in BULK_CALLS:
            operands, golden, out_w = catalog_case(
                rng, op, width, BULK_ELEMENTS, signed=op == "max")
            sim.compile(op, width)
            self.calls.append((f"map:{op}@{width}",
                               self._catalog_call(op, width, operands),
                               golden, out_w))
        feeds, golden, out_w = expr_case(rng, AFFINE_RELU, 8, BULK_ELEMENTS)
        sim.compile_expr(AFFINE_RELU, 8)
        self.calls.append(("map_expr:affine_relu@8",
                           lambda: sim.map_expr(AFFINE_RELU, feeds,
                                                width=8), golden, out_w))
        sources = [rng.integers(0, 256, BULK_ELEMENTS) for _ in range(3)]
        lanes = sim.module.lanes
        self.lazy_chunks = [[v[i:i + lanes] for v in sources]
                            for i in range(0, BULK_ELEMENTS, lanes)]
        lowered = [self.device.export(self._pipeline(chunk))
                   for chunk in self.lazy_chunks]
        golden = np.concatenate([expr.golden(*low) for low in lowered])
        root, _, width = lowered[0]
        out_w = expr.analyze(root, width).out_width
        self.calls.append(("lazy:(x+y).max(z)-3", self._lazy_call,
                           golden, out_w))
        self.warm_counts = self.run_pass()

    def _catalog_call(self, op, width, operands):
        return lambda: self.sim.map(op, *operands, width=width)

    def _pipeline(self, chunk):
        x, y, z = (lazy.array(v, width=8, device=self.device)
                   for v in chunk)
        return (x + y).maximum(z) - 3

    def _lazy_call(self) -> np.ndarray:
        outs = []
        for chunk in self.lazy_chunks:
            evaluate = self._pipeline(chunk).numpy
            if self.timer is not None:
                evaluate = self.timer.timed("lazy.evaluate_ms", evaluate)
            outs.append(evaluate())
        return np.concatenate(outs)

    def run_pass(self) -> dict:
        """One pass over the call sequence; returns its PMU counts.
        The PMU is zeroed first: a delta of float sums that already
        hold earlier passes would differ in the last bits."""
        get_pmu().reset()
        for label, call, golden, out_w in self.calls:
            self.counts.attempted += 1
            try:
                out = call()
            except Exception as error:  # noqa: BLE001 - a failed op
                self.counts.fail(f"{label}: {error!r}")
                continue
            if matches(out, golden, out_w):
                self.verified_elements += len(golden)
                self.verified_calls += 1
            else:
                self.counts.fail(f"{label}: result differs from golden")
        return pmu_counts([self.sim.module.pmu_id])

    def measure(self, seconds: float) -> tuple[dict, dict]:
        sim, timer = self.sim, self.timer
        if timer is not None:
            timer.clear(keep=("core.compile_ms",))
        self.verified_elements = self.verified_calls = 0
        cache0 = sim.kernel_cache_size
        hits0, misses0 = (sim.control.plan_cache_hits,
                          sim.control.plan_cache_misses)
        latencies: list[float] = []
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.run_pass())
            latencies.append((time.perf_counter() - t0) * 1e3)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        if any(p != passes[0] for p in passes):
            self.counts.fail("PMU counts differ between identical passes")
        per_pass = passes[0]
        elements = BULK_ELEMENTS * len(self.calls)
        metrics = {
            "host_melem_per_s": self.verified_elements / elapsed / 1e6,
            "serve_rps": self.verified_calls / elapsed,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
            "modeled_gops": elements / per_pass["dram.busy_ns"],
            "modeled_gops_per_w": elements / per_pass["dram.energy_nj"],
        }
        hits = sim.control.plan_cache_hits - hits0
        misses = sim.control.plan_cache_misses - misses0
        layers = dict(per_pass)
        layers["core.compiles_in_run"] = sim.kernel_cache_size - cache0
        layers["exec.plan_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        if timer is not None:
            for name, samples in timer.samples.items():
                layers.update(timing_metrics(name, samples))
        return metrics, layers

    def close(self) -> None:
        pass


class Serve:
    """A ``SimdramService`` over one backend, driven as a closed loop:
    one generating thread keeps ``outstanding`` requests in flight,
    submitting the next as soon as any completes."""

    outstanding = 64

    def __init__(self, seed: int, timer: "LayerTimer | None") -> None:
        self.seed = seed
        self.timer = timer
        self.counts = Counts()
        self.tracer = Tracer(enabled=True) if timer is not None else None
        self.fold = TraceFold()

    def make_target(self):
        raise NotImplementedError

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        kinds = [(kind, width) for kind, width, _ in SERVE_MIX]
        weights = np.array([w for _, _, w in SERVE_MIX])
        picks = rng.choice(len(kinds), size=SERVE_POOL,
                           p=weights / weights.sum())
        self.pool = []
        for pick in picks:
            kind, width = kinds[pick]
            # Log-uniform lane counts: 1..64, skewed small.
            lanes = min(MAX_REQUEST_LANES, int(np.exp(
                rng.uniform(0.0, np.log(MAX_REQUEST_LANES + 1)))))
            tenant = f"tenant-{int(rng.integers(SERVE_TENANTS))}"
            if kind in SERVE_ROOTS:
                root = SERVE_ROOTS[kind]
                feeds, golden, out_w = expr_case(rng, root, width, lanes)
                args, kwargs = (root,), {"feeds": feeds}
            else:
                operands, golden, out_w = catalog_case(rng, kind, width,
                                                       lanes)
                args, kwargs = (kind, *operands), {}
            kwargs.update(width=width, tenant=tenant)
            self.pool.append((f"{kind}@{width}", args, kwargs, golden,
                              out_w))
        self.target = self.make_target()
        self.svc = SimdramService(self.target, tracer=self.tracer)
        self.svc.warmup(SERVE_MANIFEST)
        # One request of every kind, so executors are warm as well.
        warm = {}
        for entry in self.pool:
            warm.setdefault(entry[0], entry)
        for label, args, kwargs, golden, out_w in warm.values():
            self.counts.attempted += 1
            self._check(label, self.svc.submit(*args, **kwargs), golden,
                        out_w)
        if self.tracer is not None:
            self.tracer.drain()

    def _check(self, label, handle, golden, out_w) -> bool:
        try:
            out = handle.result(timeout=120)
        except Exception as error:  # noqa: BLE001 - a failed request
            self.counts.fail(f"{label}: {error!r}")
            return False
        if not matches(out, golden, out_w):
            self.counts.fail(f"{label}: result differs from golden")
            return False
        return True

    def snapshot(self) -> dict:
        stats = self.svc.stats()
        return {"packing": stats["packing"],
                "busy_ns": stats["modeled_busy_ns"] or 0.0,
                "kernels": stats["kernels_cached"],
                "tier": stats.get("replica_tier", {}),
                "pmu": pmu_counts(self.module_ids())}

    def module_ids(self) -> list:
        return []

    def measure(self, seconds: float) -> tuple[dict, dict]:
        svc, timer, pool = self.svc, self.timer, self.pool
        if timer is not None:
            timer.clear(keep=("core.compile_ms",))
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        submit_ms: list[float] = []
        latencies: list[float] = []
        ok_in_window = lanes_ok = 0
        energy_nj = 0.0
        in_flight = 0
        cursor = 0

        def submit() -> None:
            nonlocal cursor, in_flight
            label, args, kwargs, golden, out_w = pool[cursor % len(pool)]
            cursor += 1
            self.counts.attempted += 1
            t0 = time.perf_counter()
            try:
                handle = svc.submit(*args, **kwargs)
            except Exception as error:  # noqa: BLE001 - a refusal
                self.counts.fail(f"{label}: submit: {error!r}")
                return
            submit_ms.append((time.perf_counter() - t0) * 1e3)
            in_flight += 1
            handle.add_done_callback(
                lambda h, entry=(label, golden, out_w), t0=t0: done.put(
                    (h, entry, t0, time.perf_counter())))

        before = self.snapshot()
        start = time.perf_counter()
        end = start + seconds
        after = None
        last = start
        for _ in range(self.outstanding):
            submit()
        completed = 0
        while in_flight:
            handle, (label, golden, out_w), t0, t1 = done.get(timeout=120)
            in_flight -= 1
            completed += 1
            ok = self._check(label, handle, golden, out_w)
            if t1 <= end:
                last = max(last, t1)
                latencies.append((t1 - t0) * 1e3)
                if ok:
                    ok_in_window += 1
                    lanes_ok += len(golden)
                    energy_nj += handle.energy_nj or 0.0
            if time.perf_counter() < end:
                submit()
            elif after is None:
                after = self.snapshot()
            if self.tracer is not None and completed % 256 == 0:
                self.fold.add(self.tracer.drain())
        if after is None:
            after = self.snapshot()
        svc.flush()
        if self.tracer is not None:
            self.fold.add(self.tracer.drain())
        busy = after["busy_ns"] - before["busy_ns"]
        elapsed = last - start
        metrics = {
            "host_melem_per_s": lanes_ok / elapsed / 1e6,
            "serve_rps": ok_in_window / elapsed,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
            "modeled_gops": lanes_ok / busy if busy else 0.0,
            "modeled_gops_per_w": lanes_ok / energy_nj if energy_nj else 0.0,
        }
        return metrics, self._layers(before, after, submit_ms)

    def _layers(self, before, after, submit_ms) -> dict:
        p0, p1 = before["packing"], after["packing"]
        dispatches = p1["dispatches"] - p0["dispatches"]
        riders = p1["packed_requests"] - p0["packed_requests"]
        lanes = p1["lanes_dispatched"] - p0["lanes_dispatched"]
        capacity = self.svc.capacity
        router = after["tier"].get("router", {})
        layers = {
            "serve.dispatches": dispatches,
            "serve.requests_per_dispatch": (riders / dispatches
                                            if dispatches else 0.0),
            "serve.lane_occupancy": (lanes / (dispatches * capacity)
                                     if dispatches else 0.0),
            "core.compiles_in_run": after["kernels"] - before["kernels"],
            "runtime.replica_requeued": router.get("requeued", 0),
            "runtime.replica_deaths": after["tier"].get("deaths", 0),
            "runtime.replica_uptime_ratio": self.fold.uptime_ratio(),
            **delta(after["pmu"], before["pmu"]),
        }
        if self.timer is not None:
            layers.update(timing_metrics("serve.submit_ms", submit_ms))
            for name, samples in self.timer.samples.items():
                layers.update(timing_metrics(name, samples))
            for name, samples in self.fold.samples.items():
                layers.update(timing_metrics(name, samples))
            drops = self.tracer.drop_stats()
            layers["obs.trace_dropped"] = drops["buffer"] + drops["children"]
        return layers

    def close(self) -> None:
        for part in ("svc", "target"):  # either is absent if setup failed
            if hasattr(self, part):
                getattr(self, part).close()


class ServeMixed(Serve):
    """In-process ``SimdramCluster(1)`` with 64 requests outstanding."""

    outstanding = 64

    def make_target(self):
        cluster = SimdramCluster(1)
        if self.timer is not None:
            for sim in cluster.modules:
                wrap_exec(self.timer, sim)
            wrap_compiles(self.timer, cluster)
        self.cluster = cluster
        return cluster

    def module_ids(self) -> list:
        return [sim.module.pmu_id for sim in self.cluster.modules]

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["plan"] = [(sim.control.plan_cache_hits,
                         sim.control.plan_cache_misses)
                        for sim in self.cluster.modules]
        return snap

    def _layers(self, before, after, submit_ms) -> dict:
        layers = super()._layers(before, after, submit_ms)
        hits = sum(h for h, _ in after["plan"]) - sum(
            h for h, _ in before["plan"])
        misses = sum(m for _, m in after["plan"]) - sum(
            m for _, m in before["plan"])
        layers["exec.plan_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        return layers


class ServeReplica(Serve):
    """``ReplicaRouter(1)`` (this process plus one forked replica) with
    32 requests outstanding."""

    outstanding = 32

    def make_target(self):
        self.compile_log = os.path.join(tempfile.gettempdir(), "compiles")
        if self.timer is not None:
            log_child_compiles(SimdramCluster, self.compile_log)
        return ReplicaRouter(1)

    def _layers(self, before, after, submit_ms) -> dict:
        layers = super()._layers(before, after, submit_ms)
        if self.timer is not None:
            layers.update(timing_metrics(
                "core.compile_ms", read_child_compiles(self.compile_log)))
        return layers


WORKLOADS = {"bulk_map": BulkMap, "serve_mixed": ServeMixed,
             "serve_replica": ServeReplica}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("run", "traced", "setup"))
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched "
                             "this interpreter")
    args = parser.parse_args(argv)

    hygiene = Hygiene(tempfile.gettempdir())
    timer = LayerTimer() if args.mode == "traced" else None
    workload = WORKLOADS[args.workload](args.seed, timer)
    metrics: dict = {}
    layers: dict = {}
    try:
        workload.setup()
        setup_s = time.monotonic() - args.launched
        if args.mode != "setup":
            metrics, layers = workload.measure(args.seconds)
    except Exception:  # noqa: BLE001 - report, then fail the run
        workload.counts.fail(traceback.format_exc(limit=4))
        setup_s = time.monotonic() - args.launched
    finally:
        try:
            workload.close()
        except Exception:  # noqa: BLE001
            workload.counts.fail(traceback.format_exc(limit=4))
    leaks = hygiene.leaks()
    metrics["peak_rss_mb"] = peak_rss_mb()
    layers.update(leaks)
    result = {
        "setup_s": setup_s,
        "attempted": workload.counts.attempted,
        "failed": workload.counts.failed,
        "errors": workload.counts.errors,
        "leaks": sum(leaks.values()),
        "dram_pass": getattr(workload, "warm_counts", None),
        "metrics": metrics,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
