"""Multi-process replication: N ``SimdramCluster`` replicas.

Everything below the serving layer runs in one Python process, so
worker threads only overlap the numpy portions of a dispatch — the
Python fraction still serializes on the GIL.  This module is the
scale-out answer: a :class:`ReplicaSet` spawns N replicas, each a full
:class:`~repro.runtime.cluster.SimdramCluster` living in its **own
process**, and gives the parent a thread-safe transport to them:

* **work descriptors** travel over a duplex pipe as pickled
  :class:`WorkDescriptor` objects — a catalog op name or a whole
  :class:`~repro.core.expr.Expr` DAG, the pipeline width and the
  execution-engine registry name (engine *instances* never cross the
  boundary; each replica resolves the name against its own registry);
* **tensor payloads** travel through POSIX shared memory
  (:mod:`multiprocessing.shared_memory`): each replica owns one
  :class:`Arena`, a ring of fixed-size slots the parent maps before it
  forks the replica.  The parent copies a dispatch's operands into a
  free slot, the replica computes on views of them and writes the
  result into the same slot, and the parent copies it out and frees
  the slot — no segment is created, attached or unlinked per dispatch;
* **health** is a heartbeat loop: a monitor thread pings every replica
  and watches process liveness; a broken pipe, a dead process or (when
  ``max_silent_s`` is set) a prolonged silence marks the replica dead,
  fails nothing silently, and hands its in-flight jobs to a death
  handler — the serving router's failover hook — or, absent one, fails
  their futures with :class:`~repro.errors.ReplicaError`;
* **warmup**: each replica fills its kernel caches from a declared
  manifest at spawn (and on demand via :meth:`ReplicaSet.warm`), so a
  fresh replica's first dispatch replays a warm pipeline.

The parent keeps every in-flight job's descriptor *and* payload until
it resolves, so a job lost to a dying replica can be re-sent to a
survivor byte-for-byte — the property the failover drill gates on.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

from repro.core.expr import Expr
from repro.core.operations import MAX_ARITY
from repro.errors import OperationError, ReplicaError
from repro.obs import clock
from repro.obs.flightrec import get_flight_recorder
from repro.obs.tracing import NOOP_SPAN, Span, current_span, use_span

#: (offset, shape, dtype string) of one vector inside an arena slot.
SlotMeta = tuple[int, tuple[int, ...], str]


@dataclass(frozen=True)
class WorkDescriptor:
    """One dispatch, in the form that crosses the process boundary.

    ``kind`` is ``"op"`` (catalog operation, positional slots) or
    ``"expr"`` (fused DAG; ``slot_names`` binds the payload vectors to
    leaf names).  ``engine`` is an execution-engine *registry name* —
    the replica resolves it locally.
    """

    kind: str
    op_name: str | None
    root: Expr | None
    slot_names: tuple[str, ...]
    width: int
    engine: str
    #: Trace context crossing the process boundary: when True, the
    #: replica records a local ``replica.execute`` span tree for this
    #: job and ships it back (serialized) inside the result payload.
    traced: bool = False
    #: Absolute monotonic SLO deadline of the pack's requests (or
    #: ``None``): failover consults it so a job whose budget lapsed
    #: while its replica died is shed instead of re-homed.
    deadline: float | None = None

    def label(self) -> str:
        return (self.op_name if self.kind == "op"
                else f"expr@{self.width}")


@dataclass
class PendingJob:
    """Parent-side record of one in-flight dispatch (kept until the
    job resolves so failover can re-send it byte-for-byte)."""

    job_id: int
    desc: WorkDescriptor
    vectors: list[np.ndarray]
    lanes: int
    future: Future
    #: Arena slot holding the payload while the job is on its replica
    #: (``None`` before a slot is claimed and after it is freed).
    slot: int | None = None
    #: Replica ids this job has already died on (failover audit trail).
    attempts: list[int] = field(default_factory=list)
    #: The job's ``replica.transport`` span: opened at submission,
    #: closed when the result lands (or failed when the replica dies —
    #: the router's retry span re-parents it then).
    span: object = NOOP_SPAN


# ---------------------------------------------------------------------------
# shared-memory arena
#
# Ownership protocol: a replica's arena is one segment the parent
# creates before it forks the replica and unlinks in ``close()``.  The
# child inherits the mapping through fork and never opens a segment by
# name, so the parent is the only process a resource tracker knows the
# segment in — and that tracker reaps it should the parent itself
# crash.  A slot belongs to one in-flight job at a time: the parent
# writes the operands, the replica writes the result behind them, and
# the parent frees the slot once the job resolves or its replica dies.
# ---------------------------------------------------------------------------
#: Slots per replica arena: dispatches one replica can hold in flight.
ARENA_SLOTS = 16


def _align(n_bytes: int) -> int:
    return (n_bytes + 7) & ~7


class Arena:
    """A ring of fixed-size operand/result slots in one shared segment.

    A slot holds ``lanes`` elements of up to :data:`MAX_ARITY` operands
    plus the result, 8 bytes each — any catalog dispatch of ``lanes``
    lanes fits one slot.
    """

    def __init__(self, lanes: int) -> None:
        self.slot_bytes = lanes * (MAX_ARITY + 1) * 8
        self.shm = shared_memory.SharedMemory(
            create=True, size=self.slot_bytes * ARENA_SLOTS)
        #: Free slot numbers (parent-side bookkeeping).
        self.free = list(range(ARENA_SLOTS))

    def payload_bytes(self, vectors: Sequence[np.ndarray]) -> int:
        """Slot bytes a dispatch needs: its operands plus an 8-byte
        result element per lane."""
        return (sum(_align(v.nbytes) for v in vectors)
                + 8 * max((len(v) for v in vectors), default=0))

    def write(self, slot: int, vectors: Sequence[np.ndarray],
              offset: int = 0) -> list[SlotMeta]:
        """Copy vectors into ``slot`` from ``offset`` on."""
        metas: list[SlotMeta] = []
        for vector in vectors:
            end = offset + vector.nbytes
            if end > self.slot_bytes:
                raise OperationError(
                    f"payload needs more than the {self.slot_bytes}-byte "
                    f"arena slot")
            self.view(slot, (offset, vector.shape, vector.dtype.str))[...] \
                = vector
            metas.append((offset, vector.shape, vector.dtype.str))
            offset = _align(end)
        return metas

    def view(self, slot: int, meta: SlotMeta) -> np.ndarray:
        """An ndarray over one vector of ``slot`` (no copy)."""
        offset, shape, dtype = meta
        return np.ndarray(shape, dtype=np.dtype(dtype),
                          buffer=self.shm.buf,
                          offset=slot * self.slot_bytes + offset)

    def close(self) -> None:
        """Unmap and unlink (parent only, once every replica is gone)."""
        try:
            self.shm.close()
        except BufferError:
            pass  # a stray view pins the mapping; the name still goes
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def _sendable(error: BaseException) -> BaseException:
    """An exception safe to pickle through the pipe (original when
    possible, a :class:`ReplicaError` carrying its repr otherwise)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickle/reconstruct failure
        return ReplicaError(f"{type(error).__name__}: {error}")


# ---------------------------------------------------------------------------
# the replica process
# ---------------------------------------------------------------------------
def _warm_manifest(cluster, manifest) -> int:
    """Fill a replica's kernel caches from ``(op_or_root, width[,
    engine])`` manifest entries; returns the kernel count."""
    count = 0
    for entry in manifest or ():
        op_or_root, width = entry[0], entry[1]
        engine = entry[2] if len(entry) > 2 else "auto"
        cluster.warm(op_or_root, width, engine)
        count += 1
    return count


def _replica_info(cluster) -> dict:
    paging = cluster.paging_stats()
    return {
        "pid": os.getpid(),
        "busy_ns": cluster.makespan_ns(),
        "kernels_cached": cluster.kernel_cache_size,
        "paging": {
            "n_spills": paging.n_spills,
            "n_fills": paging.n_fills,
            "spill_bits": paging.spill_bits,
            "fill_bits": paging.fill_bits,
        },
    }


def _replica_main(replica_id: int, conn, arena: Arena, n_modules: int,
                  config, manifest, seed: int | None,
                  spool_dir: "str | None" = None) -> None:
    """The child process: build a cluster, warm it, serve the pipe."""
    # The parent owns lifecycle; a ^C aimed at the parent's terminal
    # must not take the replicas down mid-failover.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # Black box: this process's flight recorder continuously appends
    # to a spill log in the parent's spool directory, written before
    # every record() returns, which the parent adopts when it buries
    # this replica — stopped or SIGKILLed alike.  The ring forked from
    # the parent holds the parent's events: drop them, or they would
    # come home as ours.
    recorder = get_flight_recorder()
    recorder.clear()
    recorder.source = f"replica-{replica_id}"
    if spool_dir is not None:
        recorder.configure_spill(
            os.path.join(spool_dir, f"replica-{replica_id}.json"))
    from repro.runtime.cluster import SimdramCluster
    try:
        cluster = SimdramCluster(n_modules, config=config, seed=seed)
        warmed = _warm_manifest(cluster, manifest)
        conn.send(("ready", replica_id,
                   {"lanes": cluster.lanes,
                    "backend": cluster.config.backend,
                    "n_modules": n_modules,
                    "kernels_warmed": warmed,
                    **_replica_info(cluster)}))
    except BaseException as error:  # noqa: BLE001 - report, don't hang spawn
        conn.send(("spawn-error", replica_id, _sendable(error)))
        return
    recorder.record("replica.ready", replica=replica_id,
                    lanes=cluster.lanes, n_modules=n_modules)
    with cluster:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            tag = message[0]
            if tag == "stop":
                recorder.record("replica.stop", replica=replica_id)
                try:
                    conn.send(("stopped", replica_id))
                except (BrokenPipeError, OSError):
                    pass
                return
            if tag == "ping":
                conn.send(("pong", message[1], _replica_info(cluster)))
            elif tag == "warm":
                token, entries = message[1], message[2]
                recorder.record("replica.warm", replica=replica_id,
                                n_kernels=len(entries))
                try:
                    n = _warm_manifest(cluster, entries)
                    conn.send(("warmed", token, n))
                except Exception as error:  # noqa: BLE001
                    conn.send(("warm-error", token, _sendable(error)))
            elif tag == "job":
                job_id, desc, slot, metas = message[1:]
                recorder.record("replica.job", replica=replica_id,
                                job_id=job_id, op=desc.label(),
                                width=desc.width)
                # Local recording root for traced jobs: the replica's
                # side of the request tree.  CLOCK_MONOTONIC is
                # system-wide on Linux, so its timestamps line up with
                # the parent's without translation; the finished tree
                # ships home serialized inside the reply's info dict.
                job_span = (Span("replica.execute",
                                 {"replica": replica_id,
                                  "proc": f"replica-{replica_id}",
                                  "op": desc.label()})
                            if getattr(desc, "traced", False)
                            else NOOP_SPAN)
                try:
                    vectors = [arena.view(slot, meta) for meta in metas]
                    from repro.exec.engines import get_engine
                    engine = get_engine(desc.engine)
                    with use_span(job_span):
                        if desc.kind == "op":
                            out = cluster.map(desc.op_name, *vectors,
                                              width=desc.width,
                                              engine=engine)
                        else:
                            out = cluster.map_expr(
                                desc.root,
                                dict(zip(desc.slot_names, vectors)),
                                width=desc.width, engine=engine)
                    # The result lands in the job's own slot, behind
                    # the operands.
                    end = max((_align(offset + vector.nbytes)
                               for (offset, _, _), vector
                               in zip(metas, vectors)), default=0)
                    (out_meta,) = arena.write(slot, [out], offset=end)
                    info = _replica_info(cluster)
                    if job_span.recording:
                        info["span"] = job_span.finish().to_dict()
                    conn.send(("result", job_id, out_meta, info))
                    recorder.record("replica.job.done",
                                    replica=replica_id, job_id=job_id)
                except Exception as error:  # noqa: BLE001 - fail the one job
                    recorder.record("replica.job.error",
                                    replica=replica_id, job_id=job_id,
                                    error=repr(error))
                    info = _replica_info(cluster)
                    if job_span.recording:
                        info["span"] = job_span.finish(error).to_dict()
                    conn.send(("job-error", job_id, _sendable(error),
                               info))


# ---------------------------------------------------------------------------
# parent-side handles
# ---------------------------------------------------------------------------
class ReplicaHandle:
    """Parent-side view of one replica process."""

    def __init__(self, replica_id: int, process, conn,
                 arena: "Arena | None" = None) -> None:
        self.replica_id = replica_id
        self.process = process
        self.conn = conn
        self.arena = arena
        #: Jobs submitted from a receive thread while this replica's
        #: arena was full: receive threads free the slots, so none may
        #: wait for one.  This replica's receive thread sends them as
        #: its slots free.
        self.backlog: "deque[PendingJob]" = deque()
        self.alive = True
        self.info: dict = {}
        self.last_pong = time.monotonic()
        self.pings_sent = 0
        self.pongs_received = 0
        #: Heartbeat round-trip time: send time per outstanding ping
        #: token, the last completed RTT, and an exponential moving
        #: average (alpha 0.25) — the per-replica health gauge.
        self._ping_sent_at: dict[int, float] = {}
        self.rtt_last_s: float | None = None
        self.rtt_avg_s: float | None = None
        #: Dispatches this replica completed (success or per-job error).
        self.jobs_done = 0
        self._send_lock = threading.Lock()

    def note_ping(self, token: int) -> None:
        """Record one ping's send time (monitor thread)."""
        self._ping_sent_at[token] = clock.now()
        # Unanswered tokens from a hung replica must not accumulate.
        while len(self._ping_sent_at) > 64:
            self._ping_sent_at.pop(next(iter(self._ping_sent_at)))

    def note_pong(self, token: int) -> None:
        """Close the loop for one pong (receive thread)."""
        sent = self._ping_sent_at.pop(token, None)
        if sent is None:
            return
        rtt = clock.now() - sent
        self.rtt_last_s = rtt
        self.rtt_avg_s = (rtt if self.rtt_avg_s is None
                          else 0.75 * self.rtt_avg_s + 0.25 * rtt)

    def send(self, message) -> None:
        """Pickle one message down the pipe (thread-safe); raises
        :class:`ReplicaError` if the pipe is broken."""
        try:
            with self._send_lock:
                self.conn.send(message)
        except (BrokenPipeError, OSError, ValueError,
                TypeError, AttributeError) as error:
            # TypeError/AttributeError: another thread closed the
            # connection mid-send (a closed Connection nulls its
            # handle, so the raw write sees None).
            raise ReplicaError(
                f"replica {self.replica_id} is unreachable: {error}"
            ) from error

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (f"ReplicaHandle(#{self.replica_id}, "
                f"pid={self.process.pid}, {state})")


class ReplicaSet:
    """N ``SimdramCluster`` replicas in separate processes (see the
    module docstring for the transport protocol)."""

    def __init__(self, n_replicas: int, n_modules: int = 1,
                 config=None, manifest: Sequence[tuple] | None = None,
                 seed: int | None = 1, heartbeat_s: float = 0.25,
                 max_silent_s: float | None = None,
                 spawn_timeout_s: float = 120.0) -> None:
        if n_replicas < 1:
            raise OperationError(
                f"a replica set needs >= 1 replica, got {n_replicas}")
        from repro.core.framework import SimdramConfig
        self.config = config or SimdramConfig()
        self.n_modules = n_modules
        self.heartbeat_s = heartbeat_s
        self.max_silent_s = max_silent_s
        self.manifest = list(manifest or ())
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._slot_freed = threading.Condition(self._lock)
        self._jobs: dict[int, dict[int, PendingJob]] = {}
        self._controls: dict[tuple[int, int], Future] = {}
        self._job_ids = itertools.count()
        self._tokens = itertools.count()
        self._death_handler: "Callable[[int, list[PendingJob]], None] | None" = None
        self._closing = False
        self.deaths = 0

        #: Spool directory the children spill their flight-recorder
        #: rings into; a crashed replica's leftover spill file is its
        #: black box (adopted in :meth:`_mark_dead`).
        self.spool_dir = tempfile.mkdtemp(prefix="repro-flightrec-")

        self.lanes = self.config.geometry.lanes() * n_modules
        # Fork, not spawn: a child must inherit its arena's mapping
        # (see the ownership protocol above the Arena class).
        ctx = multiprocessing.get_context("fork")
        self.replicas: list[ReplicaHandle] = []
        for i in range(n_replicas):
            arena = Arena(self.lanes)
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_replica_main, name=f"simdram-replica-{i}",
                args=(i, child_conn, arena, n_modules, self.config,
                      self.manifest,
                      None if seed is None else seed + 7919 * i,
                      self.spool_dir),
                daemon=True)
            process.start()
            child_conn.close()  # keep exactly one parent-side end open
            self.replicas.append(
                ReplicaHandle(i, process, parent_conn, arena))
            self._jobs[i] = {}

        # All replicas boot concurrently; collect readiness afterwards.
        deadline = time.monotonic() + spawn_timeout_s
        for replica in self.replicas:
            self._await_ready(replica, deadline)

        self.backend = self.replicas[0].info["backend"]

        self._receivers = [
            threading.Thread(target=self._receive_loop, args=(replica,),
                             name=f"replica-rx-{replica.replica_id}",
                             daemon=True)
            for replica in self.replicas
        ]
        for thread in self._receivers:
            thread.start()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="replica-health",
                                         daemon=True)
        self._monitor.start()

    def _await_ready(self, replica: ReplicaHandle, deadline: float) -> None:
        while True:
            if not replica.conn.poll(max(0.0, deadline - time.monotonic())):
                self._abort_spawn(
                    f"replica {replica.replica_id} did not come up")
            message = replica.conn.recv()
            if message[0] == "ready":
                replica.info = message[2]
                replica.last_pong = time.monotonic()
                return
            if message[0] == "spawn-error":
                self._abort_spawn(
                    f"replica {replica.replica_id} failed to spawn: "
                    f"{message[2]}")

    def _abort_spawn(self, reason: str) -> None:
        for replica in self.replicas:
            if replica.process.is_alive():
                replica.process.terminate()
            replica.process.join(timeout=10.0)
            replica.arena.close()
        raise ReplicaError(reason)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def alive_ids(self) -> list[int]:
        return [r.replica_id for r in self.replicas if r.alive]

    def n_inflight(self, replica_id: int) -> int:
        with self._lock:
            return len(self._jobs[replica_id])

    def inflight_lanes(self, replica_id: int) -> int:
        with self._lock:
            return sum(job.lanes
                       for job in self._jobs[replica_id].values())

    def fit_lanes(self, n_vectors: int) -> int:
        """Most lanes a dispatch of ``n_vectors`` operands of up to 8
        bytes each can carry in one arena slot (all arenas are alike)."""
        return self.replicas[0].arena.slot_bytes // (8 * (n_vectors + 1))

    def busy_ns(self) -> float:
        """Modeled makespan of the whole set: replicas are independent
        machines, so it is the busiest replica's modeled time (dead
        replicas keep their last reported clock)."""
        return max((r.info.get("busy_ns", 0.0) for r in self.replicas),
                   default=0.0)

    def stats(self) -> dict:
        """Per-replica health/telemetry snapshot."""
        out = {}
        for r in self.replicas:
            with self._lock:
                inflight = len(self._jobs[r.replica_id])
            out[r.replica_id] = {
                "alive": r.alive,
                "pid": r.process.pid,
                "in_flight": inflight,
                "jobs_done": r.jobs_done,
                "pings_sent": r.pings_sent,
                "pongs_received": r.pongs_received,
                "rtt_last_s": r.rtt_last_s,
                "rtt_avg_s": r.rtt_avg_s,
                "busy_ns": r.info.get("busy_ns", 0.0),
                "kernels_cached": r.info.get("kernels_cached", 0),
                "paging": r.info.get("paging", {}),
            }
        return out

    def set_death_handler(
            self, handler: "Callable[[int, list[PendingJob]], None]"
    ) -> None:
        """Install the failover hook: called with ``(replica_id,
        in_flight_jobs)`` when a replica dies.  The handler owns those
        jobs' futures (typically re-submitting them to survivors);
        without a handler they fail with :class:`ReplicaError`."""
        self._death_handler = handler

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, replica_id: int, desc: WorkDescriptor,
               vectors: Sequence[np.ndarray], lanes: int,
               future: Future | None = None) -> Future:
        """Ship one dispatch to a replica; resolves to ``(result
        vector, replica info)``.  Waits for a free arena slot; raises
        :class:`~repro.errors.OperationError` for a payload larger than
        a slot.  Pass ``future`` to re-arm an existing job's future
        (the failover path)."""
        vectors = [np.asarray(v) for v in vectors]
        replica = self.replicas[replica_id]
        need = replica.arena.payload_bytes(vectors)
        if need > replica.arena.slot_bytes:
            raise OperationError(
                f"dispatch payload of {need} bytes exceeds the "
                f"{replica.arena.slot_bytes}-byte arena slot")
        # The ambient span (the router's ``router.place`` or ``retry``)
        # becomes the transport span's parent; the ``traced`` flag asks
        # the replica to record its side of the tree and ship it back.
        parent = current_span()
        span = parent.child("replica.transport",
                            replica=replica_id, lanes=lanes)
        if span.recording:
            desc = replace(desc, traced=True)
        job = PendingJob(job_id=next(self._job_ids), desc=desc,
                         vectors=vectors, lanes=lanes,
                         future=future or Future(), span=span)
        with self._lock:
            try:
                job.slot = self._claim_slot(replica)
            except ReplicaError as error:
                span.finish(error)
                raise
            self._jobs[replica_id][job.job_id] = job
            if job.slot is None:
                replica.backlog.append(job)
                return job.future
            metas = replica.arena.write(job.slot, vectors)
        try:
            replica.send(("job", job.job_id, desc, job.slot, metas))
        except ReplicaError:
            # The send itself failed.  If the job is still registered,
            # this thread owns it: reclaim it and re-raise so the
            # caller picks another replica.  If it is gone,
            # ``_mark_dead`` raced us, collected the job and already
            # routed it (failover re-armed the same future) — re-raising
            # would make the caller submit the job a *second* time.
            with self._lock:
                owned = self._jobs[replica_id].pop(job.job_id, None)
            self._mark_dead(replica)
            if owned is None:
                return job.future
            job.span.finish(ReplicaError(
                f"replica {replica_id} is unreachable"))
            raise
        return job.future

    def _claim_slot(self, replica: ReplicaHandle) -> "int | None":
        """Take a free slot of ``replica``'s arena, waiting for one
        (lock held).  Returns ``None`` instead of waiting on a receive
        thread (a completion callback or failover re-submitting):
        receive threads are what free slots, so two of them waiting on
        each other's arenas would deadlock."""
        while True:
            if self._closing:
                raise ReplicaError("replica set is closed")
            if not replica.alive:
                raise ReplicaError(
                    f"replica {replica.replica_id} is dead")
            if replica.arena.free:
                return replica.arena.free.pop()
            if threading.current_thread() in self._receivers:
                return None
            self._slot_freed.wait()

    def _release_slot(self, replica: ReplicaHandle,
                      job: PendingJob) -> None:
        with self._lock:
            if job.slot is not None:
                replica.arena.free.append(job.slot)
                job.slot = None
                # All: waiters for other replicas share the condition.
                self._slot_freed.notify_all()

    def _send_backlog(self, replica: ReplicaHandle) -> None:
        """Send backlogged jobs into freed slots (receive thread)."""
        while True:
            with self._lock:
                if not (replica.backlog and replica.arena.free
                        and replica.alive):
                    return
                job = replica.backlog.popleft()
                job.slot = replica.arena.free.pop()
                metas = replica.arena.write(job.slot, job.vectors)
            try:
                replica.send(("job", job.job_id, job.desc, job.slot,
                              metas))
            except ReplicaError:
                # Still registered: the death handler re-homes it.
                self._mark_dead(replica)
                return

    # ------------------------------------------------------------------
    # receive / health
    # ------------------------------------------------------------------
    def _pop_job(self, replica_id: int, job_id: int) -> PendingJob | None:
        with self._lock:
            job = self._jobs[replica_id].pop(job_id, None)
            if not any(self._jobs.values()):
                self._drained.notify_all()
        return job

    def _receive_loop(self, replica: ReplicaHandle) -> None:
        try:
            self._receive_messages(replica)
        finally:
            # Whatever ends the loop — EOF, "stopped", or a bug in the
            # dispatch body — the replica must be buried, or its
            # in-flight jobs would hang forever.
            self._mark_dead(replica)

    def _receive_messages(self, replica: ReplicaHandle) -> None:
        while True:
            try:
                message = replica.conn.recv()
            except (EOFError, OSError, ValueError,
                    TypeError, AttributeError):
                # TypeError/AttributeError/ValueError: another thread
                # closed the connection mid-recv (mirrors ``send``).
                break
            tag = message[0]
            if tag == "result":
                job_id, meta, info = message[1:]
                # The replica's serialized span tree rides inside the
                # info dict; pop it so ``replica.info`` stays telemetry.
                shipped = info.pop("span", None)
                info["replica_id"] = replica.replica_id
                replica.info = info
                replica.jobs_done += 1
                job = self._pop_job(replica.replica_id, job_id)
                if job is None:
                    continue  # resolved elsewhere (failover raced)
                if shipped is not None and job.span.recording:
                    job.span.adopt(Span.from_dict(shipped))
                try:
                    values = replica.arena.view(job.slot, meta).copy()
                except Exception as error:  # noqa: BLE001
                    self._release_slot(replica, job)
                    # Transport spans close *before* the future resolves
                    # so completion callbacks see a finished tree.
                    job.span.finish(error)
                    job.future.set_exception(ReplicaError(
                        f"result transport failed: {error}"))
                else:
                    self._release_slot(replica, job)
                    job.span.finish()
                    job.future.set_result((values, info))
                if replica.backlog:
                    self._send_backlog(replica)
            elif tag == "job-error":
                job_id, error, info = message[1:]
                shipped = info.pop("span", None)
                replica.info = info
                replica.jobs_done += 1
                job = self._pop_job(replica.replica_id, job_id)
                if job is not None:
                    self._release_slot(replica, job)
                    if shipped is not None and job.span.recording:
                        job.span.adopt(Span.from_dict(shipped))
                    job.span.finish(error)
                    job.future.set_exception(error)
                    if replica.backlog:
                        self._send_backlog(replica)
            elif tag == "pong":
                replica.note_pong(message[1])
                replica.info = message[2]
                replica.pongs_received += 1
                replica.last_pong = time.monotonic()
            elif tag == "warmed":
                future = self._controls.pop(
                    (replica.replica_id, message[1]), None)
                if future is not None:
                    future.set_result(message[2])
            elif tag == "warm-error":
                future = self._controls.pop(
                    (replica.replica_id, message[1]), None)
                if future is not None:
                    future.set_exception(message[2])
            elif tag == "stopped":
                break

    def _monitor_loop(self) -> None:
        while True:
            time.sleep(self.heartbeat_s)
            with self._lock:
                if self._closing:
                    return
            now = time.monotonic()
            for replica in self.replicas:
                if not replica.alive:
                    continue
                if not replica.process.is_alive():
                    self._mark_dead(replica)
                    continue
                if (self.max_silent_s is not None
                        and replica.pings_sent > replica.pongs_received
                        and now - replica.last_pong > self.max_silent_s):
                    # Hung, not dead: the pipe is open but nothing
                    # answers.  Put it down so its work can fail over.
                    replica.process.kill()
                    self._mark_dead(replica)
                    continue
                try:
                    token = next(self._tokens)
                    replica.note_ping(token)
                    replica.send(("ping", token))
                    replica.pings_sent += 1
                except ReplicaError:
                    self._mark_dead(replica)

    def _mark_dead(self, replica: ReplicaHandle) -> None:
        """Bury one replica: exactly one caller wins, collects its
        in-flight jobs and routes them to the death handler."""
        with self._lock:
            if not replica.alive:
                return
            replica.alive = False
            self.deaths += 1
            jobs = list(self._jobs[replica.replica_id].values())
            self._jobs[replica.replica_id].clear()
            replica.backlog.clear()
            # Wake submitters waiting for this replica's slots: they
            # must place elsewhere now.
            self._slot_freed.notify_all()
            controls = [key for key in self._controls
                        if key[0] == replica.replica_id]
            control_futures = [self._controls.pop(key)
                               for key in controls]
            closing = self._closing
            if not any(self._jobs.values()):
                self._drained.notify_all()
        try:
            replica.conn.close()
        except OSError:
            pass
        # Recover the black box: the child's spill log, stopped or
        # crashed (the spool directory goes in ``close()``).
        recorder = get_flight_recorder()
        spill = os.path.join(self.spool_dir,
                             f"replica-{replica.replica_id}.json")
        adopted = recorder.adopt_spill_file(
            spill, source=f"replica-{replica.replica_id}")
        if not closing:
            recorder.record("replica.death",
                            replica=replica.replica_id,
                            pid=replica.process.pid,
                            in_flight=len(jobs),
                            black_box_recovered=adopted)
        error = ReplicaError(
            f"replica {replica.replica_id} died "
            f"(pid {replica.process.pid})")
        for job in jobs:
            job.attempts.append(replica.replica_id)
            # Close the failed attempt's transport span now; the
            # router's failover path re-parents it under a ``retry``
            # span before re-submitting, so the dead attempt stays
            # visible in the re-homed request's tree.
            job.span.finish(error)
        for future in control_futures:
            future.set_exception(error)
        if jobs:
            if self._death_handler is not None and not closing:
                self._death_handler(replica.replica_id, jobs)
            else:
                for job in jobs:
                    job.future.set_exception(error)

    # ------------------------------------------------------------------
    # warmup / drills / lifecycle
    # ------------------------------------------------------------------
    def warm(self, manifest: Sequence[tuple],
             timeout: float | None = 120.0) -> dict:
        """Broadcast a kernel manifest to every live replica and wait
        for the acks; returns ``{replica_id: n_kernels}``."""
        entries = list(manifest)
        futures: dict[int, Future] = {}
        for replica in self.replicas:
            if not replica.alive:
                continue
            token = next(self._tokens)
            future: Future = Future()
            with self._lock:
                self._controls[(replica.replica_id, token)] = future
            try:
                replica.send(("warm", token, entries))
            except ReplicaError as error:
                with self._lock:
                    self._controls.pop((replica.replica_id, token), None)
                future.set_exception(error)
                self._mark_dead(replica)
            futures[replica.replica_id] = future
        results = {}
        for replica_id, future in futures.items():
            try:
                results[replica_id] = future.result(timeout)
            except ReplicaError:
                continue  # died mid-warm; failover covers its traffic
        return results

    def kill(self, replica_id: int) -> None:
        """Hard-kill one replica (SIGKILL) — the failover drill.  Death
        is observed through the normal health machinery, so in-flight
        work fails over exactly as it would for a real crash."""
        self.replicas[replica_id].process.kill()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no job is in flight anywhere; False on timeout."""
        with self._lock:
            return self._drained.wait_for(
                lambda: not any(self._jobs.values()), timeout)

    def close(self) -> None:
        """Stop every replica process (idempotent).  In-flight jobs
        fail with :class:`ReplicaError` rather than strand callers."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._slot_freed.notify_all()
        for replica in self.replicas:
            if not replica.alive:
                continue
            try:
                replica.send(("stop",))
            except ReplicaError:
                pass
        for replica in self.replicas:
            replica.process.join(timeout=10.0)
            if replica.process.is_alive():
                replica.process.kill()
                replica.process.join(timeout=10.0)
            self._mark_dead(replica)
        for thread in self._receivers:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        # Every replica is buried (spills adopted where they existed);
        # the spool directory and the arenas have served their purpose.
        shutil.rmtree(self.spool_dir, ignore_errors=True)
        for replica in self.replicas:
            replica.arena.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
