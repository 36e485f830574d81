"""Always-on flight recorder: a bounded ring of structured events.

Every process keeps a lock-cheap ring buffer of the last few thousand
structured events — admissions, dispatches, shed decisions, failovers,
PMU deltas, span edges.  In steady state it costs one dict build and a
deque append per event; when something dies the ring is the black box.

Cross-process story (the replica tier):

* replica children configure a *spill file* via
  :meth:`FlightRecorder.configure_spill`: an append-only JSON-lines
  log — one header line (``source``, ``pid``, ``n_before``), then one
  line per event, appended with a single ``os.write`` on an
  ``O_APPEND`` descriptor before ``record()`` returns.  The bytes sit
  in the page cache the moment the call returns, so a SIGKILL (which
  cannot be trapped) loses nothing, and each event costs O(one event)
  however full the ring is.  Once the log holds twice the ring's
  capacity it is rotated: header plus the newest ``capacity`` lines
  are rewritten to a temporary file and renamed over it atomically.
* when the parent buries a replica — stopped or crashed — it reads
  the tail of its log (:func:`read_spill` via
  :meth:`FlightRecorder.adopt_spill_file`), skipping a torn final line
  a SIGKILL may leave.

:meth:`FlightRecorder.dump` merges the local ring with every adopted
segment into one time-sorted postmortem dict;
:meth:`FlightRecorder.dump_to` writes it as JSON (the CI failure
artifact and the ``--postmortem`` output of the kill drill).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections import deque

from repro.obs import clock

#: Ring capacity: small enough to merge and read, large enough to
#: cover the final seconds of a busy process.
DEFAULT_CAPACITY = 4096



def _line_encoder():
    """``event -> str`` for spill lines: compact separators, and
    ``str`` for any field JSON cannot encode (recording must never
    raise).  ``json.dumps`` builds a fresh C encoder on every call,
    which is most of its cost on a small dict, so build one once."""
    try:
        from json.encoder import c_make_encoder, encode_basestring_ascii
        encoder = c_make_encoder(None, str, encode_basestring_ascii,
                                 None, ":", ",", False, False, True)
        encoder({"t": 0.0}, 0)
    except Exception:  # noqa: BLE001 - no C accelerator: the slow path
        return json.JSONEncoder(separators=(",", ":"), default=str).encode
    return lambda event: "".join(encoder(event, 0))


_encode = _line_encoder()


def _decoded(events: list) -> "list[dict]":
    """Ring entries as event dicts (spilled ones are encoded lines)."""
    return [json.loads(e) if isinstance(e, str) else e for e in events]


def read_spill(path: str, capacity: int = DEFAULT_CAPACITY) -> dict:
    """Parse a spill log into a :meth:`FlightRecorder.snapshot`-shaped
    dict holding its last ``capacity`` events.  A final line without
    its newline — the torn tail of a write cut short — is skipped.
    Raises ``OSError`` for an unreadable file and ``ValueError`` for
    one that is not a spill log."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        lines = handle.readlines()
    if not isinstance(header, dict) or "source" not in header:
        raise ValueError(f"{path} is not a flight-recorder spill log")
    if lines and not lines[-1].endswith(b"\n"):
        lines.pop()
    recorded = int(header.get("n_before", 0)) + len(lines)
    events = [json.loads(line) for line in lines[-capacity:]]
    return {"source": header["source"], "pid": header.get("pid"),
            "n_recorded": recorded,
            "n_dropped": max(0, recorded - len(events)),
            "events": events}


class FlightRecorder:
    """Bounded ring buffer of structured events.

    ``record()`` is the hot path: one timestamp, one dict, one
    lock-guarded append (plus one encoded line and one ``os.write``
    when spilling).  Everything else (snapshots, adoption, dumps) is
    cold postmortem machinery.

    While spilling, the ring holds each event as its encoded log line
    (a fraction of the dict's memory) and decodes on read; the newest
    ``capacity`` lines are then also what a rotation rewrites.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 source: str = "main") -> None:
        self.capacity = int(capacity)
        self.source = source
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=self.capacity)
        self.n_recorded = 0
        #: Segments adopted from other processes, keyed by source.
        self._segments: "dict[str, dict]" = {}
        self._spill_path: "str | None" = None
        self._spill_every = 1
        #: Open ``O_APPEND`` descriptor of the spill log (``None`` until
        #: the first flush creates the file) and its event-line count.
        self._spill_fd: "int | None" = None
        self._spill_lines = 0
        #: Encoded lines (newline-terminated) not yet written.
        self._pending: "list[str]" = []

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields) -> None:
        """Append one event; never raises (a broken spill disk must
        not take down the serving path)."""
        event = {"t": clock.now(), "kind": kind}
        if fields:
            event.update(fields)
        if self._spill_path is None:
            with self._lock:
                self._events.append(event)
                self.n_recorded += 1
            return
        line = _encode(event) + "\n"
        with self._lock:
            self._events.append(line)
            self.n_recorded += 1
            if self._spill_path is not None:
                self._pending.append(line)
                if len(self._pending) >= self._spill_every:
                    self._flush_spill()

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring by newer ones."""
        with self._lock:
            return max(0, self.n_recorded - len(self._events))

    # ------------------------------------------------------------------
    # spill log (replica children)
    # ------------------------------------------------------------------
    def configure_spill(self, path: str, every: int = 1) -> None:
        """Continuously log events to ``path`` — every ``every`` events
        (1 == before each ``record`` returns, the crash-safe default).
        The file appears at the first flush."""
        with self._lock:
            self._close_spill_fd()
            self._spill_path = path
            self._spill_every = max(1, int(every))
            self._pending = []

    def _flush_spill(self) -> None:
        """Write the pending lines (lock held).  Appends while the log
        is under twice the ring's capacity; otherwise — or when the
        file does not exist yet — rewrites it as header + ring."""
        pending, self._pending = self._pending, []
        try:
            if (self._spill_fd is not None
                    and self._spill_lines < 2 * self.capacity):
                os.write(self._spill_fd, "".join(pending).encode())
                self._spill_lines += len(pending)
            else:
                self._rewrite_spill()
        except OSError:
            pass

    def _rewrite_spill(self) -> None:
        """Atomically replace the log with header + ring (lock held)."""
        path = self._spill_path
        body = "".join(e if isinstance(e, str) else _encode(e) + "\n"
                       for e in self._events).encode()
        n_lines = len(self._events)
        header = _encode({"source": self.source, "pid": os.getpid(),
                          "n_before": self.n_recorded - n_lines})
        tmp = f"{path}.tmp-{os.getpid()}"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                     | os.O_APPEND, 0o644)
        try:
            os.write(fd, (header + "\n").encode() + body)
            os.replace(tmp, path)
        except OSError:
            os.close(fd)
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._close_spill_fd()
        self._spill_fd = fd
        self._spill_lines = n_lines

    def _close_spill_fd(self) -> None:
        if self._spill_fd is not None:
            try:
                os.close(self._spill_fd)
            except OSError:
                pass
            self._spill_fd = None

    def spill_now(self) -> None:
        """Flush pending events to the log now (used right before
        risky sections when spilling every N events)."""
        with self._lock:
            if self._spill_path is not None:
                self._flush_spill()

    def remove_spill(self) -> None:
        """Stop spilling and delete the spill file."""
        with self._lock:
            path, self._spill_path = self._spill_path, None
            self._close_spill_fd()
            self._pending = []
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # snapshots and segment adoption
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable/JSONable copy of this process's ring."""
        with self._lock:
            events = list(self._events)
            recorded = self.n_recorded
        events = _decoded(events)
        return {"source": self.source, "pid": os.getpid(),
                "n_recorded": recorded,
                "n_dropped": max(0, recorded - len(events)),
                "events": events}

    def events(self) -> "list[dict]":
        with self._lock:
            events = list(self._events)
        return _decoded(events)

    def adopt_segment(self, payload: dict,
                      source: "str | None" = None) -> None:
        """Fold another process's :meth:`snapshot` into future dumps
        (later segments from the same source replace earlier ones)."""
        if not isinstance(payload, dict) or "events" not in payload:
            return
        key = source or payload.get("source") or "unknown"
        with self._lock:
            self._segments[str(key)] = payload

    def adopt_spill_file(self, path: str,
                         source: "str | None" = None) -> bool:
        """Adopt the tail of a crashed process's spill log; ``False``
        when the file is missing or unreadable."""
        try:
            payload = read_spill(path, self.capacity)
        except (OSError, ValueError):
            return False
        self.adopt_segment(payload, source=source)
        return True

    def segments(self) -> "list[str]":
        with self._lock:
            return sorted(self._segments)

    # ------------------------------------------------------------------
    # postmortem dumps
    # ------------------------------------------------------------------
    def dump(self, reason: str = "") -> dict:
        """Merge the local ring and every adopted segment into one
        postmortem: segments keyed by source, plus a single
        time-sorted event list with each event tagged ``source``."""
        local = self.snapshot()
        with self._lock:
            segments = {key: dict(value)
                        for key, value in self._segments.items()}
        segments[local["source"]] = local
        merged: "list[dict]" = []
        for key, segment in segments.items():
            for event in segment.get("events", ()):
                tagged = dict(event)
                tagged["source"] = key
                merged.append(tagged)
        merged.sort(key=lambda e: e.get("t", 0.0))
        return {"reason": reason,
                "generated_unix_time": clock.wall(),
                "pid": os.getpid(),
                "n_events": len(merged),
                "segments": segments,
                "events": merged}

    def dump_to(self, path: "str | None" = None,
                reason: str = "") -> str:
        """Write :meth:`dump` as JSON; returns the path written."""
        if path is None:
            directory = os.environ.get("REPRO_FLIGHTREC_DIR",
                                       ".flightrec")
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory,
                f"flightrec-{os.getpid()}-{self.n_recorded}.json")
        else:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(reason), handle, indent=1,
                      default=str)
        return path

    def clear(self) -> None:
        """Forget everything (tests)."""
        with self._lock:
            self._events.clear()
            self._segments.clear()
            self.n_recorded = 0
            self._pending = []


_GLOBAL_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-global flight recorder (every hook records here)."""
    return _GLOBAL_RECORDER


def postmortem(reason: str, path: "str | None" = None) -> "str | None":
    """Best-effort postmortem dump of the global recorder; returns the
    written path, or ``None`` when even that failed."""
    try:
        return get_flight_recorder().dump_to(path, reason=reason)
    except OSError:
        return None
