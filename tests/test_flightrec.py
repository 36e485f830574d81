"""Tests for the always-on flight recorder.

Units drive a private :class:`FlightRecorder` (ring bound, spill
files, segment adoption, merged dumps); the integration tests run real
replica processes and assert the cross-process black-box story — the
ring of a cleanly stopped replica and of a SIGKILLed one both come
home from its append-only spill log, and the merged postmortem
contains the dead replica's final events.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import ReplicaError
from repro.obs import clock
from repro.obs.flightrec import (FlightRecorder, get_flight_recorder,
                                 postmortem, read_spill)
from repro.runtime import SimdramCluster
from repro.runtime.replica import ReplicaSet, WorkDescriptor
from repro.serve import ServeConfig, SimdramService


def small_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=512, banks=2))


def add_desc(width: int = 8) -> WorkDescriptor:
    return WorkDescriptor(kind="op", op_name="add", root=None,
                          slot_names=(), width=width, engine="auto")


class TestRing:
    def test_record_and_events(self):
        rec = FlightRecorder(capacity=8, source="t")
        rec.record("a", x=1)
        rec.record("b")
        kinds = [e["kind"] for e in rec.events()]
        assert kinds == ["a", "b"]
        assert rec.events()[0]["x"] == 1
        assert all("t" in e for e in rec.events())

    def test_ring_bounded_and_drop_count(self):
        rec = FlightRecorder(capacity=4, source="t")
        for i in range(10):
            rec.record("e", i=i)
        assert len(rec.events()) == 4
        assert [e["i"] for e in rec.events()] == [6, 7, 8, 9]
        assert rec.n_recorded == 10
        assert rec.n_dropped == 6

    def test_snapshot_is_json_ready(self):
        rec = FlightRecorder(capacity=4, source="snap")
        rec.record("e", label="x")
        snap = json.loads(json.dumps(rec.snapshot()))
        assert snap["source"] == "snap"
        assert snap["pid"] == os.getpid()
        assert snap["n_recorded"] == 1 and snap["n_dropped"] == 0

    def test_clear(self):
        rec = FlightRecorder(capacity=4)
        rec.record("e")
        rec.adopt_segment({"source": "o", "events": []})
        rec.clear()
        assert rec.events() == [] and rec.segments() == []
        assert rec.n_recorded == 0


class TestSpill:
    def test_spill_rewritten_every_event(self, tmp_path):
        rec = FlightRecorder(capacity=8, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        rec.record("first")
        assert read_spill(str(path))["n_recorded"] == 1
        rec.record("second")
        payload = read_spill(str(path))
        assert payload["n_recorded"] == 2
        assert [e["kind"] for e in payload["events"]] == \
            ["first", "second"]

    def test_spill_every_n(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path), every=3)
        rec.record("a")
        rec.record("b")
        assert not path.exists()
        rec.record("c")
        assert read_spill(str(path))["n_recorded"] == 3

    def test_spill_is_header_plus_one_line_per_event(self, tmp_path):
        rec = FlightRecorder(capacity=8, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        for i in range(3):
            rec.record("e", i=i)
        header, *lines = path.read_text().splitlines()
        assert json.loads(header)["source"] == "child"
        assert json.loads(header)["pid"] == os.getpid()
        assert [json.loads(line)["i"] for line in lines] == [0, 1, 2]

    def test_rotation_keeps_last_capacity_events_in_order(self, tmp_path):
        rec = FlightRecorder(capacity=4, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        for i in range(23):
            rec.record("e", i=i)
            # Header plus at most 2 x capacity event lines, ever.
            assert len(path.read_text().splitlines()) <= 1 + 2 * 4
        payload = read_spill(str(path), capacity=4)
        assert [e["i"] for e in payload["events"]] == [19, 20, 21, 22]
        assert payload["n_recorded"] == 23
        assert payload["n_dropped"] == 19
        # No temporary file survives a rotation.
        assert os.listdir(tmp_path) == ["spill.json"]

    def test_torn_final_line_is_skipped(self, tmp_path):
        rec = FlightRecorder(capacity=8, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        rec.record("whole", i=0)
        rec.record("whole", i=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"t": 1.0, "kind": "tor')  # SIGKILL mid-write
        payload = read_spill(str(path))
        assert [e["i"] for e in payload["events"]] == [0, 1]
        adopter = FlightRecorder(capacity=8)
        assert adopter.adopt_spill_file(str(path), source="replica-9")
        assert len(adopter.dump()["segments"]["replica-9"]["events"]) == 2

    def test_bytes_per_record_independent_of_ring_fill(self, tmp_path):
        """O(one event): a record on a full ring appends exactly as many
        bytes as one on an empty ring."""
        rec = FlightRecorder(capacity=16, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        clock.set_source(lambda: 1234.5)
        try:
            def grows_by() -> int:
                before = path.stat().st_size
                rec.record("e", lanes=64)
                return path.stat().st_size - before

            rec.record("e", lanes=64)          # creates the file
            empty = grows_by()
            for _ in range(20):                # fill the ring (no rotation)
                rec.record("e", lanes=64)
            assert len(rec.events()) == 16
            full = grows_by()
        finally:
            clock.set_source(None)
        assert empty == full == len('{"t":1234.5,"kind":"e","lanes":64}\n')

    def test_spill_now_and_remove(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path), every=1000)
        rec.record("a")
        assert not path.exists()
        rec.spill_now()
        assert path.exists()
        rec.remove_spill()
        assert not path.exists()
        rec.record("b")              # spilling is off after removal
        assert not path.exists()

    def test_broken_spill_path_never_raises(self):
        rec = FlightRecorder(capacity=4)
        rec.configure_spill("/nonexistent-dir/nope/spill.json")
        rec.record("survives")
        assert rec.events()[-1]["kind"] == "survives"


class TestAdoptionAndDump:
    def test_adopt_segment_and_merged_dump(self):
        rec = FlightRecorder(capacity=8, source="main")
        rec.record("local.event")
        rec.adopt_segment({"source": "replica-0",
                           "events": [{"t": 0.5, "kind": "remote.early"},
                                      {"t": 1e12, "kind": "remote.late"}]})
        dump = rec.dump(reason="why not")
        assert dump["reason"] == "why not"
        assert set(dump["segments"]) == {"main", "replica-0"}
        assert dump["n_events"] == 3
        kinds = [e["kind"] for e in dump["events"]]
        # Time-sorted across segments, each event source-tagged.
        assert kinds[0] == "remote.early" and kinds[-1] == "remote.late"
        sources = {e["source"] for e in dump["events"]}
        assert sources == {"main", "replica-0"}

    def test_adopt_replaces_same_source(self):
        rec = FlightRecorder(capacity=8)
        rec.adopt_segment({"source": "r", "events": [{"t": 1, "kind": "a"}]})
        rec.adopt_segment({"source": "r", "events": [{"t": 2, "kind": "b"}]})
        assert [e["kind"] for e in rec.dump()["events"]
                if e["source"] == "r"] == ["b"]

    def test_adopt_garbage_ignored(self):
        rec = FlightRecorder(capacity=8)
        rec.adopt_segment("not a dict")
        rec.adopt_segment({"no_events_key": True})
        assert rec.segments() == []

    def test_adopt_spill_file_missing_is_false(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        assert not rec.adopt_spill_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert not rec.adopt_spill_file(str(bad))

    def test_dump_to_writes_json(self, tmp_path):
        rec = FlightRecorder(capacity=8, source="main")
        rec.record("e")
        path = rec.dump_to(str(tmp_path / "out.json"), reason="r")
        payload = json.loads(open(path).read())
        assert payload["reason"] == "r" and payload["n_events"] == 1

    def test_dump_to_default_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHTREC_DIR", str(tmp_path / "fr"))
        rec = FlightRecorder(capacity=8)
        rec.record("e")
        path = rec.dump_to(reason="r")
        assert path.startswith(str(tmp_path / "fr"))
        assert os.path.exists(path)

    def test_postmortem_helper_uses_global_recorder(self, tmp_path):
        get_flight_recorder().record("postmortem.test.marker")
        path = postmortem("unit test", str(tmp_path / "pm.json"))
        payload = json.loads(open(path).read())
        assert any(e["kind"] == "postmortem.test.marker"
                   for e in payload["events"])


class TestReplicaBlackBox:
    def test_clean_stop_ships_ring_home(self):
        with ReplicaSet(1, config=small_config()) as replicas:
            a = np.arange(8)
            replicas.submit(0, add_desc(), [a, a], lanes=8).result(60)
        recorder = get_flight_recorder()
        assert "replica-0" in recorder.segments()
        dump = recorder.dump()
        kinds = [e["kind"] for e in dump["events"]
                 if e["source"] == "replica-0"]
        assert "replica.ready" in kinds
        assert "replica.job" in kinds and "replica.job.done" in kinds
        assert "replica.stop" in kinds

    def test_kill_drill_recovers_black_box(self):
        """The acceptance drill: SIGKILL a replica mid-flight and read
        its final events back out of the merged postmortem."""
        with ReplicaSet(2, config=small_config()) as replicas:
            a = np.arange(8)
            replicas.submit(0, add_desc(), [a, a], lanes=8).result(60)
            spill = os.path.join(replicas.spool_dir, "replica-0.json")
            assert os.path.exists(spill)   # continuously rewritten
            future = replicas.submit(0, add_desc(), [a, a], lanes=8)
            replicas.kill(0)
            with pytest.raises(ReplicaError):
                future.result(60)
            dump = get_flight_recorder().dump(reason="kill drill")

        assert "replica-0" in dump["segments"]
        dead = [e for e in dump["events"] if e["source"] == "replica-0"]
        kinds = [e["kind"] for e in dead]
        # The black box holds the dead replica's final moments ...
        assert "replica.ready" in kinds and "replica.job" in kinds
        # ... and the parent recorded the death with recovery status.
        deaths = [e for e in dump["events"]
                  if e["kind"] == "replica.death" and e["replica"] == 0]
        assert deaths and deaths[-1]["black_box_recovered"]

    def test_replica_does_not_retag_parent_events(self):
        """A forked replica starts from an empty ring: the parent's
        pre-fork events must not come home as the replica's."""
        marker = "parent.prefork.marker"
        get_flight_recorder().record(marker)
        with ReplicaSet(1, config=small_config()) as replicas:
            a = np.arange(8)
            replicas.submit(0, add_desc(), [a, a], lanes=8).result(60)
        segment = get_flight_recorder().dump()["segments"]["replica-0"]
        kinds = [e["kind"] for e in segment["events"]]
        assert marker not in kinds
        assert kinds[0] == "replica.ready"
        assert segment["n_recorded"] == len(kinds)

    def test_spool_dir_removed_on_close(self):
        with ReplicaSet(1, config=small_config()) as replicas:
            spool = replicas.spool_dir
            assert os.path.isdir(spool)
        assert not os.path.exists(spool)


class TestServeEvents:
    def test_serve_lifecycle_events_recorded(self):
        recorder = get_flight_recorder()
        mark = recorder.n_recorded
        with SimdramCluster(1, config=small_config()) as cluster, \
                SimdramService(cluster,
                               ServeConfig(max_wait_s=0.001,
                                           slo_aware=True)) as service:
            a = np.arange(8)
            service.submit("add", a, a, width=8,
                           deadline_s=30.0).result(60)
        fresh = [e for e in recorder.events()
                 if e.get("kind", "").startswith(("serve.", "pmu."))]
        kinds = {e["kind"] for e in fresh}
        assert {"serve.admit", "serve.dispatch", "pmu.delta"} <= kinds
        assert recorder.n_recorded > mark
