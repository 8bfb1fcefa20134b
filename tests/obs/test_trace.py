"""Trace recorder unit tests (S13): schema, null object, renderers."""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from repro.obs import (
    EVENT_SCHEMA,
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    iter_events,
    validate_event,
    validate_jsonl,
)


def _filled(max_events=500_000) -> TraceRecorder:
    """A recorder with one event of every schema type."""
    rec = TraceRecorder(max_events=max_events)
    rec.flit_inject(1, "ni-0", pkt=7, flit=0, dst=3, cs=False)
    rec.flit_route(2, "router-0", pkt=7, outport=1)
    rec.flit_eject(5, "ni-3", pkt=7, flit=0, cs=False, done=True)
    rec.cs_setup(10, "ni-0", conn=4, step="send", dst=3, slot=2)
    rec.cs_setup(12, "router-1", conn=4, step="reserve", slot=2, outport=1)
    rec.cs_teardown(90, "ni-0", conn=4, step="send")
    rec.cs_ack(20, "ni-0", conn=4, ok=True)
    rec.slot_steal(30, "router-2", outport=1, slot=5)
    rec.cs_orphan(40, "router-3", pkt=9, reason="orphan")
    rec.cs_fallback(41, "ni-2", pkt=9, kind="hitchhike")
    rec.resize(50, "sim", active=64, generation=1)
    rec.livelock(70, "sim", in_flight=12, stalled_cycles=4000)
    rec.audit_violation(80, "sim", imbalance=2)
    return rec


class TestNullRecorder:
    def test_disabled_and_shared(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)

    def test_any_emission_is_noop(self):
        assert NULL_RECORDER.flit_inject(0, "ni-0", 1, 0, 3, False) is None
        assert NULL_RECORDER.made_up_event("anything", kw=1) is None

    def test_dunder_lookup_raises(self):
        # keeps pickle/copy protocols from silently treating the null
        # recorder as having __reduce__/__deepcopy__ hooks
        with pytest.raises(AttributeError):
            NULL_RECORDER.__deepcopy__
        assert copy.deepcopy(NULL_RECORDER) is not None
        assert pickle.loads(pickle.dumps(NULL_RECORDER)).enabled is False


class TestTraceRecorder:
    def test_every_schema_event_has_a_typed_method(self):
        rec = _filled()
        assert rec.enabled is True
        assert set(rec.counts) == set(EVENT_SCHEMA)
        for record in rec.events:
            validate_event(record)

    def test_counts_and_summary(self):
        rec = _filled()
        assert rec.counts["cs_setup"] == 2
        summary = rec.summary()
        assert summary["events"] == len(rec.events) == 13
        assert summary["dropped"] == 0
        assert summary["counts"]["flit_inject"] == 1

    def test_max_events_cap_counts_drops(self):
        rec = TraceRecorder(max_events=3)
        for cycle in range(10):
            rec.flit_route(cycle, "router-0", pkt=1, outport=2)
        assert len(rec.events) == 3
        assert rec.dropped == 7

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)

    def test_iter_events_filters(self):
        rec = _filled()
        setups = list(iter_events(rec.events, "cs_setup"))
        assert len(setups) == 2
        assert all(r["ev"] == "cs_setup" for r in setups)
        assert len(list(iter_events(rec.events))) == 13


class TestValidateEvent:
    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            validate_event({"ev": "nope", "cycle": 0, "track": "sim"})

    def test_missing_common_field_rejected(self):
        with pytest.raises(ValueError, match="missing common field"):
            validate_event({"ev": "resize", "cycle": 0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="missing fields"):
            validate_event({"ev": "cs_ack", "cycle": 0, "track": "ni-0",
                            "conn": 1})

    def test_bad_cycle_rejected(self):
        for cycle in (-1, 1.5, True, "7"):
            with pytest.raises(ValueError, match="cycle"):
                validate_event({"ev": "resize", "cycle": cycle,
                                "track": "sim", "active": 64,
                                "generation": 1})

    def test_bad_track_rejected(self):
        for track in ("", 3, None):
            with pytest.raises(ValueError, match="track"):
                validate_event({"ev": "resize", "cycle": 0,
                                "track": track, "active": 64,
                                "generation": 1})

    def test_extra_fields_allowed(self):
        validate_event({"ev": "resize", "cycle": 0, "track": "sim",
                        "active": 64, "generation": 1, "extra": "ok"})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="dict"):
            validate_event(["ev", "resize"])


class TestJsonl:
    def test_round_trip_validates(self, tmp_path):
        rec = _filled()
        path = str(tmp_path / "trace.jsonl")
        assert rec.write_jsonl(path) == 13
        assert validate_jsonl(path) == 13
        records = [json.loads(line) for line in open(path)]
        assert records == rec.events

    def test_malformed_line_reports_location(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "resize", "cycle": 0, "track": "sim", '
                     '"active": 64, "generation": 1}\n')
            fh.write("not json\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            validate_jsonl(path)

    def test_invalid_event_reports_location(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "resize", "cycle": 0, "track": "sim"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            validate_jsonl(path)

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "trace.jsonl")
        _filled().write_jsonl(path)
        assert validate_jsonl(path) == 13


class TestChromeTrace:
    def test_structure(self, tmp_path):
        rec = _filled()
        path = str(tmp_path / "trace.chrome.json")
        assert rec.write_chrome(path) == 13
        doc = json.load(open(path))
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 13
        # one process_name + (thread_name + thread_sort_index) per track
        tracks = {r["track"] for r in rec.events}
        assert len(meta) == 1 + 2 * len(tracks)
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert names == tracks

    def test_instants_carry_cycle_and_args(self, tmp_path):
        rec = TraceRecorder()
        rec.slot_steal(123, "router-5", outport=2, slot=7)
        path = str(tmp_path / "t.json")
        rec.write_chrome(path)
        doc = json.load(open(path))
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(inst) == 1
        assert inst[0]["ts"] == 123
        assert inst[0]["name"] == "slot_steal"
        assert inst[0]["cat"] == "circuit"
        assert inst[0]["args"] == {"outport": 2, "slot": 7}
        assert inst[0]["s"] == "t"

    def test_track_lanes_ordered_sim_routers_nis(self, tmp_path):
        rec = TraceRecorder()
        rec.flit_eject(0, "ni-10", pkt=1, flit=0, cs=False, done=True)
        rec.flit_route(0, "router-2", pkt=1, outport=0)
        rec.resize(0, "sim", active=64, generation=1)
        rec.flit_route(0, "router-10", pkt=1, outport=0)
        path = str(tmp_path / "t.json")
        rec.write_chrome(path)
        doc = json.load(open(path))
        order = {}
        for e in doc["traceEvents"]:
            if e.get("name") == "thread_name":
                order[e["args"]["name"]] = e["tid"]
        assert order["sim"] < order["router-2"] < order["router-10"] \
            < order["ni-10"]
