"""Trace format v2: versioned header, metadata round-trip."""

import json

import pytest

from repro.network.flit import Message, MessageClass
from repro.traffic import (
    MessageTraceRecorder,
    TraceEvent,
    TraceFormatError,
    attach_trace_sources,
    load_trace,
)
from repro.traffic.trace import TRACE_FORMAT, TRACE_VERSION, TraceSource

from tests.conftest import build


def _msg(meta=None, **kw):
    defaults = dict(src=1, dst=2, mclass=MessageClass.DATA, size_flits=5,
                    create_cycle=0)
    defaults.update(kw)
    msg = Message(**defaults)
    if meta:
        msg.meta.update(meta)
    return msg


class TestMetaRoundTrip:
    def test_save_load_equality_including_meta(self, tmp_path):
        rec = MessageTraceRecorder()
        rec.record(3, _msg(meta={"gpu": True, "slack": 7, "kind": "reply"}))
        rec.record(9, _msg(src=4, dst=0, mclass=MessageClass.CTRL,
                           size_flits=1, meta={"slack": 0}))
        path = str(tmp_path / "t.jsonl")
        rec.save(path, info={"scheme": "hybrid_tdm_vc4"})
        events, header = load_trace(path)
        assert events == rec.events
        assert events[0].meta == {"gpu": True, "slack": 7, "kind": "reply"}
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION
        assert header["events"] == 2
        assert header["scheme"] == "hybrid_tdm_vc4"

    def test_config_messages_are_skipped(self):
        rec = MessageTraceRecorder()
        rec.record(1, _msg(mclass=MessageClass.CONFIG, size_flits=1))
        assert rec.events == []

    def test_replay_restores_meta_on_messages(self):
        events = [TraceEvent(2, 0, 3, int(MessageClass.DATA), 5,
                             {"gpu": True, "slack": 4})]
        sim, net = build("packet_vc4", 2, 2)
        seen = []
        ni = net.ni(0)
        orig = ni.send
        ni.send = lambda m: (seen.append(m), orig(m))
        attach_trace_sources(net, events)
        sim.run(50)
        assert len(seen) == 1
        assert seen[0].meta["gpu"] is True
        assert seen[0].meta["slack"] == 4


class TestVersionedHeader:
    def test_legacy_file_rejected_with_clear_error(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text("[3, 0, 1, 0, 5]\n[7, 1, 0, 0, 5]\n")
        with pytest.raises(TraceFormatError, match="unversioned legacy"):
            load_trace(str(path))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(TraceFormatError):
            load_trace(str(path))

    def test_wrong_format_discriminator_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"format": "something-else",
                                    "version": 2}) + "\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(str(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"format": TRACE_FORMAT,
                                    "version": TRACE_VERSION + 1}) + "\n")
        with pytest.raises(TraceFormatError, match="newer"):
            load_trace(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text(json.dumps({"format": TRACE_FORMAT,
                                    "version": TRACE_VERSION,
                                    "events": 5}) + "\n"
                        + "[1, 0, 1, 0, 5]\n")
        with pytest.raises(TraceFormatError, match="truncated or corrupt"):
            load_trace(str(path))

    def test_malformed_event_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": TRACE_FORMAT,
                                    "version": TRACE_VERSION}) + "\n"
                        + "[1, 2]\n")
        with pytest.raises(TraceFormatError, match="malformed"):
            load_trace(str(path))


class TestTraceSourceStamping:
    def test_mid_run_attach_keeps_recorded_create_cycle(self):
        """A source attached after its events' cycles injects the backlog
        immediately, but the messages keep their recorded age."""
        sim, net = build("packet_vc4", 2, 2)
        sim.run(100)
        events = [TraceEvent(5, 0, 3, int(MessageClass.DATA), 5,
                             {"slack": 2})]
        seen = []
        ni = net.ni(0)
        orig = ni.send
        ni.send = lambda m: (seen.append(m), orig(m))
        attach_trace_sources(net, events)
        sim.run(50)
        assert len(seen) == 1
        assert seen[0].create_cycle == 5      # ev.cycle, not attach cycle
        assert seen[0].meta["slack"] == 2

    def test_source_state_roundtrip(self):
        events = [TraceEvent(c, 0, 1, 0, 5) for c in (1, 2, 3)]
        src = TraceSource(0, events)
        src._next = 2
        src.messages_received = 4
        clone = TraceSource(0, events)
        clone.load_state_dict(src.state_dict())
        assert clone._next == 2 and clone.messages_received == 4
        assert not clone.exhausted

