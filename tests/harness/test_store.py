"""Artifact store helpers: atomic writes, checksums, self-hashed documents."""

from __future__ import annotations

import json
import os

import pytest

from repro.harness import store


class TestCanonicalJson:
    def test_byte_stable_across_key_order(self):
        a = store.canonical_json({"b": 1, "a": [1, 2]})
        b = store.canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith(b"\n")

class TestAtomicWriters:
    def test_write_returns_content_hash(self, tmp_path):
        path = str(tmp_path / "f.json")
        sha = store.write_json_atomic(path, {"x": 1})
        assert store.sha256_file(path) == sha
        assert sha == store.sha256_bytes(store.canonical_json({"x": 1}))
        assert json.load(open(path)) == {"x": 1}

    def test_no_tmp_litter_on_success(self, tmp_path):
        store.write_bytes_atomic(str(tmp_path / "out"), b"data")
        assert sorted(os.listdir(tmp_path)) == ["out"]

    def test_read_json_none_on_garbage(self, tmp_path):
        assert store.read_json(str(tmp_path / "missing")) is None
        path = str(tmp_path / "bad")
        open(path, "w").write("{not json")
        assert store.read_json(path) is None


class TestSelfHashedDocuments:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        store.write_json_self_hashed(path, {"a": 1})
        doc = store.read_json_self_hashed(path)
        assert doc["a"] == 1
        assert store.SELF_HASH_KEY in doc

    def test_missing_is_none(self, tmp_path):
        assert store.read_json_self_hashed(str(tmp_path / "no")) is None

    def test_bitflip_detected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        store.write_json_self_hashed(path, {"a": 1, "b": "payload"})
        data = bytearray(open(path, "rb").read())
        data[data.index(b"payload"[0])] ^= 0x01
        open(path, "wb").write(bytes(data))
        with pytest.raises(store.StoreCorruptError, match="self-hash"):
            store.read_json_self_hashed(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        store.write_json_self_hashed(path, {"a": list(range(100))})
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(store.StoreCorruptError, match="unparseable"):
            store.read_json_self_hashed(path)

    def test_hand_edit_detected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        store.write_json_self_hashed(path, {"a": 1})
        doc = json.load(open(path))
        doc["a"] = 2
        json.dump(doc, open(path, "w"))
        with pytest.raises(store.StoreCorruptError):
            store.read_json_self_hashed(path)


class TestDiskFullHook:
    def teardown_method(self):
        store.install_diskfull(0, 0)     # never leak into other tests

    def test_injected_enospc_leaves_no_final_file(self, tmp_path):
        store.install_diskfull(1.0, seed=7)
        path = str(tmp_path / "out.json")
        with pytest.raises(OSError, match="disk full"):
            store.write_json_atomic(path, {"x": 1})
        assert not os.path.exists(path), \
            "a failed write must never create the final name"
        assert os.path.exists(path + ".tmp"), "partial spill expected"

    def test_seeded_fraction_fails(self, tmp_path):
        store.install_diskfull(0.5, seed=3)
        outcomes = []
        for i in range(40):
            try:
                store.write_bytes_atomic(str(tmp_path / f"f{i}"), b"x")
                outcomes.append(True)
            except OSError:
                outcomes.append(False)
        assert 5 < sum(outcomes) < 35    # both branches taken

    def test_disarm(self, tmp_path):
        store.install_diskfull(1.0, seed=1)
        store.install_diskfull(0, 0)
        store.write_bytes_atomic(str(tmp_path / "ok"), b"fine")
