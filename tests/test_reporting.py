"""Canonical JSON serialization and run manifests."""

import hashlib
import json

import numpy as np

from tailmix.reporting import (
    RunManifest,
    build_report,
    canonical_json,
    describe_input,
    jsonable,
)


class TestJsonable:
    def test_numpy_scalars_coerced(self):
        out = jsonable({"a": np.int64(3), "b": np.float64(1.5), "c": np.bool_(True)})
        assert out == {"a": 3, "b": 1.5, "c": True}
        assert type(out["a"]) is int
        assert type(out["b"]) is float

    def test_arrays_and_tuples_become_lists(self):
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nonfinite_floats_become_strings(self):
        out = jsonable([float("inf"), float("-inf"), float("nan")])
        assert out == ["inf", "-inf", "nan"]


class TestCanonicalJson:
    def test_sorted_and_tight(self):
        text = canonical_json({"b": 1, "a": {"z": 2, "y": [3, 4]}})
        assert text == '{"a":{"y":[3,4],"z":2},"b":1}'

    def test_stable_across_key_insertion_order(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert canonical_json(a) == canonical_json(b)


class TestManifest:
    def test_round_trip_keys(self):
        m = RunManifest(subcommand="bin", seed=4, config={"w": [4, 8]})
        d = m.to_dict()
        assert d["subcommand"] == "bin"
        assert d["seed"] == 4
        assert d["tool"] == "tailmix"
        assert "backend" not in d
        json.dumps(d)

    def test_describe_input_hashes_content(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"hello")
        d = describe_input(p)
        assert d["path"] == "x.bin"
        assert d["sha256"] == hashlib.sha256(b"hello").hexdigest()

    def test_build_report_takes_its_kind_from_the_manifest(self):
        m = RunManifest(subcommand="classify", seed=4, config={})
        report = build_report(m, {"n": 3})
        assert report == {"kind": "classify", "manifest": m.to_dict(),
                          "results": {"n": 3}}
