"""Evaluation records and the JSON-lines on-disk format."""

import json
import re

import numpy as np
import pytest

from idkit.records import (
    EvalRecord,
    dump_records,
    load_records,
)
from idkit.space import DesignPoint


def rec(loss, trial, error=None):
    return EvalRecord(
        point=DesignPoint(("SiO2", 0.5)),
        response=(0.1, 0.2, 0.3),
        loss=loss,
        trial=trial,
        error=error,
    )


class TestSerialization:
    def test_json_roundtrip_is_exact(self):
        for r in (rec(0.1 + 0.2, 7), rec(0.1 + 0.2, 7, error="solver crashed")):
            assert EvalRecord.from_json(r.to_json()) == r

    def test_float_values_survive_reprs(self):
        vals = (1 / 3, 2**-40, 1e300)
        r = EvalRecord(DesignPoint(vals), vals, np.pi, 0)
        back = EvalRecord.from_json(r.to_json())
        assert back.point.values == vals
        assert back.loss == np.pi

    def test_ndarray_response_serializes(self):
        r = EvalRecord(DesignPoint((1.0,)), np.array([1.5, 2.5]), 0.0, 0)
        back = EvalRecord.from_json(r.to_json())
        assert back.response == (1.5, 2.5)

    @pytest.mark.parametrize("values", [(0.1, 1 / 3, 2**-40, 1e30, -0.0, 7), (0.25, np.nan)],
                             ids=["finite", "nan"])
    @pytest.mark.parametrize("container", [tuple, list, np.array,
                                           lambda v: np.array(v, dtype=np.float32)],
                             ids=["tuple", "list", "float64", "float32"])
    def test_response_bytes_match_the_per_element_encoding(self, values, container):
        response = container(values)
        r = EvalRecord(DesignPoint(("SiO2", 0.5)), response, 0.5, 3)
        per_element = {"x": ["SiO2", 0.5], "y": [float(v) for v in response],
                       "loss": 0.5, "trial": 3}
        assert r.to_json() == json.dumps(per_element, separators=(",", ":"), sort_keys=True)
        back = EvalRecord.from_json(r.to_json()).response
        assert np.array_equal(back, [float(v) for v in response], equal_nan=True)

    def test_failed_flag_follows_meta(self):
        # on disk the reason sits in a "meta" object
        assert not rec(1.0, 0).failed
        assert rec(1.0, 0, error="boom").failed
        line = '{"loss":Infinity,"meta":{"error":"boom"},"trial":0,"x":[0.5],"y":[]}'
        assert EvalRecord.from_json(line).failed
        assert not EvalRecord.from_json('{"loss":1.0,"meta":{},"trial":0,"x":[0.5],"y":[]}').failed

    def test_failed_record_bytes(self):
        r = EvalRecord(DesignPoint(("SiO2", 0.5)), (), float("inf"), 2, error="boom")
        assert r.to_json() == (
            '{"loss":Infinity,"meta":{"error":"boom"},"trial":2,"x":["SiO2",0.5],"y":[]}'
        )

    def test_line_of_an_earlier_version_loads(self):
        # earlier versions wrote a wall time "t"; it is ignored
        line = ('{"loss":Infinity,"meta":{"error":"boom"},"t":0.125,"trial":4,'
                '"x":["SiO2",0.5],"y":[0.1,0.2]}')
        r = EvalRecord.from_json(line)
        assert r.point.values == ("SiO2", 0.5)
        assert r.response == (0.1, 0.2)
        assert r.loss == float("inf")
        assert r.trial == 4
        assert r.error == "boom"
        assert EvalRecord.from_json(line.replace('"meta":{"error":"boom"},', "")).error is None

    def test_error_is_keyword_only(self):
        with pytest.raises(TypeError):
            EvalRecord(DesignPoint((0.5,)), (), 1.0, 0, 0.125)

    def test_one_object_per_line_no_newlines_inside(self):
        assert "\n" not in rec(1.0, 0).to_json()


class TestFiles:
    def test_dump_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        records = [rec(float(i), i) for i in range(5)]
        dump_records(path, records)
        back = load_records(path)
        assert len(back) == 5
        assert [r.trial for r in back] == [0, 1, 2, 3, 4]
        assert [r.loss for r in back] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(rec(1.0, 0).to_json() + "\n\n" + rec(2.0, 1).to_json() + "\n")
        assert len(load_records(path)) == 2

    def test_partial_last_line_is_the_readers_problem(self, tmp_path):
        # full lines before a truncated tail stay readable
        path = tmp_path / "run.jsonl"
        text = rec(1.0, 0).to_json() + "\n" + rec(2.0, 1).to_json()
        path.write_text(text[: len(text) - 4])
        with pytest.raises(Exception):
            load_records(path)
        path.write_text(rec(1.0, 0).to_json() + "\n")
        assert len(load_records(path)) == 1

    def test_bad_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [rec(float(i), i).to_json() for i in range(6)]
        lines[5] = lines[5][: lines[5].index("SiO2") + 2]  # cut inside a string
        path.write_text("\n".join(lines) + "\n")
        match = rf"^{re.escape(str(path))} line 6: JSONDecodeError: Unterminated string"
        with pytest.raises(ValueError, match=match):
            load_records(path)

    def test_non_record_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(rec(1.0, 0).to_json() + "\n\n" + '{"x":[1.0]}\n')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 3: KeyError"):
            load_records(path)
