"""Evaluation records and the JSON-lines on-disk format."""

import json

import numpy as np
import pytest

from idkit.records import (
    EvalRecord,
    dump_records,
    load_records,
)
from idkit.space import DesignPoint


def rec(loss, trial, meta=None, t=0.125):
    return EvalRecord(
        point=DesignPoint(("SiO2", 0.5)),
        response=(0.1, 0.2, 0.3),
        loss=loss,
        trial=trial,
        wall_time=t,
        meta=meta or {},
    )


class TestSerialization:
    def test_json_roundtrip_is_exact(self):
        r = rec(0.1 + 0.2, 7, meta={"cache": "hit"})
        back = EvalRecord.from_json(r.to_json())
        assert back.point.values == r.point.values
        assert back.response == r.response
        assert back.loss == r.loss
        assert back.trial == r.trial
        assert back.wall_time == r.wall_time
        assert back.meta == r.meta

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
        r = EvalRecord(DesignPoint(("SiO2", 0.5)), response, 0.5, 3, 0.25)
        per_element = {"x": ["SiO2", 0.5], "y": [float(v) for v in response],
                       "loss": 0.5, "trial": 3, "t": 0.25}
        assert r.to_json() == json.dumps(per_element, separators=(",", ":"), sort_keys=True)
        back = EvalRecord.from_json(r.to_json()).response
        assert np.array_equal(back, [float(v) for v in response], equal_nan=True)

    def test_failed_flag_follows_meta(self):
        assert not rec(1.0, 0).failed
        assert rec(1.0, 0, meta={"error": "boom"}).failed

    def test_with_zero_time_resets_only_time(self):
        r = rec(2.0, 3, t=0.7)
        z = r.with_zero_time()
        assert z.wall_time == 0.0
        assert (z.loss, z.trial, z.response) == (r.loss, r.trial, r.response)

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
