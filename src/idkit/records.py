"""Evaluation records and their JSON-lines serialization.

One :class:`EvalRecord` captures a single simulator call: the design point,
the raw response, the scalar loss against the active target, the trial index,
and the wall time.  The line format is one JSON object per record with keys
``x``, ``y``, ``loss``, ``trial``, ``t`` (plus an optional ``meta`` object for
failure reasons and similar annotations).  Files are plain JSON lines so a
partial file is still readable after a crash; readers skip blank lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .space import DesignPoint

__all__ = [
    "EvalRecord",
    "dump_records",
    "load_records",
]


@dataclass(frozen=True)
class EvalRecord:
    point: DesignPoint
    response: Sequence[float] | np.ndarray
    loss: float
    trial: int
    wall_time: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return "error" in self.meta

    def to_json(self) -> str:
        payload = {
            "x": list(self.point.values),
            "y": np.asarray(self.response, dtype=float).tolist(),
            "loss": float(self.loss),
            "trial": int(self.trial),
            "t": float(self.wall_time),
        }
        if self.meta:
            payload["meta"] = self.meta
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "EvalRecord":
        d = json.loads(line)
        return cls(
            point=DesignPoint(tuple(d["x"])),
            response=tuple(map(float, d["y"])),
            loss=float(d["loss"]),
            trial=int(d["trial"]),
            wall_time=float(d.get("t", 0.0)),
            meta=d.get("meta", {}),
        )

    def response_array(self) -> np.ndarray:
        return np.asarray(self.response, dtype=float)

    def with_zero_time(self) -> "EvalRecord":
        """Copy with t = 0.0, for byte-reproducible dataset files."""
        return replace(self, wall_time=0.0)


def dump_records(path, records: Iterable[EvalRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")


def load_records(path) -> list[EvalRecord]:
    out: list[EvalRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(EvalRecord.from_json(line))
    return out
