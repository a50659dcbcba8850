"""Evaluation records and their JSON-lines serialization.

One :class:`EvalRecord` captures a single simulator call: the design point,
the raw response, the scalar loss against the active target, the trial index,
and, for a failed call, the reason.  The line format is one JSON object per
record with keys ``x``, ``y``, ``loss`` and ``trial``; a failed call adds
``"meta":{"error": reason}``.  Files are plain JSON lines so a partial file is
still readable after a crash; readers skip blank lines.  Lines of earlier
versions load unchanged: their wall-time key ``t`` is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .space import DesignPoint

__all__ = ["EvalRecord", "dump_records", "load_records"]


@dataclass(frozen=True)
class EvalRecord:
    point: DesignPoint
    response: Sequence[float] | np.ndarray
    loss: float
    trial: int
    error: str | None = field(default=None, kw_only=True)

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_json(self) -> str:
        payload = {
            "x": list(self.point.values),
            "y": np.asarray(self.response, dtype=float).tolist(),
            "loss": float(self.loss),
            "trial": int(self.trial),
        }
        if self.error is not None:
            payload["meta"] = {"error": self.error}
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "EvalRecord":
        d = json.loads(line)
        return cls(
            point=DesignPoint(tuple(d["x"])),
            response=tuple(map(float, d["y"])),
            loss=float(d["loss"]),
            trial=int(d["trial"]),
            error=d.get("meta", {}).get("error"),
        )

    def response_array(self) -> np.ndarray:
        return np.asarray(self.response, dtype=float)


def dump_records(path, records: Iterable[EvalRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")


def load_records(path) -> list[EvalRecord]:
    """The file's records; a line that is not one raises ValueError naming file and line."""
    out: list[EvalRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(map(str.strip, fh), 1):
            try:
                if line:
                    out.append(EvalRecord.from_json(line))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{path} line {n}: {type(exc).__name__}: {exc}") from exc
    return out
