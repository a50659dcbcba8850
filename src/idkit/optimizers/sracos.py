"""Sequential classification-based optimizer with randomized box shrinking.

Keeps the best-so-far point as the single positive example and a bounded
ring of recent worse points as negatives.  Each ask shrinks a random
axis-aligned box around the positive until every negative is excluded, then
samples uniformly inside it; with a small probability it explores uniformly
instead.  Categorical coordinates take part in the box on their unit-box
slot values.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..space import DesignPoint
from .base import OptimizerSession

__all__ = ["Sracos"]


class Sracos(OptimizerSession):
    kind = "sracos"

    @classmethod
    def defaults(cls) -> dict:
        return {
            "epsilon": 0.05,
            "neg_capacity": 20,
            "n_startup": 5,
            "shrink_max": 200,
        }

    def _setup(self) -> None:
        self.positive: tuple[np.ndarray, float] | None = None
        self.negatives: deque = deque(maxlen=int(self.config["neg_capacity"]))

    def _shrunk_box(self) -> tuple[np.ndarray, np.ndarray]:
        pos = self.positive[0]
        lo = np.zeros(self.space.dim)
        hi = np.ones(self.space.dim)
        inside = [v for v, _ in self.negatives]
        for _ in range(int(self.config["shrink_max"])):
            inside = [v for v in inside if np.all(v >= lo) and np.all(v <= hi)]
            if not inside:
                break
            j = int(self.rng.integers(len(inside)))
            neg = inside[j]
            diff = np.flatnonzero(neg != pos)
            if diff.size == 0:
                inside.pop(j)
                continue
            d = int(diff[int(self.rng.integers(diff.size))])
            if neg[d] > pos[d]:
                hi[d] = pos[d] + self.rng.random() * (neg[d] - pos[d])
            else:
                lo[d] = neg[d] + self.rng.random() * (pos[d] - neg[d])
        return lo, hi

    def _propose_batch(self, n: int) -> list[DesignPoint]:
        out = []
        for _ in range(n):
            explore = (
                self.positive is None
                or len(self.history) < int(self.config["n_startup"])
                or self.rng.random() < float(self.config["epsilon"])
            )
            if explore:
                out.append(self.space.sample_uniform(self.rng))
                continue
            lo, hi = self._shrunk_box()
            u = lo + self.rng.random(self.space.dim) * (hi - lo)
            out.append(self.space.denormalize(u))
        return out

    def _update(self, u: np.ndarray, loss: float, warm: bool) -> None:
        if self.positive is None or loss < self.positive[1]:
            if self.positive is not None:
                self.negatives.append(self.positive)
            self.positive = (u, loss)
        else:
            self.negatives.append((u, loss))
