"""Shared ask/tell session machinery for the black-box optimizers.

A session owns its seeded generator and its history.  ``ask`` produces design
points that always validate against the space; ``tell`` matches evaluated
records back to outstanding proposals.  Strictly serial kinds refuse a second
ask while proposals are outstanding.  All proposal logic happens in the
normalized unit box; conditional bounds are resolved by denormalization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..records import EvalRecord
from ..space import DesignPoint, DesignSpace

__all__ = ["ProtocolError", "OptimizerSession", "warm_start"]


class ProtocolError(RuntimeError):
    """Ask/tell contract violation: out-of-turn ask or unknown proposal."""


class OptimizerSession:
    kind = "base"
    strict_serial = False

    def __init__(self, space: DesignSpace, config: dict | None = None, seed: int = 0):
        self.space = space
        self.config = self.resolve_config(config)
        self.rng = np.random.default_rng(seed)
        self.history: list[tuple[np.ndarray, float]] = []
        self._pending: list[DesignPoint] = []
        self._setup()

    @classmethod
    def defaults(cls) -> dict:
        return {}

    @classmethod
    def resolve_config(cls, config: dict | None) -> dict:
        """The defaults with `config` applied, each value cast to its default's
        type; ValueError names an unknown key."""
        defaults = cls.defaults()
        cfg = dict(defaults)
        for key, val in (config or {}).items():
            if key not in defaults:
                raise ValueError(f"{cls.kind}: unknown config key {key!r}")
            cfg[key] = type(defaults[key])(val) if defaults[key] is not None else val
        return cfg

    def _setup(self) -> None:
        pass

    # -- protocol --------------------------------------------------------------

    def ask(self, batch: int = 1) -> list[DesignPoint]:
        if batch < 1:
            raise ProtocolError(f"{self.kind}: batch must be >= 1, got {batch}")
        if self.strict_serial and self._pending:
            raise ProtocolError(
                f"{self.kind}: {len(self._pending)} proposals outstanding; tell them first"
            )
        points = self._propose_batch(batch)
        for pt in points:
            res = self.space.validate(pt)
            if not res:
                raise AssertionError(
                    f"{self.kind} proposed an invalid point: {res.violations}"
                )
        self._pending.extend(points)
        return points

    def tell(self, records: Sequence[EvalRecord]) -> None:
        for rec in records:
            for i, pt in enumerate(self._pending):
                if pt.values == rec.point.values:
                    del self._pending[i]
                    break
            else:
                raise ProtocolError(f"{self.kind}: record does not match any proposal")
            self._ingest(rec, warm=False)

    def _ingest(self, rec: EvalRecord, warm: bool) -> None:
        u = self.space.normalize(rec.point)
        self.history.append((u, float(rec.loss)))
        self._update(u, float(rec.loss), warm)

    # -- subclass hooks ----------------------------------------------------------

    def _propose_batch(self, n: int) -> list[DesignPoint]:
        raise NotImplementedError

    def _update(self, u: np.ndarray, loss: float, warm: bool) -> None:
        pass

    # -- helpers ---------------------------------------------------------------

    def _continuous_dims(self) -> np.ndarray:
        return np.array([k is None for k in self.space.unit_kinds()])


def warm_start(session: OptimizerSession, dataset: Sequence[EvalRecord], top_k: int):
    """Seed the session history with the top_k lowest-loss records.

    Consumes no budget: the records enter history (and each kind's internal
    model) but are not trials.  top_k = 0 leaves the session untouched.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if top_k == 0:
        return session
    chosen = sorted(dataset, key=lambda r: (r.loss, r.trial))[:top_k]
    for rec in chosen:
        session._ingest(rec, warm=True)
    return session
