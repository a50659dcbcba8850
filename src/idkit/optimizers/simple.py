"""Random search and the elitist (1+1) evolution strategy."""

from __future__ import annotations

import numpy as np

from ..space import DesignPoint
from .base import OptimizerSession

__all__ = ["RandomSearch", "OnePlusOneES"]


class RandomSearch(OptimizerSession):
    """Uniform sampling; ask(n) yields n independent sample_uniform draws."""

    kind = "rs"

    def _propose_batch(self, n: int) -> list[DesignPoint]:
        return [self.space.sample_uniform(self.rng) for _ in range(n)]


class OnePlusOneES(OptimizerSession):
    """(1+1)-ES with 1/5-rule step adaptation on the unit box.

    The initial incumbent is drawn at construction but never evaluated; the
    first ask is already a mutation of it, and the first tell installs that
    child as the incumbent without touching sigma.  From then on a strictly
    better child replaces the incumbent and sigma grows by `sigma_up`, any
    other outcome shrinks it by `sigma_down`.  Categorical coordinates
    resample uniformly with probability `cat_prob` (default one over the
    number of categorical parameters).
    """

    kind = "es"
    strict_serial = True

    @classmethod
    def defaults(cls) -> dict:
        return {
            "sigma0": 0.3,
            "sigma_up": 1.22,
            "sigma_down": 0.82,
            "sigma_min": 1e-9,
            "sigma_max": 1.0,
            "cat_prob": None,
        }

    def _setup(self) -> None:
        self.sigma = float(self.config["sigma0"])
        self._cont = self._continuous_dims()
        n_cat = int(np.sum(~self._cont))
        p = self.config["cat_prob"]
        self._cat_prob = float(p) if p is not None else (1.0 / n_cat if n_cat else 0.0)
        init = self.space.sample_uniform(self.rng)
        self.incumbent_u = self.space.normalize(init)
        self.incumbent_loss: float | None = None

    def _mutate(self, u: np.ndarray) -> np.ndarray:
        out = u.copy()
        cont = self._cont
        out[cont] = np.clip(
            out[cont] + self.sigma * self.rng.standard_normal(int(cont.sum())), 0.0, 1.0
        )
        for d, k in enumerate(self.space.unit_kinds()):
            if k is not None and self.rng.random() < self._cat_prob:
                out[d] = int(self.rng.integers(k)) / k
        return out

    def _propose_batch(self, n: int) -> list[DesignPoint]:
        return [self.space.denormalize(self._mutate(self.incumbent_u)) for _ in range(n)]

    def _update(self, u: np.ndarray, loss: float, warm: bool) -> None:
        if warm:
            if self.incumbent_loss is None or loss < self.incumbent_loss:
                self.incumbent_u, self.incumbent_loss = u, loss
            return
        if self.incumbent_loss is None:
            self.incumbent_u, self.incumbent_loss = u, loss
            return
        if loss < self.incumbent_loss:
            self.incumbent_u, self.incumbent_loss = u, loss
            self.sigma *= self.config["sigma_up"]
        else:
            self.sigma *= self.config["sigma_down"]
        self.sigma = float(
            np.clip(self.sigma, self.config["sigma_min"], self.config["sigma_max"])
        )
