"""Tree-structured Parzen estimator over the normalized unit box.

History splits at the loss quantile `gamma` into good and bad sets.  Each
set gets a per-dimension density: truncated-normal kernels on good/bad
values (bandwidth from the nearest-neighbor distance) mixed with one uniform
prior component for continuous coordinates, add-one smoothed counts for
categorical ones.  Proposals are the best of `n_candidates` draws from the
good density under the density ratio l/g.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from ..space import DesignPoint
from .base import OptimizerSession

__all__ = ["TreeParzen"]

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _truncnorm_logpdf(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Log density of N(mu, sigma^2) truncated to [0, 1]; broadcasts mu/sigma columns."""
    z = (x - mu) / sigma
    mass = ndtr((1.0 - mu) / sigma) - ndtr((0.0 - mu) / sigma)
    return -0.5 * z * z - np.log(sigma * _SQRT2PI) - np.log(np.maximum(mass, 1e-300))


class _ContParzen:
    """One-dimensional kernel mixture plus a uniform component on [0, 1]."""

    def __init__(self, values: np.ndarray, bw_floor: float):
        self.mu = np.asarray(values, dtype=float)
        n = self.mu.size
        if n == 0:
            self.sigma = np.empty(0)
        elif n == 1:
            self.sigma = np.array([0.25])
        else:
            order = np.argsort(self.mu)
            s = self.mu[order]
            gaps = np.diff(s)
            nn = np.empty(n)
            nn[order[0]] = gaps[0]
            nn[order[-1]] = gaps[-1]
            if n > 2:
                nn[order[1:-1]] = np.minimum(gaps[:-1], gaps[1:])
            self.sigma = np.clip(nn, bw_floor, 1.0)
        self.n_comp = n + 1  # plus the uniform prior component

    @cached_property
    def _kernels(self) -> list[tuple[float, float, float, float]]:
        """Per kernel: mu, sigma and the normal CDF at the ends of [0, 1]."""
        lo, hi = ndtr((0.0 - self.mu) / self.sigma), ndtr((1.0 - self.mu) / self.sigma)
        return list(zip(self.mu.tolist(), self.sigma.tolist(), lo.tolist(), hi.tolist()))

    def sample(self, rng: np.random.Generator) -> float:
        c = int(rng.integers(self.n_comp))
        if c == self.mu.size:
            return float(rng.random())
        mu, sigma, lo, hi = self._kernels[c]
        return float(mu + sigma * ndtri(lo + rng.random() * (hi - lo)))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.mu.size == 0:
            return np.zeros(x.shape)  # uniform only
        comp = _truncnorm_logpdf(x[None, :], self.mu[:, None], self.sigma[:, None])
        stack = np.vstack([comp, np.zeros((1, x.size))])  # log uniform pdf = 0
        m = stack.max(axis=0)
        return m + np.log(np.exp(stack - m).sum(axis=0)) - math.log(self.n_comp)


class _CatParzen:
    """Add-one smoothed empirical distribution over k choices."""

    def __init__(self, indices: np.ndarray, k: int):
        counts = np.bincount(indices.astype(int), minlength=k).astype(float) + 1.0
        self.p = counts / counts.sum()
        self._cdf = self.p.cumsum()
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator) -> int:
        # inverse-CDF draw: the same draw, from the same stream, as
        # rng.choice(k, p=self.p), without its per-call argument checks
        return int(self._cdf.searchsorted(rng.random(), side="right"))

    def logpdf(self, idx: np.ndarray) -> np.ndarray:
        return np.log(self.p[idx.astype(int)])


class TreeParzen(OptimizerSession):
    kind = "tpe"

    @classmethod
    def defaults(cls) -> dict:
        return {
            "gamma": 0.25,
            "n_candidates": 24,
            "n_startup": 10,
            "bw_floor": 1e-3,
            "n_good_cap": 25,
        }

    def _setup(self) -> None:
        self._kinds = self.space.unit_kinds()

    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """Quantile split, with the good set capped so the model keeps sharpening.

        The cap mirrors the reference implementations of this sampler; without
        it the good-side density stays as broad as the gamma quantile forever
        and late-stage proposals stop concentrating.
        """
        hist = sorted(
            range(len(self.history)), key=lambda i: (self.history[i][1], i)
        )
        n_good = max(1, math.ceil(float(self.config["gamma"]) * len(hist)))
        cap = int(self.config["n_good_cap"])
        if cap > 0:
            n_good = min(n_good, cap)
        us = np.array([self.history[i][0] for i in hist])
        return us[:n_good], us[n_good:]

    def _estimators(self, us: np.ndarray) -> list:
        out = []
        bw_floor = float(self.config["bw_floor"])
        us = us.reshape(-1, self.space.dim)
        idx = iter(self.space.choice_indices(us).T)
        for d, k in enumerate(self._kinds):
            if k is None:
                out.append(_ContParzen(us[:, d], bw_floor))
            else:
                out.append(_CatParzen(next(idx), k))
        return out

    def _propose_batch(self, n: int) -> list[DesignPoint]:
        out = []
        for _ in range(n):
            if len(self.history) < int(self.config["n_startup"]):
                out.append(self.space.sample_uniform(self.rng))
                continue
            good_u, bad_u = self._split()
            l_est = self._estimators(good_u)
            g_est = self._estimators(bad_u)
            n_cand = int(self.config["n_candidates"])
            cand = np.empty((n_cand, self.space.dim))
            score = np.zeros(n_cand)
            for d, k in enumerate(self._kinds):
                if k is None:
                    xs = np.array([l_est[d].sample(self.rng) for _ in range(n_cand)])
                    xs = np.clip(xs, 0.0, 1.0)
                    cand[:, d] = xs
                    score += l_est[d].logpdf(xs) - g_est[d].logpdf(xs)
                else:
                    idx = np.array([l_est[d].sample(self.rng) for _ in range(n_cand)])
                    cand[:, d] = idx / k
                    score += l_est[d].logpdf(idx) - g_est[d].logpdf(idx)
            out.append(self.space.denormalize(cand[int(np.argmax(score))]))
        return out
