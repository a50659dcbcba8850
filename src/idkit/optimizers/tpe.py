"""Tree-structured Parzen estimator over the normalized unit box.

History splits at the loss quantile `gamma` into good and bad sets.  Each
set gets a density over every dimension: truncated-normal kernels on good/bad
values (bandwidth from the nearest-neighbor distance) mixed with one uniform
prior component for continuous coordinates, add-one smoothed counts for
categorical ones.  Proposals are the best of `n_candidates` draws from the
good density under the density ratio l/g.

Draw order: dimensions in order.  A categorical one takes its `n_candidates`
uniforms in one call, a continuous one a scalar ``(integers(n + 1),
random())`` pair (mixture component, then the uniform it inverts) per
candidate.  Batched ``integers`` calls would consume the stream differently
and change every seeded run, and acceptance criterion C04 (TPE beats random
search) has too thin a margin for a new stream.  Scoring is array passes
with the same bits as scoring one coordinate at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from ..space import DesignPoint
from .base import OptimizerSession

__all__ = ["TreeParzen"]

_SQRT2PI = math.sqrt(2.0 * math.pi)
# exp of anything at or below this is exactly 0.0, and numpy's exp is slow there
_EXP_ZERO = -746.0
_BLOCK = 1 << 15  # entries per block of the kernel pass; keeps it in cache


class _Parzen:
    """One side's density over every dimension: kernels ``mu``/``sigma`` (n, n_cont)
    plus the uniform component, and add-one smoothed choice probabilities ``p``
    (n_cat, k_max), zero past a column's own k."""

    def __init__(self, mu: np.ndarray, choices: np.ndarray, ks: np.ndarray, bw_floor: float):
        n = self.n = mu.shape[0]
        sigma = np.full(mu.shape, 0.25)
        if n > 1:
            # flat positions of each column's values in ascending order
            at = (np.argsort(mu, axis=0) * mu.shape[1] + np.arange(mu.shape[1])).ravel()
            gaps = np.diff(mu.ravel()[at].reshape(mu.shape), axis=0)
            nn = np.concatenate([gaps[:1], np.minimum(gaps[:-1], gaps[1:]), gaps[-1:]])
            sigma.ravel()[at] = np.clip(nn, bw_floor, 1.0).ravel()
        self.mu, self.sigma = mu, sigma
        self.lo, self.hi = ndtr((0.0 - mu) / sigma), ndtr((1.0 - mu) / sigma)
        self.log_norm = np.log(sigma * _SQRT2PI)
        self.log_mass = np.log(np.maximum(self.hi - self.lo, 1e-300))
        k_max = int(ks.max(initial=0))
        flat = (choices + k_max * np.arange(ks.size)).ravel()
        counts = np.bincount(flat, minlength=ks.size * k_max).reshape(ks.size, k_max)
        counts = counts + (np.arange(k_max) < ks[:, None])
        self.p = counts / counts.sum(axis=1, keepdims=True)
        cdf = self.p.cumsum(axis=1)
        self.cdf = cdf / cdf[:, -1:]

    def sample(self, comp: np.ndarray, u: np.ndarray, cat_u: np.ndarray):
        """Continuous values (n_cont, m) and choice indices (n_cat, m) of the draws."""
        x = u
        if self.n:
            j, col = np.minimum(comp, self.n - 1), np.arange(comp.shape[0])[:, None]
            lo, hi = self.lo[j, col], self.hi[j, col]
            kernel = self.mu[j, col] + self.sigma[j, col] * ndtri(lo + u * (hi - lo))
            x = np.where(comp == self.n, u, kernel)
        return np.clip(x, 0.0, 1.0), (self.cdf[:, None, :] <= cat_u[:, :, None]).sum(axis=2)

    def logpdf(self, x: np.ndarray, choices: np.ndarray) -> np.ndarray:
        """Log density of every coordinate: rows (n_cont + n_cat, m)."""
        cat = np.log(np.take_along_axis(self.p, choices, axis=1))
        if not (self.n and x.size):
            return np.concatenate([np.zeros(x.shape), cat])
        # kernels on the leading axis, so that a sum over them runs in order
        q = np.empty((self.n,) + x.shape)
        step = max(1, _BLOCK // x.size)
        blocks = [slice(s, s + step) for s in range(0, self.n, step)]
        for b in blocks:
            z = np.subtract(x, self.mu[b, :, None], out=q[b])
            z /= self.sigma[b, :, None]
            z *= z * -0.5
            z -= self.log_norm[b, :, None]
            z -= self.log_mass[b, :, None]
        m = np.maximum(q.max(axis=0), 0.0)  # the uniform component's log pdf is 0
        for b in blocks:
            e = q[b]
            e -= m
            keep = e > _EXP_ZERO
            e *= keep  # exp(-0.0) where dropped, zeroed again below
            np.exp(e, out=e)
            e *= keep
            if b.start:  # the running sum enters as the block's first row
                q[b.start - 1] = total
            total = q[max(b.start - 1, 0):b.stop].sum(axis=0)
        total += np.exp(-m)
        return np.concatenate([m + np.log(total) - math.log(self.n + 1), cat])


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
        # the dimension of each density row: continuous ones, then categorical
        self._rows = np.argsort([k is not None for k in self._kinds], kind="stable")
        self._cont = self._rows[: self._kinds.count(None)]
        self._ks = np.array([k for k in self._kinds if k is not None], dtype=int)

    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """Quantile split, with the good set capped so the model keeps sharpening.

        The cap mirrors the reference implementations of this sampler; without
        it the good-side density stays as broad as the gamma quantile forever
        and late-stage proposals stop concentrating.  Tied losses keep history order.
        """
        order = np.argsort([loss for _, loss in self.history], kind="stable")
        n_good = max(1, math.ceil(float(self.config["gamma"]) * len(order)))
        cap = int(self.config["n_good_cap"])
        if cap > 0:
            n_good = min(n_good, cap)
        us = np.array([self.history[i][0] for i in order]).reshape(-1, self.space.dim)
        return us[:n_good], us[n_good:]

    def _propose_batch(self, n: int) -> list[DesignPoint]:
        if len(self.history) < int(self.config["n_startup"]):
            return [self.space.sample_uniform(self.rng) for _ in range(n)]
        bw_floor = float(self.config["bw_floor"])
        good, bad = (_Parzen(us[:, self._cont].copy(), self.space.choice_indices(us), self._ks,
                             bw_floor) for us in self._split())
        return [self.space.denormalize(self._candidate(good, bad)) for _ in range(n)]

    def _candidate(self, good: _Parzen, bad: _Parzen) -> np.ndarray:
        """The best of `n_candidates` draws from `good` under the ratio good/bad."""
        m = int(self.config["n_candidates"])
        integers, random = self.rng.integers, self.rng.random
        comp, u, cat_u = [], [], []
        for k in self._kinds:
            if k is None:
                for _ in range(m):
                    comp.append(integers(good.n + 1))
                    u.append(random())
            else:
                cat_u.append(random(m))
        cols = (len(self._cont), m)
        x, choices = good.sample(np.reshape(comp, cols).astype(int), np.reshape(u, cols),
                                 np.reshape(cat_u, (-1, m)))
        dims = np.empty((2, self.space.dim, m))  # candidates and log ratios, by dimension
        dims[0, self._rows] = np.concatenate([x, choices / self._ks[:, None]])
        dims[1, self._rows] = good.logpdf(x, choices) - bad.logpdf(x, choices)
        return dims[0, :, int(np.argmax(dims[1].sum(axis=0)))]
