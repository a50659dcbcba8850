"""Gaussian-process optimizer with expected-improvement acquisition.

The GP uses a squared-exponential kernel with one lengthscale per feature,
where features are the space's one feature map,
:meth:`~idkit.space.DesignSpace.encode_units`: unit-box coordinates with
categorical slots expanded to one-hot blocks.  Targets are standardized
internally; the noise term is a fixed jitter on the standardized scale,
small enough that the posterior mean interpolates the data.  Lengthscales and amplitude are refit by
marginal-likelihood ascent on a thinning schedule as history grows.

Strictly serial: a second ask with proposals outstanding is a protocol
error.  Batch asks are served by fantasizing each proposal's outcome with
the posterior mean before picking the next.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import ndtr

from ..space import DesignPoint
from .base import OptimizerSession

__all__ = ["GaussianProcess", "BayesOpt"]

_SQRT2PI = math.sqrt(2.0 * math.pi)


class GaussianProcess:
    """Zero-mean GP on standardized targets, ARD squared-exponential kernel."""

    def __init__(self, n_features: int, noise: float = 1e-8):
        self.nf = n_features
        self.noise = float(noise)
        self.log_ls = np.full(n_features, math.log(0.5))
        self.log_amp = 0.0
        self.x = np.empty((0, n_features))
        self.t = np.empty(0)
        self.y_mean = 0.0
        self.y_std = 1.0
        self._chol = None
        self._alpha = None

    def set_data(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.y_mean = float(y.mean())
        self.y_std = float(max(y.std(), 1e-12))
        self.t = (y - self.y_mean) / self.y_std
        self._chol = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ls = np.exp(self.log_ls)
        d = (a[:, None, :] - b[None, :, :]) / ls
        return math.exp(2.0 * self.log_amp) * np.exp(-0.5 * np.sum(d * d, axis=2))

    def _nlml_and_grad(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        self.log_ls = params[: self.nf].copy()
        self.log_amp = float(params[self.nf])
        n = self.x.shape[0]
        k = self._kernel(self.x, self.x) + self.noise * np.eye(n)
        try:
            cf = cho_factor(k, lower=True)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(params.size)
        alpha = cho_solve(cf, self.t)
        nlml = (
            0.5 * float(self.t @ alpha)
            + float(np.sum(np.log(np.diag(cf[0]))))
            + 0.5 * n * math.log(2.0 * math.pi)
        )
        kinv = cho_solve(cf, np.eye(n))
        w = kinv - np.outer(alpha, alpha)
        kern = k - self.noise * np.eye(n)
        grad = np.empty(params.size)
        ls = np.exp(self.log_ls)
        for f in range(self.nf):
            df = (self.x[:, None, f] - self.x[None, :, f]) / ls[f]
            grad[f] = 0.5 * float(np.sum(w * (kern * df * df)))
        grad[self.nf] = 0.5 * float(np.sum(w * (2.0 * kern)))
        return nlml, grad

    def refit(self, maxiter: int = 30) -> None:
        x0 = np.concatenate([self.log_ls, [self.log_amp]])
        bounds = [(math.log(5e-3), math.log(30.0))] * self.nf + [
            (math.log(1e-3), math.log(1e3))
        ]
        res = optimize.minimize(
            self._nlml_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": maxiter},
        )
        self.log_ls = res.x[: self.nf].copy()
        self.log_amp = float(res.x[self.nf])
        self._chol = None

    def _factorize(self) -> None:
        n = self.x.shape[0]
        k = self._kernel(self.x, self.x)
        jitter = self.noise
        for _ in range(6):
            try:
                self._chol = np.linalg.cholesky(k + jitter * np.eye(n))
                break
            except np.linalg.LinAlgError:
                jitter *= 100.0
        else:
            raise RuntimeError("GP covariance not positive definite")
        self._alpha = solve_triangular(
            self._chol.T, solve_triangular(self._chol, self.t, lower=True), lower=False
        )

    def posterior(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Standardized posterior mean and variance at feature rows xs."""
        if self._chol is None:
            self._factorize()
        ks = self._kernel(self.x, np.atleast_2d(xs))
        mu = ks.T @ self._alpha
        v = solve_triangular(self._chol, ks, lower=True)
        var = math.exp(2.0 * self.log_amp) - np.sum(v * v, axis=0)
        return mu, np.maximum(var, 1e-18)

    def posterior_raw(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior on the original target scale."""
        mu, var = self.posterior(xs)
        return self.y_mean + self.y_std * mu, var * self.y_std**2


def _expected_improvement(mu: np.ndarray, var: np.ndarray, best: float, xi: float) -> np.ndarray:
    s = np.sqrt(var)
    imp = best - mu - xi
    z = imp / s
    pdf = np.exp(-0.5 * z * z) / _SQRT2PI
    return imp * ndtr(z) + s * pdf


class BayesOpt(OptimizerSession):
    kind = "bo"
    strict_serial = True

    @classmethod
    def defaults(cls) -> dict:
        return {
            "n_startup": 3,
            "noise": 1e-8,
            "n_raw": 256,
            "refine_iters": 25,
            "xi": 0.01,
            "refit_growth": 1.15,
            "refit_until": 25,
            "mlii_maxiter": 30,
        }

    def _setup(self) -> None:
        self.gp = GaussianProcess(self.space.onehot_length, float(self.config["noise"]))
        self._cont = self._continuous_dims()
        self._last_refit_n = 0

    # -- model upkeep ------------------------------------------------------------

    def _sync(self, extra: list[tuple[np.ndarray, float]] = ()) -> None:
        data = self.history + list(extra)
        us = np.array([u for u, _ in data])
        ys = np.array([l for _, l in data])
        finite = np.isfinite(ys)
        us, ys = us[finite], ys[finite]
        self.gp.set_data(self.space.encode_units(us), ys)
        n = us.shape[0]
        if n <= int(self.config["refit_until"]) or n >= math.ceil(
            self._last_refit_n * float(self.config["refit_growth"])
        ):
            self.gp.refit(int(self.config["mlii_maxiter"]))
            self._last_refit_n = n

    # -- acquisition -------------------------------------------------------------

    def _maximize_ei(self) -> np.ndarray:
        best = float(np.min(self.gp.t))
        xi = float(self.config["xi"])
        d = self.space.dim
        raw = self.rng.random((int(self.config["n_raw"]), d))
        mu, var = self.gp.posterior(self.space.encode_units(raw))
        ei = _expected_improvement(mu, var, best, xi)
        u0 = raw[int(np.argmax(ei))]
        cont = self._cont
        if not np.any(cont):
            return u0

        def neg_ei(z: np.ndarray) -> float:
            u = u0.copy()
            u[cont] = z
            m, v = self.gp.posterior(self.space.encode_units(u))
            return -float(_expected_improvement(m, v, best, xi)[0])

        res = optimize.minimize(
            neg_ei,
            u0[cont],
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * int(cont.sum()),
            options={"maxiter": int(self.config["refine_iters"])},
        )
        if -res.fun > float(np.max(ei)):
            u = u0.copy()
            u[cont] = res.x
            return u
        return u0

    def _propose_batch(self, n: int) -> list[DesignPoint]:
        out = []
        fantasy: list[tuple[np.ndarray, float]] = []
        # the GP fits finite losses only, so failed points do not end the startup
        n_finite = sum(math.isfinite(loss) for _, loss in self.history)
        for _ in range(n):
            if n_finite < int(self.config["n_startup"]):
                out.append(self.space.sample_uniform(self.rng))
                continue
            self._sync(extra=fantasy)
            u = self._maximize_ei()
            out.append(self.space.denormalize(u))
            mu, _ = self.gp.posterior_raw(self.space.encode_units(u))
            fantasy.append((u, float(mu[0])))
        return out
