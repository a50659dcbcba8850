"""Dense-network surrogates and the three surrogate-based design methods.

Everything here is plain numpy: a small fully connected network with
rectified hidden layers and identity output, a minibatch SGD+momentum
trainer that keeps the best-validation weights, exact reverse-mode
gradients, and on top of those three inverse-design strategies:

* ``train_inverse``   direct regression response -> encoded design;
* ``train_tandem``    an inverse network trained through a frozen forward
                      surrogate with the cycle objective f(g(y)) ~ y;
* ``gd_inverse``      multi-start projected gradient descent on the forward
                      surrogate, with categorical one-hot blocks relaxed to
                      the probability simplex and snapped to argmax at the end.

The reverse mode is two passes, each forming only the products its callers
read: ``DenseNet._backprop`` gives the weight and bias gradients (training),
``DenseNet._input_grad`` the input gradient (``grad_input``, and the frozen
forward net of the tandem loop).

Designs enter the networks as :meth:`~idkit.space.DesignSpace.encode_units`
features, the one feature map the toolkit has (Bayesian optimization's GP
uses it too).

Checkpoints use a little binary layout (magic, widths, row-major float64
weight blocks, little endian) plus a JSON metadata sidecar.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .records import EvalRecord
from .space import DesignPoint, DesignSpace, mse_loss

__all__ = [
    "TrainingDiverged",
    "TrainConfig",
    "DenseNet",
    "encode_dataset",
    "train_forward",
    "train_inverse",
    "train_tandem",
    "grad_input",
    "gd_inverse",
    "save_model",
    "load_model",
    "save_training_log",
]

CHECKPOINT_MAGIC = b"IDKITNN1"

# fixed training settings: minibatch size, and the share of a dataset held
# out for validation; the learning rate always follows a cosine decay
_BATCH_SIZE = 64
_VAL_FRACTION = 0.1


class TrainingDiverged(RuntimeError):
    """Training loss became non-finite; carries the epoch it happened in."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    lr: float = 0.2
    momentum: float = 0.9
    clip_norm: float = 50.0
    # the per-entry mean loss divides the output head's gradient by the
    # response width; for wide responses (hundreds of entries and up) raise
    # this toward the width or the head trains far slower than the hidden
    # stack and the model can stall at the mean predictor
    head_lr_scale: float = 1.0
    seed: int = 0
    hidden: tuple[int, ...] = (256, 256, 256)

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.lr <= 0:
            raise ValueError("epochs, lr must be positive")


class DenseNet:
    """Fully connected net: rectified hidden layers, identity output."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("weight/bias shape mismatch")

    @classmethod
    def init(cls, widths: Sequence[int], seed: int = 0) -> "DenseNet":
        # He weights; biases drawn small but nonzero so the rectifier kinks
        # start scattered (an all-zero bias net is positively homogeneous in
        # its input and can stall in a mean-predicting state)
        rng = np.random.default_rng(seed)
        ws, bs = [], []
        for din, dout in zip(widths[:-1], widths[1:]):
            ws.append(rng.standard_normal((din, dout)) * np.sqrt(2.0 / din))
            bs.append(rng.uniform(-1.0, 1.0, dout) / np.sqrt(din))
        return cls(ws, bs)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def copy(self) -> "DenseNet":
        return DenseNet([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_cache(x)[0]

    def _forward_cache(self, x: np.ndarray) -> tuple[np.ndarray, list, list]:
        a = np.atleast_2d(np.asarray(x, dtype=float))
        acts = [a]
        zs = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            zs.append(z)
            acts.append(np.maximum(z, 0.0) if i != last else z)
        return acts[-1], acts, zs

    def _backprop(self, acts: list, zs: list, delta: np.ndarray) -> tuple[list, list]:
        """Weight and bias gradients of a loss whose output gradient is `delta`."""
        gw = [np.empty(0)] * len(self.weights)
        gb = [np.empty(0)] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            gw[i] = acts[i].T @ delta
            gb[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (zs[i - 1] > 0.0)
        return gw, gb

    def _input_grad(self, zs: list, delta: np.ndarray) -> np.ndarray:
        """Input gradient of a loss whose output gradient is `delta`."""
        for i in range(len(self.weights) - 1, -1, -1):
            delta = delta @ self.weights[i].T
            if i > 0:
                delta = delta * (zs[i - 1] > 0.0)
        return delta


def grad_input(model: DenseNet, x: np.ndarray, y_target: np.ndarray) -> np.ndarray:
    """Exact gradient of sum((model(x) - y_target)^2) with respect to x."""
    x = np.asarray(x, dtype=float)
    pred, _, zs = model._forward_cache(x.reshape(1, -1))
    delta = 2.0 * (pred - np.asarray(y_target, dtype=float).reshape(1, -1))
    return model._input_grad(zs, delta).reshape(x.shape)


def encode_dataset(
    space: DesignSpace, records: Sequence[EvalRecord]
) -> tuple[np.ndarray, np.ndarray]:
    """(encoded designs, responses) matrices from evaluation records; the
    designs go through :meth:`~idkit.space.DesignSpace.encode_units` in one call."""
    u = np.array([space.normalize(r.point) for r in records]).reshape(-1, space.dim)
    x = space.encode_units(u)
    y = np.array([r.response for r in records], dtype=float)
    return x, y


def _split_train_val(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    order = rng.permutation(n)
    n_val = max(1, int(round(n * _VAL_FRACTION)))
    return order[n_val:], order[:n_val]


def _fold_scalers(
    model: DenseNet,
    mu_x: np.ndarray,
    sd_x: np.ndarray,
    mu_y: np.ndarray | None = None,
    sd_y: np.ndarray | None = None,
) -> None:
    """Absorb affine input/output standardization into the edge layers so the
    net maps raw coordinates even though it was trained on standardized ones.
    Without output scalers only the input side is folded."""
    model.biases[0] = model.biases[0] - (mu_x / sd_x) @ model.weights[0]
    model.weights[0] = model.weights[0] / sd_x[:, None]
    if sd_y is not None:
        model.weights[-1] = model.weights[-1] * sd_y[None, :]
        model.biases[-1] = model.biases[-1] * sd_y + mu_y


def _sgd_loop(
    model: DenseNet,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    forward_frozen: DenseNet | None = None,
) -> tuple[DenseNet, list[tuple[int, float, float]]]:
    """Shared trainer.  With `forward_frozen`, the trained net's output is fed
    through the frozen net and the loss compares that composite to y (the
    cycle objective); otherwise the loss compares model(x) to y directly.
    The loss is the squared error averaged over batch and output dimensions,
    so one learning rate works whether the response has 3 entries or 2001.

    Training happens in standardized coordinates (per-feature zero mean, unit
    variance, statistics from the train split); the scalers are folded into
    the first and last layers afterwards, so the returned net maps raw
    encodings to raw responses.  Logged losses are raw-scale.  In the cycle
    setting only the input side is standardized: the net's output feeds the
    frozen surrogate, which expects raw encodings.

    In the cycle setting the inner prediction is clipped to [0, 1] before
    entering the frozen net, with a quadratic pull-back outside the box.
    Encoded designs live in the unit box and the frozen surrogate knows
    nothing beyond it; without the clip the inverse net drifts into the
    extrapolation region and scores a tiny cycle loss that means nothing.

    Returns the best-validation weights and the (epoch, train, val) log."""
    rng = np.random.default_rng(cfg.seed)
    tr, va = _split_train_val(x.shape[0], rng)
    xt, yt, xv, yv = x[tr], y[tr], x[va], y[va]

    mu_x = xt.mean(axis=0)
    sd_x = np.maximum(xt.std(axis=0), 1e-8)
    if forward_frozen is None:
        mu_y = yt.mean(axis=0)
        sd_y = np.maximum(yt.std(axis=0), 1e-8)
    else:
        mu_y = np.zeros(y.shape[1])
        sd_y = np.ones(y.shape[1])
    xt, xv = (xt - mu_x) / sd_x, (xv - mu_x) / sd_x
    yt_s, yv_s = (yt - mu_y) / sd_y, (yv - mu_y) / sd_y

    def composite(inp: np.ndarray) -> np.ndarray:
        out = model.forward(inp)
        if forward_frozen is not None:
            out = forward_frozen.forward(np.clip(out, 0.0, 1.0))
        return out

    def eval_loss(xe: np.ndarray, ye_raw: np.ndarray) -> float:
        d = (composite(xe) - (ye_raw - mu_y) / sd_y) * sd_y
        return float(np.mean(d * d))

    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    best_val = np.inf
    best = model.copy()
    log: list[tuple[int, float, float]] = []
    n = xt.shape[0]
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (0.5 * (1.0 + np.cos(np.pi * epoch / cfg.epochs)))
        order = rng.permutation(n)
        running = 0.0
        for lo in range(0, n, _BATCH_SIZE):
            idx = order[lo : lo + _BATCH_SIZE]
            xb, yb = xt[idx], yt_s[idx]
            pred, acts, zs = model._forward_cache(xb)
            if forward_frozen is not None:
                boxed = np.clip(pred, 0.0, 1.0)
                f_out, _, f_zs = forward_frozen._forward_cache(boxed)
                diff = f_out - yb
                delta = 2.0 * diff / diff.size
                delta = forward_frozen._input_grad(f_zs, delta)
                # pull-back is deliberately stiff, otherwise the net can park
                # just outside the box where the cycle gradient is masked off
                delta = delta * (pred == boxed) + 20.0 * (pred - boxed) / pred.size
            else:
                diff = pred - yb
                delta = 2.0 * diff / diff.size
            running += float(np.mean((diff * sd_y) ** 2)) * xb.shape[0]
            gw, gb = model._backprop(acts, zs, delta)
            if cfg.head_lr_scale != 1.0:
                gw[-1] = gw[-1] * cfg.head_lr_scale
                gb[-1] = gb[-1] * cfg.head_lr_scale
            if cfg.clip_norm > 0:
                sq = sum(float(np.sum(g * g)) for g in gw)
                sq += sum(float(np.sum(g * g)) for g in gb)
                norm = np.sqrt(sq)
                if norm > cfg.clip_norm:
                    scale = cfg.clip_norm / norm
                    gw = [g * scale for g in gw]
                    gb = [g * scale for g in gb]
            for i in range(len(model.weights)):
                vel_w[i] = cfg.momentum * vel_w[i] - lr * gw[i]
                vel_b[i] = cfg.momentum * vel_b[i] - lr * gb[i]
                model.weights[i] += vel_w[i]
                model.biases[i] += vel_b[i]
        train_loss = running / n
        if not np.isfinite(train_loss):
            raise TrainingDiverged(
                f"training loss became non-finite at epoch {epoch} "
                f"(lr={cfg.lr}, batch_size={_BATCH_SIZE}); lower the learning rate"
            )
        val_loss = eval_loss(xv, yv)
        log.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = model.copy()
    if forward_frozen is None:
        _fold_scalers(best, mu_x, sd_x, mu_y, sd_y)
    else:
        # mu_y and sd_y are the identity here, sized to the response, not to
        # the net's design-wide output
        _fold_scalers(best, mu_x, sd_x)
    return best, log


def _regress(
    inputs: np.ndarray, outputs: np.ndarray, cfg: TrainConfig
) -> tuple[DenseNet, list[tuple[int, float, float]]]:
    """Fit inputs -> outputs by plain regression on a fresh net."""
    inputs = np.asarray(inputs, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if inputs.shape[0] != outputs.shape[0] or inputs.shape[0] < 100:
        raise ValueError("need matched x/y with at least 100 rows")
    widths = (inputs.shape[1],) + cfg.hidden + (outputs.shape[1],)
    model = DenseNet.init(widths, cfg.seed)
    return _sgd_loop(model, inputs, outputs, cfg)


def train_forward(
    x_enc: np.ndarray, y: np.ndarray, cfg: TrainConfig = TrainConfig()
) -> tuple[DenseNet, list[tuple[int, float, float]]]:
    """Fit design -> response; returns (best-validation model, training log)."""
    return _regress(x_enc, y, cfg)


def train_inverse(
    x_enc: np.ndarray, y: np.ndarray, cfg: TrainConfig = TrainConfig()
) -> tuple[DenseNet, list[tuple[int, float, float]]]:
    """Fit response -> design by plain regression (the direct inverse model)."""
    return _regress(y, x_enc, cfg)


def train_tandem(
    forward: DenseNet, y: np.ndarray, cfg: TrainConfig = TrainConfig()
) -> tuple[DenseNet, list[tuple[int, float, float]]]:
    """Fit an inverse net g so that forward(g(y)) ~ y, forward held fixed.

    Only response vectors are needed; the cycle loss never looks at the true
    designs.  The returned log holds the cycle loss on train/validation
    targets per epoch.
    """
    y = np.asarray(y, dtype=float)
    d_design = forward.widths[0]
    widths = (y.shape[1],) + cfg.hidden + (d_design,)
    model = DenseNet.init(widths, cfg.seed)
    return _sgd_loop(model, y, y, cfg, forward_frozen=forward)


# -- gradient-descent design on the surrogate ---------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex."""
    u = np.sort(v)[::-1]
    cs = np.cumsum(u) - 1.0
    rho = np.nonzero(u - cs / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = cs[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def gd_inverse(
    model: DenseNet,
    space: DesignSpace,
    y_target: np.ndarray,
    n_starts: int = 8,
    n_steps: int = 200,
    lr: float = 0.02,
    seed: int = 0,
) -> list[tuple[DesignPoint, float]]:
    """Multi-start projected gradient descent on the forward surrogate.

    Continuous encoded coordinates are clipped to [0, 1] after each step;
    categorical one-hot blocks stay on the probability simplex during the
    descent and snap to their argmax choice at the end.  Candidates are
    ranked by surrogate loss of the snapped point; every start contributes
    its best iterate, so the returned best is never worse than any start.
    """
    y_target = np.asarray(y_target, dtype=float)
    rng = np.random.default_rng(seed)
    blocks, cont = space.onehot_layout()

    def snap_loss(z: np.ndarray) -> tuple[DesignPoint, float]:
        pt = space.decode_onehot(z)
        pred = model.forward(space.encode_onehot(pt).reshape(1, -1))[0]
        return pt, mse_loss(pred, y_target)

    out: list[tuple[DesignPoint, float]] = []
    for _ in range(n_starts):
        start_pt = space.sample_uniform(rng)
        z = space.encode_onehot(start_pt)
        pred = model.forward(z.reshape(1, -1))[0]
        best_pt, best_loss = start_pt, mse_loss(pred, y_target)
        for _ in range(n_steps):
            g = grad_input(model, z, y_target)
            z = z - lr * g
            for _, off, k in blocks:
                z[off : off + k] = _project_simplex(z[off : off + k])
            for _, off in cont:
                z[off] = min(max(z[off], 0.0), 1.0)
            pt, loss = snap_loss(z)
            if loss < best_loss:
                best_pt, best_loss = pt, loss
        out.append((best_pt, best_loss))
    out.sort(key=lambda c: c[1])
    return out


# -- checkpoints and logs ------------------------------------------------------


def save_model(model: DenseNet, path: str, meta: dict | None = None) -> None:
    """Binary checkpoint at `path` plus JSON metadata at `path`.json."""
    widths = model.widths
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(widths)))
        fh.write(struct.pack(f"<{len(widths)}I", *widths))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    payload = {"widths": list(widths), "activation": "relu", "format": 1}
    payload.update(meta or {})
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str) -> tuple[DenseNet, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic {magic!r})")
    # header: layer count n, then n widths; a header cut short declares only its own size
    head = len(CHECKPOINT_MAGIC) + 4
    (n,) = struct.unpack_from("<I", raw, head - 4) if len(raw) >= head else (0,)
    head += 4 * n
    widths = struct.unpack_from(f"<{n}I", raw, head - 4 * n) if len(raw) >= head else ()
    layers = list(zip(widths[:-1], widths[1:]))
    size = head + 8 * sum((din + 1) * dout for din, dout in layers)
    if len(raw) != size:
        fault = "truncated" if len(raw) < size else "has trailing bytes"
        raise ValueError(f"{path}: checkpoint {fault}: expected {size} bytes, got {len(raw)}")
    body = np.frombuffer(raw, "<f8", offset=head)
    ws, bs = [], []
    for din, dout in layers:
        ws.append(body[: din * dout].reshape(din, dout).copy())
        bs.append(body[din * dout : (din + 1) * dout].copy())
        body = body[(din + 1) * dout :]
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    return DenseNet(ws, bs), meta


def save_training_log(log: Sequence[tuple[int, float, float]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, tr, va in log:
            fh.write(f"{epoch},{tr:.10g},{va:.10g}\n")
