"""Mixed continuous/categorical design spaces, points, encodings and the loss.

A :class:`DesignSpace` is an ordered list of parameter specs.  Three kinds are
supported: plain continuous intervals, categorical choices, and conditional
continuous intervals whose upper bound is a fixed multiple of another
(continuous) parameter's value.  All optimizers in this toolkit work on the
normalized unit box produced by :meth:`DesignSpace.normalize`; the conditional
upper bounds are resolved per point by an affine remap, so the box itself
never changes shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "SpaceError",
    "Continuous",
    "Categorical",
    "ConditionalContinuous",
    "ParamSpec",
    "DesignPoint",
    "ValidationResult",
    "DesignSpace",
    "mse_loss",
]


class SpaceError(ValueError):
    """Structural error: malformed space, wrong-length point or unit vector."""


@dataclass(frozen=True)
class Continuous:
    """Closed interval [lo, hi] of reals."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise SpaceError(f"continuous bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise SpaceError(f"continuous interval requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Categorical:
    """Unordered choice among ≥ 2 distinct labels (declared order is canonical)."""

    choices: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(self.choices))
        if len(self.choices) < 2:
            raise SpaceError("categorical needs at least 2 choices")
        if len(set(self.choices)) != len(self.choices):
            raise SpaceError(f"categorical choices must be distinct: {self.choices}")


@dataclass(frozen=True)
class ConditionalContinuous:
    """Interval [lo, hi_scale * value(hi_ref)] whose top depends on another parameter.

    ``hi_ref`` must name a plain Continuous parameter declared earlier in the
    space, and ``lo < hi_scale * hi_ref.lo`` so the interval is never empty.
    """

    lo: float
    hi_ref: str
    hi_scale: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo) or not math.isfinite(self.hi_scale):
            raise SpaceError("conditional bounds must be finite")
        if self.hi_scale <= 0:
            raise SpaceError(f"hi_scale must be positive, got {self.hi_scale}")


ParamKind = Union[Continuous, Categorical, ConditionalContinuous]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: ParamKind

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SpaceError(f"parameter name must be an identifier, got {self.name!r}")


@dataclass(frozen=True)
class DesignPoint:
    """One concrete assignment of every parameter, in canonical order."""

    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator:
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class DesignSpace:
    """Ordered, named parameter space with a fixed response dimension.

    The parameter ordering is canonical: index ``i`` in every point, unit
    vector, and serialization always refers to the same parameter.
    """

    def __init__(self, name: str, params: Sequence[ParamSpec], response_dim: int):
        params = tuple(params)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate parameter names in space {name!r}")
        if response_dim < 1:
            raise SpaceError(f"response_dim must be positive, got {response_dim}")
        index = {n: i for i, n in enumerate(names)}
        for i, p in enumerate(params):
            k = p.kind
            if isinstance(k, ConditionalContinuous):
                j = index.get(k.hi_ref)
                if j is None or j >= i:
                    raise SpaceError(
                        f"{p.name}: hi_ref {k.hi_ref!r} must name an earlier parameter"
                    )
                ref = params[j].kind
                if not isinstance(ref, Continuous):
                    raise SpaceError(f"{p.name}: hi_ref {k.hi_ref!r} is not Continuous")
                if not k.lo < k.hi_scale * ref.lo:
                    raise SpaceError(
                        f"{p.name}: interval can be empty "
                        f"(lo={k.lo} >= hi_scale*{k.hi_ref}.lo={k.hi_scale * ref.lo})"
                    )
        self.name = name
        self.params = params
        self.response_dim = int(response_dim)
        self._index = index
        # one-hot layout: categorical blocks in parameter order, then continuous slots
        cat = [i for i, p in enumerate(params) if isinstance(p.kind, Categorical)]
        cont = [i for i, p in enumerate(params) if not isinstance(p.kind, Categorical)]
        ks = [len(params[i].kind.choices) for i in cat]
        offs = np.cumsum([0] + ks)
        self._cat_cols = np.array(cat, dtype=int)
        self._cat_ks = np.array(ks, dtype=int)
        self._cat_offs = offs[:-1]
        self._cont_cols = np.array(cont, dtype=int)
        self._cont_offs = offs[-1] + np.arange(len(cont))

    # -- basic shape ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.params)

    @property
    def onehot_length(self) -> int:
        return int(self._cat_ks.sum()) + len(self._cont_cols)

    def unit_kinds(self) -> list:
        """Per-dimension unit-box metadata: None for continuous, k for a k-way categorical."""
        return [
            len(p.kind.choices) if isinstance(p.kind, Categorical) else None
            for p in self.params
        ]

    def _interval(self, i: int, values: Sequence) -> tuple[float, float]:
        """Effective [lo, hi] of continuous parameter i, given the point's own values."""
        k = self.params[i].kind
        if isinstance(k, Continuous):
            return k.lo, k.hi
        ref_val = float(values[self._index[k.hi_ref]])
        return k.lo, k.hi_scale * ref_val

    # -- membership ----------------------------------------------------------

    def point(self, values: Sequence) -> DesignPoint:
        """Build a DesignPoint, raising on length mismatch or bound violation."""
        pt = DesignPoint(tuple(values))
        res = self.validate(pt)
        if not res:
            raise SpaceError(f"invalid point for {self.name}: {'; '.join(res.violations)}")
        return pt

    def validate(self, point: DesignPoint) -> ValidationResult:
        """Membership test; a wrong-length point is a structural error, not a violation."""
        if len(point) != self.dim:
            raise SpaceError(
                f"point has {len(point)} values, space {self.name!r} has {self.dim} parameters"
            )
        bad: list[str] = []
        vals = point.values
        for i, p in enumerate(self.params):
            k = p.kind
            v = vals[i]
            if isinstance(k, Categorical):
                if v not in k.choices:
                    bad.append(f"{p.name}: {v!r} not in choices")
                continue
            try:
                x = float(v)
            except (TypeError, ValueError):
                bad.append(f"{p.name}: {v!r} is not a real number")
                continue
            lo, hi = self._interval(i, vals)
            if not (math.isfinite(x) and lo <= x <= hi):
                bad.append(f"{p.name}: {x} outside [{lo}, {hi}]")
        return ValidationResult(not bad, tuple(bad))

    # -- sampling ------------------------------------------------------------

    def sample_uniform(self, rng: np.random.Generator) -> DesignPoint:
        """Draw one point: continuous ~ U(lo,hi), categorical uniform over choices,
        conditional uniform in [lo, hi_scale*x_ref] after x_ref is drawn.

        Draws consume the generator in parameter order, so the result is a pure
        function of the generator state.
        """
        vals: list = []
        for i, p in enumerate(self.params):
            k = p.kind
            if isinstance(k, Categorical):
                vals.append(k.choices[int(rng.integers(len(k.choices)))])
            else:
                lo, hi = self._interval(i, vals)
                vals.append(float(rng.uniform(lo, hi)))
        return DesignPoint(tuple(vals))

    # -- unit-box codec ------------------------------------------------------

    def normalize(self, point: DesignPoint) -> np.ndarray:
        """Map a valid point into [0,1]^d; categorical slots hold index/k."""
        if len(point) != self.dim:
            raise SpaceError("point length mismatch")
        u = np.empty(self.dim)
        vals = point.values
        for i, p in enumerate(self.params):
            k = p.kind
            if isinstance(k, Categorical):
                u[i] = k.choices.index(vals[i]) / len(k.choices)
            else:
                lo, hi = self._interval(i, vals)
                u[i] = (float(vals[i]) - lo) / (hi - lo)
        return u

    def choice_indices(self, units) -> np.ndarray:
        """Choice index of every categorical slot: rows (..., dim) -> (..., n_categorical).

        Choice i of a k-way categorical is stored as i/k and owns the bin
        [i/k, (i+1)/k).  Truncating u*k can land one bin low (for k = 22,
        int(15/22 * 22) is 14), so the index is raised when u reaches the next
        edge as that edge is stored; i/k therefore always decodes to i.
        """
        u = np.asarray(units, dtype=float)[..., self._cat_cols]
        k = self._cat_ks
        i = np.minimum((u * k).astype(int), k - 1)
        return i + ((i + 1 < k) & (u >= (i + 1) / k))

    def denormalize(self, u: Sequence[float]) -> DesignPoint:
        """Inverse of :meth:`normalize`; out-of-range coordinates are clamped.

        Conditional parameters resolve their upper bound against
        already-decoded earlier coordinates, so the output always validates.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise SpaceError(f"unit vector must have shape ({self.dim},), got {u.shape}")
        u = np.clip(u, 0.0, 1.0)
        idx = iter(self.choice_indices(u).tolist())
        vals: list = []
        for i, p in enumerate(self.params):
            k = p.kind
            if isinstance(k, Categorical):
                vals.append(k.choices[next(idx)])
            else:
                lo, hi = self._interval(i, vals)
                vals.append(lo + float(u[i]) * (hi - lo))
        return DesignPoint(tuple(vals))

    # -- one-hot feature codec -------------------------------------------------

    def encode_units(self, units) -> np.ndarray:
        """One-hot feature rows (n, onehot_length) of unit-box rows (n, dim).

        The toolkit's one feature map (BO kernel inputs, surrogate inputs): a
        block per categorical in parameter order with a 1 at the chosen index,
        then the continuous unit coordinates; see :meth:`onehot_layout`.
        """
        u = np.atleast_2d(np.asarray(units, dtype=float))
        if u.ndim != 2 or u.shape[1] != self.dim:
            raise SpaceError(f"unit rows must have shape (n, {self.dim}), got {u.shape}")
        out = np.zeros((u.shape[0], self.onehot_length))
        out[np.arange(u.shape[0])[:, None], self._cat_offs + self.choice_indices(u)] = 1.0
        out[:, self._cont_offs] = u[:, self._cont_cols]
        return out

    def encode_onehot(self, point: DesignPoint) -> np.ndarray:
        """Feature vector of one point: :meth:`encode_units` of its unit vector."""
        return self.encode_units(self.normalize(point))[0]

    def onehot_layout(self) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
        """Slot layout of :meth:`encode_units`.

        Returns (blocks, cont) where blocks is a list of
        (param_index, offset, n_choices) and cont a list of (param_index, offset).
        """
        blocks = list(zip(self._cat_cols.tolist(), self._cat_offs.tolist(), self._cat_ks.tolist()))
        cont = list(zip(self._cont_cols.tolist(), self._cont_offs.tolist()))
        return blocks, cont

    def decode_onehot(self, vec: Sequence[float]) -> DesignPoint:
        """Inverse of :meth:`encode_onehot`: argmax per block, clamp continuous slots."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.onehot_length,):
            raise SpaceError(
                f"feature vector must have shape ({self.onehot_length},), got {vec.shape}"
            )
        blocks, cont = self.onehot_layout()
        u = np.zeros(self.dim)
        for i, off, n in blocks:
            u[i] = int(np.argmax(vec[off : off + n])) / n
        for i, off in cont:
            u[i] = vec[off]
        return self.denormalize(u)


def mse_loss(y, y_target) -> float:
    """Sum of squared differences between two equal-length response vectors.

    This is the un-normalized sum (not the mean); any averaging belongs in
    reporting, never in the score.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(y_target, dtype=float)
    if y.shape != t.shape or y.ndim != 1:
        raise SpaceError(f"response shapes differ: {y.shape} vs {t.shape}")
    d = t - y
    return float(np.dot(d, d))
