"""Five ask/tell black-box optimizers over mixed design spaces.

All sessions share the protocol in :mod:`idkit.optimizers.base`: construct
with (space, seed), call ``ask`` for proposals and ``tell`` with evaluated
records.  Each kind runs at one fixed setting, listed as private constants
at the top of its module; there is nothing to configure.  ``warm_start``
seeds a session with the best records of an existing dataset without
consuming budget.

A kind's module is imported when the kind is first used, and scipy with it:
importing the package loads no scipy, a TPE session loads ``scipy.special``
and a BO session ``scipy.optimize`` and ``scipy.linalg``.
"""

from __future__ import annotations

import importlib

from ..space import DesignSpace
from .base import OptimizerSession, ProtocolError, warm_start

__all__ = [
    "OPTIMIZER_KINDS",
    "make_optimizer",
    "warm_start",
    "OptimizerSession",
    "ProtocolError",
    "RandomSearch",
    "OnePlusOneES",
    "TreeParzen",
    "BayesOpt",
    "Sracos",
    "GaussianProcess",
]

# kind -> (module, session class)
_REGISTRY: dict[str, tuple[str, str]] = {
    "rs": ("simple", "RandomSearch"),
    "es": ("simple", "OnePlusOneES"),
    "tpe": ("tpe", "TreeParzen"),
    "bo": ("bo", "BayesOpt"),
    "sracos": ("sracos", "Sracos"),
}
# every class exported here -> its module
_MODULES = {cls: module for module, cls in _REGISTRY.values()} | {"GaussianProcess": "bo"}

OPTIMIZER_KINDS = tuple(sorted(_REGISTRY))


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULES[name]}"), name)


def make_optimizer(kind: str, space: DesignSpace, seed: int = 0) -> OptimizerSession:
    """Build a fresh session of the given kind ('rs', 'es', 'tpe', 'bo', 'sracos')."""
    try:
        _, cls = _REGISTRY[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer kind {kind!r}; expected one of {OPTIMIZER_KINDS}"
        ) from None
    return __getattr__(cls)(space, seed)
