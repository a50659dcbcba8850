"""Five ask/tell black-box optimizers over mixed design spaces.

All sessions share the protocol in :mod:`idkit.optimizers.base`: construct
with (space, config, seed), call ``ask`` for proposals and ``tell`` with
evaluated records.  ``warm_start`` seeds a session with the best records of
an existing dataset without consuming budget.
"""

from __future__ import annotations

from ..space import DesignSpace
from .base import OptimizerSession, ProtocolError, warm_start
from .bo import BayesOpt, GaussianProcess
from .simple import OnePlusOneES, RandomSearch
from .sracos import Sracos
from .tpe import TreeParzen

__all__ = [
    "OPTIMIZER_KINDS",
    "make_optimizer",
    "check_config",
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

_REGISTRY: dict[str, type[OptimizerSession]] = {
    "rs": RandomSearch,
    "es": OnePlusOneES,
    "tpe": TreeParzen,
    "bo": BayesOpt,
    "sracos": Sracos,
}

OPTIMIZER_KINDS = tuple(sorted(_REGISTRY))


def _session_class(kind: str) -> type[OptimizerSession]:
    try:
        return _REGISTRY[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer kind {kind!r}; expected one of {OPTIMIZER_KINDS}"
        ) from None


def make_optimizer(
    kind: str, space: DesignSpace, config: dict | None = None, seed: int = 0
) -> OptimizerSession:
    """Build a fresh session of the given kind ('rs', 'es', 'tpe', 'bo', 'sracos')."""
    return _session_class(kind)(space, config, seed)


def check_config(kind: str, config: dict | None) -> None:
    """Raise the ValueError that ``make_optimizer(kind, space, config)`` would
    raise for an unknown kind or config key, without building a session."""
    _session_class(kind).resolve_config(config)
