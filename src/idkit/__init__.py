"""idkit: an inverse-design benchmark toolkit for nanophotonics.

Modules:

* :mod:`idkit.space` mixed design spaces, points, encodings, the loss
* :mod:`idkit.problems` the three built-in problems (motf, tpv, scf)
* :mod:`idkit.tmm` transfer-matrix thin-film solver and material tables
* :mod:`idkit.shapes` B-spline supercell geometry and rasters
* :mod:`idkit.optimizers` five ask/tell black-box optimizers
* :mod:`idkit.surrogate` dense-network surrogates and inverse-design methods
* :mod:`idkit.engine` parallel simulator evaluation and adapters
* :mod:`idkit.harness` datasets, targets, budgeted runs, reports
* :mod:`idkit.cli` the `idkit` command
"""

import os

# BO's numerics depend on the BLAS thread count, and a thread pool only slows
# idkit's small matrices; effective only before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .space import (
    Categorical,
    ConditionalContinuous,
    Continuous,
    DesignPoint,
    DesignSpace,
    ParamSpec,
    SpaceError,
    mse_loss,
)
from .problems import get_space, motf_space, scf_space, tpv_space
from .records import EvalRecord, dump_records, load_records

__version__ = "0.1.0"

__all__ = [
    "Categorical",
    "ConditionalContinuous",
    "Continuous",
    "DesignPoint",
    "DesignSpace",
    "ParamSpec",
    "SpaceError",
    "mse_loss",
    "get_space",
    "motf_space",
    "tpv_space",
    "scf_space",
    "EvalRecord",
    "dump_records",
    "load_records",
    "__version__",
]
