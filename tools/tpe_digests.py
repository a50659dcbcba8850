#!/usr/bin/env python3
"""Digests that pin the exact bytes a TPE session proposes.

Two tables, meant to be compared between two checkouts of idkit:

* ``sessions``: the sha256 of every proposal from a few cheap TPE sessions
  driven by a synthetic loss (no simulator).  The loss ties on purpose and
  fails (``inf``) on part of the box, so the good/bad split sees both.
  ``tests/test_tpe_digests.py`` holds these values, with the numpy and
  scipy versions they were made with.
* ``grid`` (skipped with ``--sessions``): ``report_hash[:12]`` and the
  records file's ``sha256[:12]`` of eight full ``run_experiment`` runs
  with an iid target, as ``idkit run`` makes them.  It takes about 15 s on
  one core.

Run from the root of a checkout:

    python3 tools/tpe_digests.py [--sessions]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from idkit import harness  # noqa: E402
from idkit.optimizers import make_optimizer, warm_start  # noqa: E402
from idkit.problems import get_space  # noqa: E402
from idkit.records import EvalRecord  # noqa: E402

# name: (problem, budget, ask_batch, warm-start records, top_k)
SESSIONS = {
    "scf": ("scf", 60, 1, 0, 0),
    "motf-60": ("motf", 60, 1, 0, 0),
    "tpv-batch3": ("tpv", 60, 3, 0, 0),
    "motf-warm": ("motf", 40, 1, 30, 12),
}

# (problem, budget, ask_batch, seed)
GRID = [("motf", 400, 1, seed) for seed in range(1000, 1005)] + [
    ("motf", 120, 7, 5),
    ("scf", 150, 1, 3),
    ("tpv", 150, 3, 4),
]


def synthetic_loss(u: np.ndarray) -> float:
    """Rounded squared distance to 0.3, so losses tie; inf past u[-1] = 0.85."""
    if u[-1] > 0.85:
        return float("inf")
    return round(float(np.sum((u - 0.3) ** 2)), 1)


def session_digest(name: str, seed: int = 0) -> str:
    """sha256 over the JSON of every point the named session proposes."""
    problem, budget, batch, n_warm, top_k = SESSIONS[name]
    space = get_space(problem)
    session = make_optimizer("tpe", space, seed=seed)
    if n_warm:
        rng = np.random.default_rng(seed + 1)
        dataset = []
        for trial in range(n_warm):
            pt = space.sample_uniform(rng)
            dataset.append(EvalRecord(pt, (), synthetic_loss(space.normalize(pt)), trial))
        warm_start(session, dataset, top_k)
    h = hashlib.sha256()
    trial = 0
    while trial < budget:
        points = session.ask(min(batch, budget - trial))
        records = []
        for pt in points:
            h.update(json.dumps(list(pt.values)).encode())
            records.append(EvalRecord(pt, (), synthetic_loss(space.normalize(pt)), trial))
            trial += 1
        session.tell(records)
    return h.hexdigest()


def grid_digest(problem: str, budget: int, batch: int, seed: int) -> str:
    """``report_hash[:12]/records sha256[:12]`` of one tpe run."""
    with tempfile.TemporaryDirectory() as out:
        spec = harness.ExperimentSpec(
            problem=problem,
            algo="tpe",
            budget=budget,
            seeds=(seed,),
            target="iid",
            target_seed=harness.TARGET_SEED + seed,
            ask_batch=batch,
            out_dir=out,
        )
        report = harness.run_experiment(spec)
        with open(os.path.join(out, f"records_seed{seed}.jsonl"), "rb") as fh:
            records = hashlib.sha256(fh.read()).hexdigest()
    return f"{report.report_hash()[:12]}/{records[:12]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sessions", action="store_true", help="skip the run grid")
    args = ap.parse_args(argv)
    print(f"numpy {np.__version__}, scipy {scipy.__version__}")
    print("sessions:")
    for name in SESSIONS:
        print(f'    "{name}": "{session_digest(name)}",')
    if not args.sessions:
        print("grid:")
        for problem, budget, batch, seed in GRID:
            digest = grid_digest(problem, budget, batch, seed)
            print(f"    {problem} budget {budget} ask_batch {batch} seed {seed}: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
