"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client, driven through idkit's public
Python API with the calls that ``idkit run`` / ``idkit gen-data`` /
``idkit train`` make.  One round is one complete experiment at one seed; the
time of :meth:`Workload.round` is the round's wall time, and
:meth:`Workload.check` inspects what the round left behind, outside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from idkit import get_space, harness, records, surrogate
from idkit.engine import Engine

import reference

# reference check: records and wavelength-grid points sampled per round
REF_RECORDS = 3
REF_WAVELENGTHS = 16
REF_TOL = 1e-9


@dataclass
class Round:
    """What one round produced: its wall time and what the checks look at."""

    wall_s: float
    evals: int
    outputs: dict
    # filled in by Workload.check
    failed_evals: int = 0
    checks: list[tuple[str, str | None]] = field(default_factory=list)
    digest: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def failed_checks(self) -> list[str]:
        return [f"{name}: {why}" for name, why in self.checks if why is not None]


def _sample(rng: np.random.Generator, n: int, k: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


def _reference_check(rng: np.random.Generator, recs: list) -> str | None:
    """None when every sampled motf record matches the scalar reference."""
    worst = 0.0
    for i in _sample(rng, len(recs), REF_RECORDS):
        rec = recs[i]
        idx = _sample(rng, len(rec.response), REF_WAVELENGTHS)
        worst = max(worst, reference.max_error(rec.point.values, rec.response, idx))
    return None if worst <= REF_TOL else f"max |eps - reference| = {worst:.3g}"


def _curve_check(curve, budget: int) -> str | None:
    c = np.asarray(curve, dtype=float)
    if c.size != budget:
        return f"{c.size} entries, budget {budget}"
    if not np.all(np.isfinite(c)):
        return "non-finite entries"
    if np.any(np.diff(c) > 0):
        return "increases"
    return None


def _read_sampled_records(path: str, idx: list[int]) -> list:
    want = set(idx)
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if i in want:
                out.append(records.EvalRecord.from_json(line))
    return out


class Workload:
    name = ""

    def config(self) -> str:
        """Short digest of the workload's parameters."""
        blob = json.dumps(vars(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def round(self, seed: int, work_dir: str) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round, seed: int) -> None:
        raise NotImplementedError


class RunWorkload(Workload):
    """``idkit run`` with one seed: an ask/evaluate/tell loop over a budget."""

    def __init__(self, name, problem, algo, budget, workers=1, adapter=False):
        self.name = name
        self.problem, self.algo, self.budget = problem, algo, budget
        self.workers, self.adapter = workers, adapter

    def round(self, seed: int, work_dir: str) -> Round:
        adapter_cmd = None
        if self.adapter:
            adapter_cmd = f"{shlex.quote(sys.executable)} -m idkit.adapters"
        t0 = time.perf_counter()
        spec = harness.ExperimentSpec(
            problem=self.problem,
            algo=self.algo,
            budget=self.budget,
            seeds=(seed,),
            target="iid",
            target_seed=harness.TARGET_SEED + seed,
            ask_batch=1,
            workers=self.workers,
            adapter_cmd=adapter_cmd,
            out_dir=work_dir,
        )
        report = harness.run_experiment(spec)
        wall = time.perf_counter() - t0
        # the optimizer's simulator calls plus the one iid target
        return Round(wall, self.budget + 1, {"report": report, "dir": work_dir})

    def check(self, rnd: Round, seed: int) -> None:
        report = rnd.outputs["report"]
        path = os.path.join(rnd.outputs["dir"], f"records_seed{seed}.jsonl")
        with open(path, "rb") as fh:
            blob = fh.read()
        rnd.failed_evals = blob.count(b'"error":')
        rnd.checks.append(("seeds", f"failed seeds {report.failed_seeds}" if report.failed_seeds else None))
        rnd.checks.append(("curve", _curve_check(report.curves[0], self.budget)
                           if report.curves else "no curve"))
        n_lines = blob.count(b"\n")
        rnd.checks.append(("records", None if n_lines == self.budget
                           else f"{n_lines} records, budget {self.budget}"))
        rng = np.random.default_rng(seed)
        if self.problem == "motf":
            idx = _sample(rng, n_lines, REF_RECORDS)
            rnd.checks.append(("reference", _reference_check(rng, _read_sampled_records(path, idx))))
        if self.adapter:
            bad = 0
            for line in blob.splitlines():
                rec = records.EvalRecord.from_json(line.decode())
                want = [float(v) for v in rec.point.values[:3]]
                bad += [float(v) for v in rec.response] != want
            rnd.checks.append(("echo", f"{bad} replies differ from x[:3]" if bad else None))
        rnd.digest = report.report_hash()
        rnd.extras["result.best_loss"] = float(report.final_losses()[0]) if report.curves else math.inf


class SurrogateWorkload(Workload):
    """gen-data, split, train a forward net, design by gradient descent, re-simulate."""

    name = "motf-surrogate"

    def __init__(self, n=400, epochs=30, n_starts=8, n_steps=100, workers=2):
        self.n, self.epochs = n, epochs
        self.n_starts, self.n_steps, self.workers = n_starts, n_steps, workers

    def round(self, seed: int, work_dir: str) -> Round:
        path = os.path.join(work_dir, "dataset.jsonl")
        space = get_space("motf")
        t0 = time.perf_counter()
        binding = harness.default_binding("motf", workers=self.workers)
        harness.generate_dataset("motf", self.n, seed, binding=binding, path=path)
        recs = records.load_records(path)
        splits = harness.split_dataset(recs, seed)
        train = [r for r in splits.train if not r.failed]
        x, y = surrogate.encode_dataset(space, train)
        cfg = surrogate.TrainConfig(epochs=self.epochs, seed=seed)
        model, log = surrogate.train_forward(x, y, cfg)
        target = harness.iid_targets("motf", 1, seed=harness.TARGET_SEED + seed)[0]
        target = target.response_array()
        cands = surrogate.gd_inverse(model, space, target, n_starts=self.n_starts,
                                     n_steps=self.n_steps, seed=seed)
        resim = Engine(binding).evaluate_batch([p for p, _ in cands], target=target)
        wall = time.perf_counter() - t0
        outputs = {"path": path, "recs": recs, "y": y, "log": log,
                   "cands": cands, "resim": resim}
        return Round(wall, self.n + 1 + len(cands), outputs)

    def check(self, rnd: Round, seed: int) -> None:
        o = rnd.outputs
        recs, resim, log = o["recs"], o["resim"], o["log"]
        rnd.failed_evals = sum(r.failed for r in recs) + sum(r.failed for r in resim)
        rnd.checks.append(("dataset", None if len(recs) == self.n else f"{len(recs)} records"))
        log_arr = np.asarray(log, dtype=float)
        finite = log_arr.shape == (self.epochs, 3) and np.all(np.isfinite(log_arr))
        rnd.checks.append(("training log", None if finite else "non-finite or short"))
        rng = np.random.default_rng(seed)
        rnd.checks.append(("reference dataset", _reference_check(rng, recs)))
        ok = [r for r in resim if not r.failed]
        rnd.checks.append(("reference designs", _reference_check(rng, ok) if ok else "none"))
        losses = [r.loss for r in resim]
        with open(o["path"], "rb") as fh:
            data_hash = hashlib.sha256(fh.read()).hexdigest()
        blob = json.dumps([data_hash, log, [c[1] for c in o["cands"]], losses])
        rnd.digest = hashlib.sha256(blob.encode()).hexdigest()
        var = float(np.mean(np.var(o["y"], axis=0)))
        rnd.extras["result.best_loss"] = float(min(losses))
        rnd.extras["surrogate.val_mse_ratio"] = float(log_arr[:, 2].min()) / var
        rnd.extras["surrogate.epochs"] = len(log)


# budgets are trimmed from the paper's so that a 20 s run holds three or more
# rounds; why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload("motf-tpe", "motf", "tpe", budget=400),
        RunWorkload("motf-bo", "motf", "bo", budget=60),
        RunWorkload("scf-adapter", "scf", "rs", budget=20, workers=2, adapter=True),
        SurrogateWorkload(),
    )
}
