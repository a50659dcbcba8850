"""Reproducible experiments: datasets, splits, targets, budgeted runs, reports.

Everything here is a thin, deterministic layer over the engine and the
optimizers.  A run is described by an :class:`ExperimentSpec`, executed by
:func:`run_experiment`, and summarised in an :class:`ExperimentReport` whose
CSV/SVG renderings are byte-stable: emitting the same report twice produces
identical files, and re-running the same spec reproduces the same report hash.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .engine import Engine, SimulatorBinding
from .optimizers import OPTIMIZER_KINDS, make_optimizer, warm_start
from .problems import PROBLEM_NAMES, get_space
from .records import EvalRecord, dump_records, load_records
from .space import DesignSpace, mse_loss
from .tmm import default_grid

try:  # glibc's; elsewhere there is nothing to call
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):
    _malloc_trim = None

__all__ = [
    "DEFAULT_BUDGETS",
    "DEFAULT_SEEDS",
    "DatasetSplits",
    "ExperimentReport",
    "ExperimentSpec",
    "HarnessError",
    "emit_report",
    "generate_dataset",
    "iid_targets",
    "load_target",
    "radiative_cooler_target",
    "run_experiment",
    "split_dataset",
    "train_best",
]

DEFAULT_BUDGETS = {"motf": 1000, "tpv": 200, "scf": 200}
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

# targets get their own stream, far away from the small integers used as run
# seeds (seed 0's first uniform draws must not coincide with target 0)
TARGET_SEED = 10**6


class HarnessError(RuntimeError):
    """Raised when an experiment cannot produce a trustworthy result."""


# an alias of SimulatorBinding, kept for the benchmark (perfbench/workloads.py)
default_binding = SimulatorBinding


# -- datasets ---------------------------------------------------------------------


def generate_dataset(
    problem: str,
    n: int,
    seed: int,
    binding: SimulatorBinding | None = None,
    path: str | None = None,
    max_failure_rate: float = 0.01,
) -> list[EvalRecord]:
    """Draw n uniform points, evaluate them, and return (optionally write) records.

    The draw order is fixed by the seed and the evaluation preserves it, so the
    same call yields byte-identical files at any worker count.  Losses are
    taken against the zero response (a dataset has no target of its own);
    consumers re-score against whatever target they care about.

    Raises :class:`HarnessError` when more than ``max_failure_rate`` of the
    evaluations fail, listing the failure reasons.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    space = get_space(problem)
    binding = binding or SimulatorBinding(problem)
    rng = np.random.default_rng(seed)
    points = [space.sample_uniform(rng) for _ in range(n)]
    with Engine(binding) as engine:
        records = engine.evaluate_batch(points, target=None)
    failures = [r for r in records if r.failed]
    if len(failures) > max_failure_rate * n:
        reasons = sorted({r.error for r in failures})
        raise HarnessError(
            f"{len(failures)}/{n} evaluations failed "
            f"(limit {max_failure_rate:.0%}): " + "; ".join(reasons[:5])
        )
    if path is not None:
        dump_records(path, records)
    return records


@dataclass(frozen=True)
class DatasetSplits:
    train: list[EvalRecord]
    val: list[EvalRecord]
    test: list[EvalRecord]


def split_dataset(records: list[EvalRecord], seed: int) -> DatasetSplits:
    """Shuffle and split: a tenth held out for test, then a tenth of the rest for val.

    1000 records become 810 train / 90 val / 100 test.  The three parts are
    disjoint and jointly exhaustive.
    """
    n = len(records)
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_test = n // 10
    test_idx = order[:n_test]
    rest = order[n_test:]
    n_val = len(rest) // 10
    val_idx = rest[:n_val]
    train_idx = rest[n_val:]
    pick = lambda idx: [records[i] for i in idx]
    return DatasetSplits(train=pick(train_idx), val=pick(val_idx), test=pick(test_idx))


# -- targets ----------------------------------------------------------------------


def iid_targets(
    problem: str,
    k: int = 5,
    seed: int = TARGET_SEED,
    binding: SimulatorBinding | None = None,
) -> list[EvalRecord]:
    """k realizable targets: responses of uniform draws, generating points kept.

    Each returned record holds the generating design in ``point`` and the
    target spectrum in ``response``, so a zero-loss solution provably exists.
    Any failed evaluation raises :class:`HarnessError` with the reasons.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return generate_dataset(problem, k, seed, binding, max_failure_rate=0.0)


def radiative_cooler_target() -> np.ndarray:
    """The stock emissivity target: reflect sunlight, radiate through the sky window.

    Zero below 2.5 um, one across 8-13 um, zero elsewhere, with smooth logistic
    shoulders (0.15 um wide) so gradient-based methods see no cliffs.  It is
    sampled on the film problems' wavelength grid, ``tmm.default_grid()``.
    """
    lam = default_grid()
    w = 0.15
    rise = 1.0 / (1.0 + np.exp(-(lam - 8.0) / w))
    fall = 1.0 / (1.0 + np.exp(-(13.0 - lam) / w))
    return rise * fall


def load_target(path: str, space: DesignSpace) -> np.ndarray:
    """Read a target response from a JSON list or a whitespace/newline text file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        values = json.loads(text) if path.endswith(".json") else text.split()
        if not isinstance(values, list):
            raise TypeError
        target = np.asarray([float(v) for v in values], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"target {path} is not a list of numbers") from None
    if target.shape != (space.response_dim,):
        raise ValueError(
            f"target {path} has {target.size} values, space responds with {space.response_dim}"
        )
    if not np.all(np.isfinite(target)):
        raise ValueError(f"target {path} has non-finite values")
    return target


def train_best(records: list[EvalRecord], target: np.ndarray) -> EvalRecord:
    """The training record closest to the target; ties go to the earliest trial.

    Records are re-scored against the given target, so the dataset's own loss
    column is irrelevant here.  Failed records never win.
    """
    best: EvalRecord | None = None
    best_key = None
    for rec in records:
        if rec.failed:
            continue
        loss = mse_loss(rec.response_array(), target)
        key = (loss, rec.trial)
        if best_key is None or key < best_key:
            best, best_key = replace(rec, loss=loss), key
    if best is None:
        raise ValueError("no successful records to choose from")
    return best


# -- experiments ------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, hashable description of one budgeted optimization run.

    ``target`` is one of ``"builtin"`` (the radiative-cooler spectrum, films
    only), ``"iid"`` (fresh realizable targets, one per seed, drawn with
    ``target_seed``), or a path to a stored response.  ``budget`` counts
    simulator calls; warm-start records cost nothing.  ``problem`` and
    ``algo`` are checked on construction, before anything is simulated.
    The optimizer runs at its kind's fixed setting.
    """

    problem: str
    algo: str
    budget: int | None = None
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    target: str = "iid"
    target_seed: int = TARGET_SEED
    warm_start_k: int = 0
    dataset_path: str | None = None
    ask_batch: int = 1
    workers: int = 1
    adapter_cmd: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}; expected one of {PROBLEM_NAMES}")
        if self.algo.lower() not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown algo {self.algo!r}; expected one of {OPTIMIZER_KINDS}")
        if self.budget is None:
            object.__setattr__(self, "budget", DEFAULT_BUDGETS[self.problem])
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")
        if self.target_seed < 0:
            raise ValueError(f"target_seed must be >= 0, got {self.target_seed}")
        if self.warm_start_k < 0:
            raise ValueError(f"warm_start_k must be >= 0, got {self.warm_start_k}")
        if self.warm_start_k and not self.dataset_path:
            raise ValueError("warm_start_k > 0 requires dataset_path")
        if self.ask_batch < 1:
            raise ValueError(f"ask_batch must be >= 1, got {self.ask_batch}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        return d


def _resolve_targets(
    spec: ExperimentSpec, space: DesignSpace, binding: SimulatorBinding
) -> list[np.ndarray]:
    """One target per seed; iid targets come from the run's own simulator."""
    if spec.target == "builtin":
        if space.response_dim != default_grid().size:
            raise ValueError("the builtin target is a film emissivity spectrum")
        t = radiative_cooler_target()
        return [t] * len(spec.seeds)
    if spec.target == "iid":
        recs = iid_targets(
            spec.problem, k=len(spec.seeds), seed=spec.target_seed, binding=binding
        )
        return [r.response_array() for r in recs]
    t = load_target(spec.target, space)
    return [t] * len(spec.seeds)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-seed best-so-far curves plus the aggregate view of a finished run.

    ``curves[i][t]`` is the lowest loss seen by seed ``seeds[i]`` within the
    first ``t + 1`` simulator calls; every curve is non-increasing.  Aggregates
    are the pointwise mean and a normal-theory 95% halfwidth (1.96 s/sqrt(n)),
    zero when seeds agree exactly, when only one seed ran, or at a trial where
    some seed has no finite loss yet.  ``train_best``
    holds the per-seed baseline loss of the best dataset record when a dataset
    was supplied.  ``failed_seeds`` flags seeds whose session died; their
    curves are absent and the aggregates cover the survivors.

    ``report_hash`` covers everything except ``metadata`` (which carries
    timestamps), so identical reruns hash identically.
    """

    spec: dict
    seeds: tuple[int, ...]
    curves: tuple[tuple[float, ...], ...]
    train_best: tuple[float, ...] | None
    failed_seeds: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def algo(self) -> str:
        return str(self.spec["algo"])

    def mean_curve(self) -> np.ndarray:
        if not self.curves:
            return np.zeros(0)
        return np.mean(np.asarray(self.curves, dtype=float), axis=0)

    def ci_halfwidth(self) -> np.ndarray:
        arr = np.asarray(self.curves, dtype=float)
        if arr.shape[0] < 2:
            return np.zeros(arr.shape[1] if arr.ndim == 2 else 0)
        # no band where a seed has no finite loss yet (its curve is inf there)
        finite = np.isfinite(arr).all(axis=0)
        s = np.zeros(arr.shape[1])
        s[finite] = arr[:, finite].std(axis=0, ddof=1)
        return 1.96 * s / np.sqrt(arr.shape[0])

    def final_losses(self) -> list[float]:
        return [c[-1] for c in self.curves if c]

    # storage location and pool width cannot change results (workers are
    # independent), so they stay out of the hash; so does the `cache` flag
    # that reports of earlier versions carry, so those keep their hashes
    _UNHASHED_SPEC_KEYS = ("out_dir", "dataset_path", "workers", "cache")

    def _payload(self) -> dict:
        spec = {k: v for k, v in self.spec.items() if k not in self._UNHASHED_SPEC_KEYS}
        return {
            "spec": spec,
            "seeds": list(self.seeds),
            "curves": [list(c) for c in self.curves],
            "train_best": None if self.train_best is None else list(self.train_best),
            "failed_seeds": list(self.failed_seeds),
        }

    def report_hash(self) -> str:
        blob = json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self) -> str:
        """Standard JSON: a non-finite curve entry (a failed-only prefix) is null."""
        doc = self._payload()
        doc["curves"] = [[v if math.isfinite(v) else None for v in c] for c in self.curves]
        doc["spec"] = self.spec
        doc["metadata"] = self.metadata
        doc["report_hash"] = self.report_hash()
        return json.dumps(doc, sort_keys=True, indent=1)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        doc = json.loads(text)
        return cls(
            spec=doc["spec"],
            seeds=tuple(doc["seeds"]),
            curves=tuple(tuple(math.inf if v is None else v for v in c) for c in doc["curves"]),
            train_best=None if doc["train_best"] is None else tuple(doc["train_best"]),
            failed_seeds=tuple(doc["failed_seeds"]),
            metadata=doc.get("metadata", {}),
        )

    @classmethod
    def load(cls, path: str) -> "ExperimentReport":
        """The report saved at `path`; a file that is not one raises ValueError naming it."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{path} is not an experiment report: {type(exc).__name__}: {exc}"
            ) from None


def _load_dataset(path: str, space: DesignSpace) -> list[EvalRecord]:
    """The records at `path`, checked against the space before anything is simulated."""
    records = load_records(path)
    for r in records:
        n_x, n_y = len(r.point.values), len(r.response)
        if n_x != space.dim or (n_y != space.response_dim and not r.failed):
            raise ValueError(
                f"{path}: trial {r.trial} has {n_x} design and {n_y} response values, "
                f"{space.name} has {space.dim} and {space.response_dim}"
            )
    return records


def _run_seed(
    spec: ExperimentSpec,
    seed: int,
    target: np.ndarray,
    dataset: list[EvalRecord] | None,
    record_path: str | None,
    binding: SimulatorBinding,
) -> list[float]:
    space = get_space(spec.problem)
    session = make_optimizer(spec.algo, space, seed)
    if spec.warm_start_k:
        rescored = [
            replace(r, loss=mse_loss(r.response_array(), target))
            for r in dataset
            if not r.failed
        ]
        warm_start(session, rescored, spec.warm_start_k)
    curve: list[float] = []
    kept: list[EvalRecord] = []
    best = float("inf")
    done = 0
    with Engine(binding) as engine:
        while done < spec.budget:
            k = min(spec.ask_batch, spec.budget - done)
            points = session.ask(k)
            records = engine.evaluate_batch(points, target=target, start_trial=done)
            session.tell(records)
            for rec in records:
                best = min(best, rec.loss)
                curve.append(best)
            kept.extend(records)
            done += len(records)
    if record_path is not None:
        dump_records(record_path, kept)
    return curve


def _trim_heap() -> None:
    """Hand the heap pages freed so far back to the OS.

    malloc keeps up to twice its largest recent block free at the heap top, so
    without this a seed's peak RSS depends on what the process freed before
    it: a later allocation that does not fit there is mapped on top.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute the spec seed by seed and aggregate the curves into a report.

    Each seed gets a fresh optimizer session and its own target (under
    ``target="iid"``; the other modes share one target).  A seed that raises
    is flagged in ``failed_seeds`` rather than sinking the run, but a run where
    every seed fails raises.  With ``out_dir`` set, the raw records land in
    ``records_seed<k>.jsonl`` and the report in ``report.json`` plus its
    CSV/SVG renderings.
    """
    space = get_space(spec.problem)
    binding = SimulatorBinding(spec.problem, workers=spec.workers, adapter_cmd=spec.adapter_cmd)
    dataset = _load_dataset(spec.dataset_path, space) if spec.dataset_path else None
    targets = _resolve_targets(spec, space, binding)
    if spec.out_dir:
        os.makedirs(spec.out_dir, exist_ok=True)

    curves: list[tuple[float, ...]] = []
    kept_seeds: list[int] = []
    failed: list[int] = []
    errors: list[str] = []
    for i, seed in enumerate(spec.seeds):
        _trim_heap()
        record_path = (
            os.path.join(spec.out_dir, f"records_seed{seed}.jsonl")
            if spec.out_dir
            else None
        )
        try:
            curve = _run_seed(spec, seed, targets[i], dataset, record_path, binding)
        except Exception as exc:
            failed.append(seed)
            errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            continue
        curves.append(tuple(curve))
        kept_seeds.append(seed)
    _trim_heap()
    if not curves and spec.budget > 0:
        raise HarnessError("every seed failed: " + "; ".join(errors))

    # budget 0 short-circuits the loop above: every seed yields an empty curve
    # and the report is baselines-only
    train_best_losses = None
    if dataset is not None:
        train_best_losses = tuple(
            train_best(dataset, targets[i]).loss
            for i, seed in enumerate(spec.seeds)
            if seed in kept_seeds
        )

    spec_dict = spec.to_dict()
    spec_blob = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    report = ExperimentReport(
        spec=spec_dict,
        seeds=tuple(kept_seeds),
        curves=tuple(curves),
        train_best=train_best_losses,
        failed_seeds=tuple(failed),
        metadata={
            "toolkit_version": __version__,
            "spec_hash": hashlib.sha256(spec_blob.encode()).hexdigest(),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "errors": errors,
        },
    )
    if spec.out_dir:
        report.save(os.path.join(spec.out_dir, "report.json"))
        emit_report([report], os.path.join(spec.out_dir, "report"))
    return report


# -- rendering --------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640.0, 440.0
_ML, _MR, _MT, _MB = 72.0, 16.0, 18.0, 46.0


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def emit_report(reports: list[ExperimentReport], out_prefix: str) -> tuple[str, str]:
    """Write <prefix>.csv and <prefix>.svg for one or more reports.

    The CSV has one row per (algorithm, trial) with the mean best-so-far loss
    and the 95% band; the SVG draws each mean as a line over its shaded band,
    with the first available train-best baseline dashed across.  Both files are
    pure functions of the reports: emitting twice writes identical bytes.  An
    empty report list yields a header-only CSV and an axes-only SVG.
    """
    csv_path = out_prefix + ".csv"
    svg_path = out_prefix + ".svg"
    lines = ["algo,trial,mean,lo,hi"]
    for rep in reports:
        mean = rep.mean_curve()
        half = rep.ci_halfwidth()
        for t in range(mean.size):
            lo, hi = mean[t] - half[t], mean[t] + half[t]
            lines.append(f"{rep.algo},{t},{_fmt(mean[t])},{_fmt(lo)},{_fmt(hi)}")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_render_svg(reports))
    return csv_path, svg_path


def _render_svg(reports: list[ExperimentReport]) -> str:
    # collect finite positive values to size a log axis
    ys: list[float] = []
    n_trials = 0
    for rep in reports:
        mean, half = rep.mean_curve(), rep.ci_halfwidth()
        n_trials = max(n_trials, mean.size)
        for v in np.concatenate([mean - half, mean + half]) if mean.size else []:
            if np.isfinite(v) and v > 0:
                ys.append(float(v))
        if rep.train_best:
            ys.extend(v for v in rep.train_best if np.isfinite(v) and v > 0)
    if ys:
        lo = 10.0 ** np.floor(np.log10(min(ys)))
        hi = 10.0 ** np.ceil(np.log10(max(ys)))
        if lo == hi:
            hi = lo * 10.0
    else:
        lo, hi = 0.1, 10.0
    x_max = max(n_trials, 1)

    def sx(t: float) -> float:
        return _ML + (t / x_max) * (_W - _ML - _MR)

    def sy(v: float) -> float:
        # values at or below zero clamp to the bottom decade
        v = max(float(v), lo)
        v = min(v, hi)
        f = (np.log10(v) - np.log10(lo)) / (np.log10(hi) - np.log10(lo))
        return _H - _MB - f * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_W)}" height="{_fmt(_H)}" '
        f'viewBox="0 0 {_fmt(_W)} {_fmt(_H)}" font-family="monospace" font-size="11">',
        f'<rect width="{_fmt(_W)}" height="{_fmt(_H)}" fill="white"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(_W - _MR)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="black"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = frac * x_max
        out.append(
            f'<text x="{_fmt(sx(t))}" y="{_fmt(_H - _MB + 16)}" '
            f'text-anchor="middle">{int(round(t))}</text>'
        )
    decade = lo
    while decade <= hi * 1.0001:
        y = sy(decade)
        out.append(
            f'<line x1="{_fmt(_ML - 4)}" y1="{_fmt(y)}" x2="{_fmt(_ML)}" '
            f'y2="{_fmt(y)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(y + 4)}" '
            f'text-anchor="end">{decade:.0e}</text>'
        )
        decade *= 10.0
    out.append(
        f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="{_fmt(_H - 8)}" '
        f'text-anchor="middle">simulator calls</text>'
    )
    out.append(
        f'<text x="14" y="{_fmt((_MT + _H - _MB) / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt((_MT + _H - _MB) / 2)})">best loss</text>'
    )

    train_drawn = False
    for k, rep in enumerate(reports):
        color = _PALETTE[k % len(_PALETTE)]
        mean, half = rep.mean_curve(), rep.ci_halfwidth()
        if mean.size:
            xs = [sx(t + 1) for t in range(mean.size)]
            band = " ".join(
                f"{_fmt(x)},{_fmt(sy(m + h))}" for x, m, h in zip(xs, mean, half)
            )
            band += " " + " ".join(
                f"{_fmt(x)},{_fmt(sy(m - h))}"
                for x, m, h in zip(reversed(xs), reversed(mean), reversed(half))
            )
            out.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15"/>')
            pts = " ".join(f"{_fmt(x)},{_fmt(sy(m))}" for x, m in zip(xs, mean))
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        if rep.train_best and not train_drawn:
            tb = float(np.mean(rep.train_best))
            out.append(
                f'<line x1="{_fmt(_ML)}" y1="{_fmt(sy(tb))}" x2="{_fmt(_W - _MR)}" '
                f'y2="{_fmt(sy(tb))}" stroke="#555555" stroke-dasharray="6 4"/>'
            )
            out.append(
                f'<text x="{_fmt(_W - _MR - 4)}" y="{_fmt(sy(tb) - 5)}" '
                f'text-anchor="end" fill="#555555">train best</text>'
            )
            train_drawn = True
        out.append(
            f'<text x="{_fmt(_W - _MR - 4)}" y="{_fmt(_MT + 14 + 14 * k)}" '
            f'text-anchor="end" fill="{color}">{rep.algo}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
