"""Span recorder for the traced run, wrapped around idkit's public entry points.

Nothing inside idkit is edited: while a :class:`Tracer` is installed, the
functions and methods listed in ``_targets`` are replaced by timing wrappers,
and the originals come back on exit.  Each span records its name, start and
end (``perf_counter`` seconds), its parent span and the run id of the round
it belongs to.  Spans stay in memory; :meth:`Tracer.dump` writes them out
when the benchmark ends.

A span opened on an engine worker thread has no parent on its own thread;
it takes the innermost open span of the thread that installed the tracer,
which is the ``engine.evaluate_batch`` call waiting for that worker.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import idkit.engine
import idkit.harness
import idkit.records
import idkit.surrogate
from idkit.optimizers import GaussianProcess, OptimizerSession
from idkit.space import DesignSpace

LAYERS = ("tmm", "optimizers", "engine", "space", "records", "harness", "surrogate")

# spans of these names are simulator work inside engine.evaluate_batch
SIMULATOR_SPANS = ("tmm.motf_forward",)


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class _PopenCounter:
    """Stands in for the ``subprocess`` module as ``idkit.engine`` sees it."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(subprocess, name)

    def Popen(self, *args, **kwargs):  # noqa: N802 - mirrors subprocess.Popen
        with self._tracer.span("engine.adapter_spawn"):
            return subprocess.Popen(*args, **kwargs)


def _dump_bytes(span: Span, args, kwargs, out) -> None:
    span.attrs["bytes"] = os.path.getsize(args[0])


def _batch_points(span: Span, args, kwargs, out) -> None:
    span.attrs["points"] = len(out)


def _targets(tracer: "Tracer") -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every patched entry point."""

    def wrap(owner, attr, name, on_exit=None):
        return (owner, attr, tracer.wrap(getattr(owner, attr), name, on_exit))

    out = [
        wrap(idkit.engine, "motf_forward", "tmm.motf_forward"),
        wrap(idkit.engine.Engine, "evaluate_batch", "engine.evaluate_batch", _batch_points),
        (idkit.engine, "subprocess", _PopenCounter(tracer)),
        wrap(OptimizerSession, "ask", "optimizers.ask"),
        wrap(OptimizerSession, "tell", "optimizers.tell"),
        wrap(GaussianProcess, "posterior", "optimizers.bo.posterior"),
        wrap(GaussianProcess, "refit", "optimizers.bo.refit"),
        wrap(DesignSpace, "validate", "space.validate"),
    ]
    # the records functions are bound in both modules that call them
    for owner in (idkit.records, idkit.harness):
        out.append(wrap(owner, "dump_records", "records.dump_records", _dump_bytes))
        out.append(wrap(owner, "load_records", "records.load_records"))
    for fn in ("run_experiment", "generate_dataset", "split_dataset", "iid_targets", "emit_report"):
        out.append(wrap(idkit.harness, fn, f"harness.{fn}"))
    for fn in ("encode_dataset", "train_forward", "gd_inverse", "grad_input"):
        out.append(wrap(idkit.surrogate, fn, f"surrogate.{fn}"))
    return out


class Tracer:
    """Records spans while installed; a round is one root span with a run id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._run = ""

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, fn, name: str, on_exit=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(sp, args, kwargs, out)
                return out

        return traced

    def __enter__(self) -> "Tracer":
        self._local.stack = self._home_stack
        for owner, attr, repl in _targets(self):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, repl)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def round(self, run_id: str):
        """Root span of one workload round; its spans carry ``run_id``."""
        self._run = run_id
        return self.span("round")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"id": s.sid, "name": s.name, "parent": s.parent, "run": s.run,
                       "start": s.start, "end": s.end}
                if s.attrs:
                    row["attrs"] = s.attrs
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        t = self.tracer
        stack = t._stack()
        parent = stack[-1] if stack else (t._home_stack[-1] if t._home_stack else None)
        with t._lock:
            sp = Span(len(t.spans), self.name, None if parent is None else parent.sid,
                      t._run, 0.0)
            t.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        sp = self.tracer._stack().pop()
        sp.end = end


# -- per-layer metrics from one round's spans ----------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reached = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > reached:
            total += e - max(s, reached)
            reached = e
    return total


def _tail_quantile(n: int) -> float:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it, else p50."""
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return q
    return 0.5


def _ms(durs: list[float], q: float) -> float:
    return float(np.quantile(durs, q)) * 1e3 if durs else 0.0


def _layer_of(name: str) -> str:
    return "harness" if name == "round" else name.split(".", 1)[0]


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round (the spans of one run id, root first)."""
    root = spans[0]
    kids: dict[int, list[Span]] = {}
    for s in spans[1:]:
        kids.setdefault(s.parent, []).append(s)
    self_t: dict[int, float] = {}
    excess = 0.0
    for s in spans:
        ch = kids.get(s.sid, [])
        covered = _union([(c.start, c.end) for c in ch])
        self_t[s.sid] = s.dur - covered
        excess += sum(c.dur for c in ch) - covered
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durs(name: str) -> list[float]:
        return [s.dur for s in by_name.get(name, [])]

    def total(name: str) -> float:
        return float(sum(durs(name)))

    def self_sum(pred) -> float:
        return float(sum(self_t[s.sid] for s in spans if pred(s)))

    m: dict[str, float] = {}
    fwd = durs("tmm.motf_forward")
    m["tmm.motf_forward.calls"] = len(fwd)
    m["tmm.motf_forward.ms_p50"] = _ms(fwd, 0.5)
    m["tmm.motf_forward.ms_tail"] = _ms(fwd, _tail_quantile(len(fwd)))
    m["tmm.motf_forward.self_s"] = self_sum(lambda s: s.name == "tmm.motf_forward")

    ask = durs("optimizers.ask")
    m["optimizers.ask.ms_p50"] = _ms(ask, 0.5)
    m["optimizers.ask.ms_tail"] = _ms(ask, _tail_quantile(len(ask)))
    last = ask[len(ask) - max(1, len(ask) // 10):] if ask else []
    m["optimizers.ask.ms_last_decile"] = _ms(last, 0.5)
    m["optimizers.ask.self_s"] = self_sum(lambda s: s.name == "optimizers.ask")
    m["optimizers.tell.ms_p50"] = _ms(durs("optimizers.tell"), 0.5)
    m["optimizers.bo.posterior_calls"] = len(durs("optimizers.bo.posterior"))
    m["optimizers.bo.posterior_s"] = total("optimizers.bo.posterior")
    m["optimizers.bo.refits"] = len(durs("optimizers.bo.refit"))
    m["optimizers.bo.refit_s"] = total("optimizers.bo.refit")

    batches = by_name.get("engine.evaluate_batch", [])
    bd = [s.dur for s in batches]
    points = sum(s.attrs.get("points", 0) for s in batches)
    # simulator busy time sums the worker threads; its union is the part of
    # the batch's wall that some simulator call covered
    sims = [[c for c in kids.get(s.sid, []) if c.name in SIMULATOR_SPANS] for s in batches]
    busy = float(sum(c.dur for cs in sims for c in cs))
    covered = float(sum(_union([(c.start, c.end) for c in cs]) for cs in sims))
    m["engine.evaluate_batch.ms_p50"] = _ms(bd, 0.5)
    m["engine.evaluate_batch.ms_tail"] = _ms(bd, _tail_quantile(len(bd)))
    m["engine.overhead_ms_per_point"] = (sum(bd) - covered) / points * 1e3 if points else 0.0
    m["engine.adapter_spawns"] = len(durs("engine.adapter_spawn"))
    m["engine.sim_concurrency"] = busy / sum(bd) if bd else 0.0

    m["space.validate.calls"] = len(durs("space.validate"))
    m["records.dump_records_s"] = total("records.dump_records")
    m["records.load_records_s"] = total("records.load_records")
    m["records.bytes_written"] = sum(
        s.attrs.get("bytes", 0) for s in by_name.get("records.dump_records", []))
    m["harness.iid_targets_s"] = total("harness.iid_targets")
    m["harness.emit_report_s"] = total("harness.emit_report")

    m["surrogate.train_forward_s"] = total("surrogate.train_forward")
    m["surrogate.gd_inverse_s"] = total("surrogate.gd_inverse")
    m["surrogate.grad_input.calls"] = len(durs("surrogate.grad_input"))
    m["surrogate.val_mse_ratio"] = 0.0  # set by the surrogate workload's check

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_sum(lambda s, layer=layer: _layer_of(s.name) == layer)
    m["trace.wall_s"] = root.dur
    m["trace.parallel_excess_s"] = excess
    return m


# metrics that count work and must repeat exactly for the same inputs
EXACT_COUNTS = (
    "tmm.motf_forward.calls",
    "optimizers.bo.posterior_calls",
    "optimizers.bo.refits",
    "engine.adapter_spawns",
    "records.bytes_written",
    "surrogate.grad_input.calls",
    "space.validate.calls",
)
