"""Parallel evaluation of design points on internal and external simulators.

The simulator follows from the problem and the adapter command: with an
``adapter_cmd``, child processes speak line-delimited JSON over stdin/stdout,
one per busy worker; without one, motf runs the built-in thin-film solver and
tpv/scf run a smooth deterministic stand-in (clearly non-physical, exists so
the pipeline is testable offline; can also sleep per call for throughput
experiments).  ``SimulatorBinding.kind`` names the choice
(``external-adapter``, ``internal-motf`` or ``internal-synthetic``).

All three go through one scheduler, ``Engine.evaluate_batch``, the single
entry point.  Every point of a batch is a job in one shared queue, and
workers take jobs from it.  A batch with one point, or a binding with one
worker, is served in the calling thread; otherwise ``min(workers, points)``
threads serve the queue.  A reply of the wrong length or with a non-finite
value fails its point.

A request is ``{"id", "problem", "x"}`` and nothing more: an adapter whose
solver needs the structure builds it from ``x`` (``idkit.shapes.tpv_layout``
and ``scf_layout`` map a point to its supercell raster).

Adapter children live as long as the engine: an external worker borrows an
idle child from the engine, or spawns one when it takes its first job, and
hands it back when the batch ends, so a run of one-point batches starts one
child.  A child that times out, breaks the protocol or dies is killed and
never reused; its point goes back in the queue (at most ``MAX_ATTEMPTS``
tries in all) and the worker spawns a replacement for its next job.  A
worker whose child cannot be launched retires, so a worker that finds the
queue empty waits while any job is still in flight; points still queued
when no worker is left fail with the last error.  ``Engine.close`` (or
leaving a ``with Engine(...)`` block) kills the idle children; an engine
dropped without it has them killed when it is garbage collected.

Results always come back in input order, one terminal record per point:
either a response or a failure reason in the record's ``error``.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .problems import get_space, synthetic_response
from .records import EvalRecord
from .space import DesignPoint, mse_loss
from .tmm import motf_forward, refresh_tables

__all__ = [
    "EngineError",
    "AdapterProtocolError",
    "AdapterTimeoutError",
    "SimulatorBinding",
    "Engine",
    "adapter_roundtrip",
    "throughput_curve",
]

MAX_ATTEMPTS = 3


class EngineError(RuntimeError):
    pass


class AdapterProtocolError(EngineError):
    """Adapter broke the line protocol; carries the offending raw line."""


class AdapterTimeoutError(EngineError):
    pass


class _PointFailed(Exception):
    """The simulator reported a per-point failure; terminal, not retried."""


@dataclass(frozen=True)
class SimulatorBinding:
    """Which simulator to run, and how wide.

    The simulator is the adapter command when one is given, else the
    problem's built-in one.  The command is split shell-style into ``argv``
    on construction; one that does not split into a program is rejected.
    """

    problem: str
    workers: int = 1
    adapter_cmd: str | None = None
    timeout: float = 30.0
    sleep_s: float = 0.0
    argv: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.sleep_s < 0:
            raise ValueError("sleep_s must be >= 0")
        argv = ()
        if self.adapter_cmd is not None:
            try:
                argv = tuple(shlex.split(self.adapter_cmd))
            except ValueError as exc:
                raise ValueError(f"adapter_cmd {self.adapter_cmd!r}: {exc}") from None
            if not argv:
                raise ValueError(f"adapter_cmd {self.adapter_cmd!r} names no program")
        object.__setattr__(self, "argv", argv)

    @property
    def kind(self) -> str:
        if self.argv:
            return "external-adapter"
        return "internal-motf" if self.problem == "motf" else "internal-synthetic"


def _request_payload(req_id: int, problem: str, point: DesignPoint) -> str:
    xs: list = []
    for v in point.values:
        xs.append(v if isinstance(v, str) else float(v))
    return json.dumps({"id": req_id, "problem": problem, "x": xs}, separators=(",", ":"))


def _checked(y, dim: int) -> np.ndarray:
    """A reply as a float array; a wrong length or a non-finite value fails the point."""
    arr = np.asarray(y, dtype=float)
    if arr.shape != (dim,):
        raise _PointFailed(f"response has {arr.size} values, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise _PointFailed("non-finite response")
    return arr


def _finish(point: DesignPoint, y: np.ndarray, target: np.ndarray | None, trial: int) -> EvalRecord:
    loss = mse_loss(y, target if target is not None else np.zeros_like(y))
    return EvalRecord(point, y, loss, trial)


def _failed(point: DesignPoint, reason: str, trial: int) -> EvalRecord:
    return EvalRecord(point, np.zeros(0), float("inf"), trial, error=reason)


class _AdapterWorker:
    """One child process plus its buffered line reader."""

    def __init__(self, argv: tuple[str, ...], timeout: float):
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
        )
        self.timeout = timeout
        self._buf = bytearray()

    def alive(self) -> bool:
        return self.proc.poll() is None

    def close(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def _readline(self) -> bytes:
        deadline = time.monotonic() + self.timeout
        fd = self.proc.stdout.fileno()
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl])
                del self._buf[: nl + 1]
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AdapterTimeoutError(f"no response within {self.timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise AdapterTimeoutError(f"no response within {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EngineError("adapter closed its output stream")
            self._buf.extend(chunk)

    def call(self, req_id: int, payload: str) -> list[float]:
        """One request/response exchange; raises on any protocol breach."""
        try:
            self.proc.stdin.write(payload.encode() + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise EngineError(f"adapter stdin closed: {exc}") from exc
        raw = self._readline()
        try:
            msg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise AdapterProtocolError(f"bad JSON from adapter: {raw!r}") from exc
        if not isinstance(msg, dict) or msg.get("id") != req_id:
            raise AdapterProtocolError(f"response id mismatch: {raw!r}")
        if "error" in msg:
            raise _PointFailed(str(msg["error"]))
        y = msg.get("y")
        # bool is an int subclass, but true/false is not a response value
        if not isinstance(y, list) or not all(type(v) in (int, float) for v in y):
            raise AdapterProtocolError(f"response lacks numeric 'y': {raw!r}")
        return [float(v) for v in y]


def _close_all(workers: list[_AdapterWorker]) -> None:
    while workers:
        workers.pop().close()


class Engine:
    """Owns the binding and its idle adapter children.

    ``evaluate_batch`` is the single entry point.  Use the engine as a context
    manager, or call :meth:`close`, to kill its adapter children when done.
    """

    def __init__(self, binding: SimulatorBinding):
        self.binding = binding
        self.space = get_space(binding.problem)
        if binding.kind == "internal-motf":
            # brings the material tables read earlier up to date with the files on disk
            refresh_tables()
        self._next_id = 0
        self._id_lock = threading.Lock()
        # live adapter children between batches; the finalizer holds the list,
        # not the engine, so a dropped engine is still collected
        self._idle: list[_AdapterWorker] = []
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Kill the idle adapter children; a later batch spawns new ones."""
        _close_all(self._idle)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _checkout(self) -> _AdapterWorker:
        """An idle live child of this engine, or a newly spawned one."""
        while True:
            try:
                worker = self._idle.pop()
            except IndexError:
                return _AdapterWorker(self.binding.argv, self.binding.timeout)
            if worker.alive():
                return worker
            worker.close()

    def _simulate(self, point: DesignPoint) -> np.ndarray:
        if self.binding.kind == "internal-motf":
            return motf_forward(point)
        if self.binding.sleep_s > 0:
            time.sleep(self.binding.sleep_s)
        return synthetic_response(point, self.binding.problem)

    def _call(self, worker: _AdapterWorker | None, point: DesignPoint) -> np.ndarray:
        """One checked reply from the internal simulator or the worker's child.

        Raises _PointFailed for a terminal per-point failure and EngineError
        when the adapter worker is lost.
        """
        if worker is None:
            try:
                y = self._simulate(point)
            except Exception as exc:
                raise _PointFailed(f"{type(exc).__name__}: {exc}") from exc
        else:
            with self._id_lock:
                self._next_id += 1
                req_id = self._next_id
            y = worker.call(req_id, _request_payload(req_id, self.binding.problem, point))
        return _checked(y, self.space.response_dim)

    def evaluate_batch(
        self,
        points: Sequence[DesignPoint],
        target: np.ndarray | None = None,
        start_trial: int = 0,
    ) -> list[EvalRecord]:
        if target is not None:
            target = np.asarray(target, dtype=float)
            dim = self.space.response_dim
            if target.shape != (dim,):
                raise ValueError(f"target must be {dim} finite values, got shape {target.shape}")
            if not np.all(np.isfinite(target)):
                raise ValueError(f"target must be {dim} finite values, got a non-finite one")
        for p in points:
            check = self.space.validate(p)
            if not check:
                raise EngineError(f"invalid point: {'; '.join(check.violations)}")
        results: list[EvalRecord | None] = [None] * len(points)
        todo: deque[tuple[int, int]] = deque((i, 0) for i in range(len(points)))
        cond = threading.Condition()
        in_flight = 0
        lost: list[str] = []

        def take() -> tuple[int, int] | None:
            nonlocal in_flight
            with cond:
                # a job in flight elsewhere may still come back to the queue
                while not todo and in_flight:
                    cond.wait()
                if not todo:
                    return None
                in_flight += 1
                return todo.popleft()

        def run(worker: _AdapterWorker | None, i: int, attempt: int) -> bool:
            """Serve one job; False when the worker has lost its child."""
            try:
                y = self._call(worker, points[i])
            except _PointFailed as exc:
                results[i] = _failed(points[i], str(exc), start_trial + i)
                return True
            except EngineError as exc:
                reason = f"adapter worker lost: {exc}"
                lost.append(reason)
                if attempt + 1 < MAX_ATTEMPTS:
                    with cond:
                        todo.append((i, attempt + 1))
                else:
                    results[i] = _failed(points[i], reason, start_trial + i)
                return False
            results[i] = _finish(points[i], y, target, start_trial + i)
            return True

        def serve() -> None:
            # an external worker gets a child for its first job and hands it back
            # to the engine at the end; a lost child is closed and its point goes
            # back in the queue, and the next job gets a new child
            nonlocal in_flight
            external = self.binding.kind == "external-adapter"
            worker = None
            try:
                while (job := take()) is not None:
                    try:
                        if external and worker is None:
                            try:
                                worker = self._checkout()
                            except OSError as exc:
                                # not an attempt: the job waits for another worker
                                lost.append(f"adapter launch failed: {exc}")
                                with cond:
                                    todo.appendleft(job)
                                break
                        if not run(worker, *job):
                            worker.close()
                            worker = None
                    finally:
                        with cond:
                            in_flight -= 1
                            cond.notify_all()
            except BaseException:
                if worker is not None:
                    worker.close()  # it may be mid-request
                raise
            if worker is not None:
                self._idle.append(worker)

        n_threads = min(self.binding.workers, len(todo))
        if n_threads == 1:
            serve()
        elif n_threads > 1:
            threads = [threading.Thread(target=serve, daemon=True) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        unserved = "no adapter workers left"
        if lost:
            unserved += f" (last error: {lost[-1]})"
        return [
            rec if rec is not None else _failed(points[i], unserved, start_trial + i)
            for i, rec in enumerate(results)
        ]


def adapter_roundtrip(binding: SimulatorBinding, point: DesignPoint) -> EvalRecord:
    """Single-point exchange with an external adapter.

    The loss is taken against the zero response.  Protocol violations raise
    instead of producing a record.
    """
    if binding.kind != "external-adapter":
        raise ValueError("adapter_roundtrip needs an external-adapter binding")
    dim = get_space(binding.problem).response_dim
    worker = _AdapterWorker(binding.argv, binding.timeout)
    try:
        payload = _request_payload(1, binding.problem, point)
        try:
            y = _checked(worker.call(1, payload), dim)
        except _PointFailed as exc:
            # an error payload or an unusable reply is a valid per-point
            # outcome, not a protocol breach
            return _failed(point, str(exc), 0)
        return _finish(point, y, None, 0)
    finally:
        worker.close()


def throughput_curve(
    binding: SimulatorBinding,
    points: Sequence[DesignPoint],
    worker_counts: Sequence[int],
) -> list[tuple[int, float]]:
    """Wall-clock seconds to evaluate `points` at each worker count."""
    out = []
    for w in worker_counts:
        with Engine(replace(binding, workers=w)) as engine:
            t0 = time.monotonic()
            engine.evaluate_batch(points)
            out.append((w, time.monotonic() - t0))
    return out
