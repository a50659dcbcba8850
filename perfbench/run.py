#!/usr/bin/env python3
"""idkit benchmark: one workload per invocation, closed loop, outputs checked.

    python3 perfbench/run.py --workload motf-tpe --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; idkit is imported from its ``src``.
The run first times set-up (fresh interpreters importing idkit and loading
the material tables), then repeats rounds of the workload for ``--seconds``.
Round ``r`` runs the experiment at seed ``1000 * seed + r``, so the inputs are
a function of ``--seed``.  Every round's outputs are checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` each seed is run three times (traced,
untraced, traced) and the line reports the per-layer metrics instead, and the
spans are written to ``.perfbench_work/``.  Earlier lines carry machine info
and per-round details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 3
MIN_ROUNDS = 3
# never start a round that would end past this many seconds of process time
HARD_LIMIT_S = 150.0

# what every idkit invocation pays before its first evaluation
SETUP_PROBE = (
    "import idkit.cli\n"
    "from idkit.problems import MATERIALS\n"
    "from idkit.tmm import SUBSTRATE_MATERIAL, load_material\n"
    "for name in MATERIALS + (SUBSTRATE_MATERIAL,):\n"
    "    load_material(name)\n"
)

# per-layer metrics that are fixed by the inputs: taken from the first traced round
DETERMINISTIC = ("result.best_loss", "surrogate.val_mse_ratio")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def source_digest() -> str:
    """Hash of the idkit sources, so stored results only compare identical code."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "idkit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".nk")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class State:
    """Digests and work counts per (code, workload, seed), kept across runs.

    A later run at the same seed must reproduce them exactly; that is how
    results are compared between the runs of one set.
    """

    def __init__(self, path: str, prefix: str):
        self.path, self.prefix = path, prefix
        try:
            with open(path, encoding="utf-8") as fh:
                self.data = json.load(fh)
        except FileNotFoundError:
            self.data = {}

    def agree(self, seed: int, kind: str, value) -> str | None:
        """Record ``value``, or compare it with the one stored earlier."""
        entry = self.data.setdefault(f"{self.prefix}/{seed}", {})
        if kind not in entry:
            entry[kind] = value
            return None
        return None if entry[kind] == value else f"{kind} differs from an earlier run"

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, sort_keys=True)
        os.replace(tmp, self.path)


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_round(wl, seed: int, state: State, tracer=None, run_id: str = ""):
    """One timed round plus its output checks (untimed)."""
    work = fresh_dir(f"{wl.name}-{seed}")
    if tracer is None:
        rnd = wl.round(seed, work)
    else:
        with tracer, tracer.round(run_id):
            rnd = wl.round(seed, work)
    wl.check(rnd, seed)
    rnd.checks.append(("digest", state.agree(seed, "digest", rnd.digest)))
    shutil.rmtree(work, ignore_errors=True)
    rnd.outputs.clear()
    return rnd


def show(rnd, seed: int, label: str = "") -> None:
    print(f"round seed={seed}{label} wall_s={rnd.wall_s:.4f} evals={rnd.evals} "
          f"digest={rnd.digest[:16]}" + "".join(f" FAILED {c}" for c in rnd.failed_checks),
          flush=True)


def untraced(wl, args, state: State, t_start: float) -> tuple[list, dict]:
    rounds = []
    t0 = time.perf_counter()
    while True:
        seed = 1000 * args.seed + len(rounds)
        rounds.append(run_round(wl, seed, state))
        show(rounds[-1], seed)
        now = time.perf_counter()
        typical = statistics.median(r.wall_s for r in rounds)
        if now - t_start + typical > HARD_LIMIT_S:
            break
        if len(rounds) >= MIN_ROUNDS and now - t0 + typical > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "evals_per_s": statistics.median(r.evals / r.wall_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return rounds, metrics


def traced_round(wl, seed: int, state: State, tracer, tag: str):
    """A round under the tracer, its per-layer metrics, and the trace checks."""
    import spans

    run_id = f"{wl.name}-{seed}-{tag}"
    rnd = run_round(wl, seed, state, tracer, run_id)
    m = spans.round_metrics([s for s in tracer.spans if s.run == run_id])
    m.update(rnd.extras)
    epochs = rnd.extras.get("surrogate.epochs", 0)
    m["surrogate.epoch_ms"] = m["surrogate.train_forward_s"] * 1e3 / epochs if epochs else 0.0
    gap = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    gap -= m["trace.parallel_excess_s"] + m["trace.wall_s"]
    rnd.checks.append(("self times", None if abs(gap) <= 1e-6 * m["trace.wall_s"] + 1e-6
                       else f"layers leave {gap:.6f} s of the traced wall unaccounted"))
    # the exact-count self-test: every traced round at this seed, in this run
    # or an earlier one, must count the same work
    counts = {k: m[k] for k in spans.EXACT_COUNTS}
    rnd.checks.append(("exact counts", state.agree(seed, "counts", counts)))
    show(rnd, seed, " traced")
    return rnd, m


def traced(wl, args, state: State, t_start: float) -> tuple[list, dict]:
    import spans

    tracer = spans.Tracer()
    rounds, per_round, overheads = [], [], []
    t0 = time.perf_counter()
    while True:
        seed = 1000 * args.seed + len(overheads)
        a, m_a = traced_round(wl, seed, state, tracer, "a")
        # the untraced round sits between the traced ones, so a drift in
        # machine speed does not pass for tracing overhead
        plain = run_round(wl, seed, state)
        show(plain, seed)
        b, m_b = traced_round(wl, seed, state, tracer, "b")
        rounds += [a, plain, b]
        per_round += [m_a, m_b]
        overheads.append((a.wall_s + b.wall_s) / 2 - plain.wall_s)
        now = time.perf_counter()
        typical = 3 * plain.wall_s
        if now - t_start + typical > HARD_LIMIT_S or now - t0 + typical > args.seconds:
            break
    tracer.dump(os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.jsonl"))
    first = per_round[0]
    metrics = {}
    for name in first:
        if name in spans.EXACT_COUNTS or name in DETERMINISTIC:
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(m[name] for m in per_round)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "idkit", "__init__.py")):
        print(f"no idkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2

    # one process; BLAS gets at most one thread per core, and adapter
    # children import the same checkout
    nproc = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    sys.path.insert(0, SRC)

    import workloads
    from idkit.problems import MATERIALS
    from idkit.tmm import SUBSTRATE_MATERIAL, load_material

    for name in MATERIALS + (SUBSTRATE_MATERIAL,):
        load_material(name)
    print("machine " + json.dumps(machine_info(), sort_keys=True), flush=True)

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    state = State(os.path.join(WORK, "state.json"),
                  f"{source_digest()[:16]}/{wl.name}/{wl.config()}")
    if args.trace:
        rounds, metrics = traced(wl, args, state, t_start)
        wanted = bench["per_layer"]
    else:
        setup = measure_setup()
        rounds, metrics = untraced(wl, args, state, t_start)
        metrics["setup_s"] = statistics.median(setup)
        wanted = bench["end_to_end"]
    state.save()

    failed_checks = sum(len(r.failed_checks) for r in rounds)
    failed_evals = sum(r.failed_evals for r in rounds)
    attempted = sum(r.evals + len(r.checks) for r in rounds)
    failed = failed_evals + failed_checks
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
