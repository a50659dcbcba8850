"""End-to-end acceptance suite: ten criteria, one test (and one summary line) each.

Each criterion states its own tolerance or threshold inline.  Everything is
seeded, so a pass here is a deterministic property of the code, not a lucky
draw.  The terminal summary (see conftest) prints one PASS/FAIL line per
criterion.
"""

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from idkit import harness as H
from idkit import surrogate as sg
from idkit.cli import main as cli_main
from idkit.engine import (
    AdapterProtocolError,
    AdapterTimeoutError,
    Engine,
    SimulatorBinding,
    adapter_roundtrip,
    throughput_curve,
)
from idkit.optimizers import make_optimizer
from idkit.problems import MATERIALS, get_space
from idkit.records import EvalRecord
from idkit.shapes import (
    bspline_closed,
    check_single_connected,
    subcell_rasters,
)
from idkit.space import (
    Categorical,
    ConditionalContinuous,
    Continuous,
    DesignSpace,
    ParamSpec,
    mse_loss,
)
from idkit.tmm import LayerStack, default_grid, stack_spectrum

FIXTURE = os.path.join(os.path.dirname(__file__), "fixture_adapter.py")
ECHO_CMD = f"{sys.executable} -m idkit.adapters"


# -- shared drivers -----------------------------------------------------------------


def drive(kind, budget, seed, space, loss_fn, config=None):
    """Serial ask/tell loop on a scalar objective; returns (best_loss, best_point)."""
    session = make_optimizer(kind, space, config or {}, seed)
    best = (math.inf, None)
    trial = 0
    while trial < budget:
        points = session.ask(1)
        records = []
        for i, p in enumerate(points):
            loss = float(loss_fn(space, p))
            records.append(EvalRecord(point=p, response=(0.0,), loss=loss, trial=trial + i))
            if loss < best[0]:
                best = (loss, p)
        session.tell(records)
        trial += len(records)
    return best


SPHERE5 = DesignSpace(
    "sphere5",
    tuple(ParamSpec(f"x{i}", Continuous(0.0, 1.0)) for i in range(5)),
    response_dim=1,
)
SPHERE_CENTER = np.array([0.15, 0.35, 0.55, 0.75, 0.95])


def sphere_loss(space, point):
    return float(np.sum((space.normalize(point) - SPHERE_CENTER) ** 2))


@pytest.fixture(scope="module")
def film_runs(tmp_path_factory):
    """TPE and RS on the film problem: budget 1000, 5 seeds, IID targets."""
    out = tmp_path_factory.mktemp("film_runs")
    reports = {}
    for algo in ("tpe", "rs"):
        spec = H.ExperimentSpec(problem="motf", algo=algo, budget=1000,
                                seeds=(0, 1, 2, 3, 4), target="iid",
                                out_dir=str(out / algo))
        reports[algo] = H.run_experiment(spec)
    return reports, out


# -- criteria -----------------------------------------------------------------------


def test_c01_thin_film_physics_oracles():
    """Fresnel, quarter-wave, energy conservation, and zero-thickness oracles."""
    grid = default_grid()

    # bare n=1.5 substrate: R = ((1.5-1)/(1.5+1))^2 = 0.04, to 1e-12 everywhere
    bare = stack_spectrum(LayerStack((), 1.5), grid)
    assert np.max(np.abs(bare.reflectance - 0.04)) <= 1e-12

    # quarter-wave antireflection layer kills R at the design wavelength (1e-10)
    n1 = math.sqrt(1.5)
    qw = stack_spectrum(LayerStack(((n1, 1000.0 / (4.0 * n1)),), 1.5), [1.0])
    assert qw.reflectance[0] <= 1e-10

    # lossless stack conserves energy on all 2001 grid points (1e-10)
    lossless = stack_spectrum(
        LayerStack(((1.38, 110.0), (2.35, 90.0), (1.46, 200.0)), 1.5), grid
    )
    assert np.max(np.abs(lossless.reflectance + lossless.transmittance - 1.0)) <= 1e-10

    # zero-thickness layers are inert (1e-12)
    base = LayerStack(((1.38, 120.0), (2.35, 80.0)), 1.5)
    padded = LayerStack(((1.38, 120.0), (1.9, 0.0), (2.35, 80.0), (3.1, 0.0)), 1.5)
    a, b = stack_spectrum(base, grid), stack_spectrum(padded, grid)
    assert np.max(np.abs(a.reflectance - b.reflectance)) <= 1e-12
    assert np.max(np.abs(a.transmittance - b.transmittance)) <= 1e-12


def test_c02_problem_space_conformance():
    """Spaces expose the exact dimensions, bounds, and one-hot widths."""
    motf = get_space("motf")
    assert motf.dim == 20 and motf.response_dim == 2001
    for i in range(10):
        kind = motf.params[i].kind
        assert isinstance(kind, Categorical) and kind.choices == MATERIALS
        assert len(kind.choices) == 7
    for i in range(10, 20):
        kind = motf.params[i].kind
        assert isinstance(kind, Continuous) and (kind.lo, kind.hi) == (0.0, 1.0)
    rng = np.random.default_rng(0)
    assert len(motf.encode_onehot(motf.sample_uniform(rng))) == 80

    tpv = get_space("tpv")
    assert tpv.dim == 19 and tpv.response_dim == 500
    k0, k1, k2 = (tpv.params[i].kind for i in range(3))
    assert (k0.lo, k0.hi) == (350.0, 500.0)
    assert (k1.lo, k1.hi) == (30.0, 130.0)
    assert (k2.lo, k2.hi) == (10.0, 80.0)
    for i in range(3, 19):
        kind = tpv.params[i].kind
        assert isinstance(kind, ConditionalContinuous)
        assert kind.lo == 40.0 and kind.hi_ref == "x0" and kind.hi_scale == 0.5

    scf = get_space("scf")
    assert scf.dim == 18 and scf.response_dim == 3
    s0, s1 = scf.params[0].kind, scf.params[1].kind
    assert (s0.lo, s0.hi) == (150.0, 350.0)
    assert (s1.lo, s1.hi) == (100.0, 500.0)
    for i in range(2, 18):
        kind = scf.params[i].kind
        assert isinstance(kind, ConditionalContinuous)
        assert kind.lo == 40.0 and kind.hi_ref == "x0" and kind.hi_scale == 0.5


def _quadrant(grid, q):
    h = grid.shape[0] // 2
    r0, c0 = ((0, 0), (0, h), (h, 0), (h, h))[q]
    return grid[r0 : r0 + h, c0 : c0 + h]


def test_c03_geometry_properties_bulk():
    """10^3 random points per metasurface problem; spline identities to 1e-12."""
    resolution = 128
    rng = np.random.default_rng(2024)
    for problem, offset, mirror in (("tpv", 3, True), ("scf", 2, False)):
        space = get_space(problem)
        for _ in range(1000):
            pt = space.sample_uniform(rng)
            cell = float(pt[0])
            radii = [float(v) for v in pt.values[offset : offset + 16]]
            subs = subcell_rasters(cell, radii, resolution=resolution)
            occupancy = sum(g.astype(np.uint8) for g in subs)
            assert occupancy.max() == 1  # sub-cells never overlap
            for q, g in enumerate(subs):
                assert check_single_connected(g)
                if mirror:
                    quad = _quadrant(g, q)
                    assert np.array_equal(quad, np.fliplr(quad))
                    assert np.array_equal(quad, np.flipud(quad))

    # B-spline convex hull and scale equivariance at 1e-12
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(4, 12))
        ctrl = rng.uniform(-1.0, 1.0, (m, 2))
        curve = bspline_closed(ctrl, 8 * m)
        hull = ConvexHull(ctrl)
        margins = curve @ hull.equations[:, :2].T + hull.equations[:, 2]
        assert float(margins.max()) <= 1e-12  # every curve point inside the hull
        s = 2.375
        assert np.max(np.abs(bspline_closed(s * ctrl, 8 * m) - s * curve)) <= 1e-12


def test_c04_optimizer_regressions():
    """Fixed-config regressions over 20 seeds each."""
    seeds = range(20)

    # 5-D sphere: ES reaches 1e-3 by 2000 evaluations (median)
    es_finals = [drive("es", 2000, s, SPHERE5, sphere_loss)[0] for s in seeds]
    assert float(np.median(es_finals)) <= 1e-3

    # model-based methods beat random search at 500 evaluations (median)
    rs_finals = [drive("rs", 500, s, SPHERE5, sphere_loss)[0] for s in seeds]
    tpe_finals = [drive("tpe", 500, s, SPHERE5, sphere_loss)[0] for s in seeds]
    bo_finals = [drive("bo", 500, s, SPHERE5, sphere_loss)[0] for s in seeds]
    assert float(np.median(tpe_finals)) <= float(np.median(rs_finals))
    assert float(np.median(bo_finals)) <= float(np.median(rs_finals))

    # Branin: BO lands within 0.5 of the analytic optimum in >= 16/20 seeds
    branin_space = DesignSpace(
        "branin",
        (ParamSpec("x1", Continuous(-5.0, 10.0)), ParamSpec("x2", Continuous(0.0, 15.0))),
        response_dim=1,
    )

    def branin(space, pt):
        x1, x2 = float(pt[0]), float(pt[1])
        b, c = 5.1 / (4.0 * math.pi**2), 5.0 / math.pi
        t = 1.0 / (8.0 * math.pi)
        return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0

    hits = sum(
        drive("bo", 150, s, branin_space, branin)[0] <= 0.397887 + 0.5 for s in seeds
    )
    assert hits >= 16

    # mixed categorical toy: TPE identifies the better category in >= 18/20 seeds
    mixed = DesignSpace(
        "mixed_toy",
        (ParamSpec("kind", Categorical(("A", "B"))), ParamSpec("x", Continuous(0.0, 1.0))),
        response_dim=1,
    )

    def mixed_loss(space, pt):
        return (float(pt[1]) - 0.3) ** 2 + (0.0 if pt[0] == "A" else 0.3)

    wins = sum(drive("tpe", 60, s, mixed, mixed_loss)[1][0] == "A" for s in seeds)
    assert wins >= 18


def test_c05_surrogate_gradients_and_tandem():
    """Analytic input gradients to 1e-4 of finite differences; tandem beats inverse."""
    model = sg.DenseNet.init((6, 32, 32, 4), seed=5)
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 100:
        x = rng.uniform(0.0, 1.0, 6)
        # central differences are only trustworthy away from rectifier kinks
        _, _, zs = model._forward_cache(x.reshape(1, -1))
        if not all(np.min(np.abs(z)) > 1e-3 for z in zs[:-1]):
            continue
        y = rng.standard_normal(4)
        g = sg.grad_input(model, x, y)
        fd = np.empty_like(x)
        h = 1e-5
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (
                mse_loss(model.forward(xp.reshape(1, -1))[0], y)
                - mse_loss(model.forward(xm.reshape(1, -1))[0], y)
            ) / (2.0 * h)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        assert np.max(rel) <= 1e-4
        checked += 1

    # two-branch task y = x^2: the direct inverse averages the branches, the
    # tandem's re-simulated error is at most a tenth of the inverse model's
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (3000, 1))
    enc, ys = (x + 1.0) / 2.0, x**2
    cfg = sg.TrainConfig(epochs=120, lr=0.02, momentum=0.9, hidden=(64, 64))
    fwd, _ = sg.train_forward(enc, ys, cfg)
    inv, _ = sg.train_inverse(enc, ys, cfg)
    tnd, _ = sg.train_tandem(fwd, ys, cfg)
    targets = np.full((64, 1), 0.81)
    decoded = 2.0 * inv.forward(targets) - 1.0
    assert np.max(np.abs(decoded)) <= 0.2  # mean collapse: far from either sqrt(0.81)
    x_inv = 2.0 * np.clip(inv.forward(targets), 0.0, 1.0) - 1.0
    x_tnd = 2.0 * np.clip(tnd.forward(targets), 0.0, 1.0) - 1.0
    err_inv = float(np.mean((x_inv**2 - 0.81) ** 2))
    err_tnd = float(np.mean((x_tnd**2 - 0.81) ** 2))
    assert err_tnd <= 0.1 * err_inv


def test_c06_film_end_to_end_ordering(film_runs):
    """TPE mean final loss <= RS mean final loss; artifacts byte-deterministic."""
    reports, out = film_runs
    tpe_mean = float(np.mean(reports["tpe"].final_losses()))
    rs_mean = float(np.mean(reports["rs"].final_losses()))
    assert len(reports["tpe"].curves) == 5
    assert all(len(c) == 1000 for c in reports["tpe"].curves)
    assert tpe_mean <= rs_mean

    combined = [reports["tpe"], reports["rs"]]
    csv_path, svg_path = H.emit_report(combined, str(out / "combined"))
    digest = lambda p: hashlib.sha256(open(p, "rb").read()).hexdigest()
    first = (digest(csv_path), digest(svg_path))
    H.emit_report(combined, str(out / "combined"))
    assert (digest(csv_path), digest(svg_path)) == first
    rows = open(csv_path).read().splitlines()
    assert rows[0] == "algo,trial,mean,lo,hi"
    assert len(rows) == 1 + 2 * 1000


def test_c07_warm_start_never_worse(film_runs, tmp_path):
    """Warm-starting TPE with the 100 best dataset records never hurts (mean of 5 seeds)."""
    reports, _ = film_runs
    cold_mean = float(np.mean(reports["tpe"].final_losses()))
    ds = str(tmp_path / "film_train.jsonl")
    H.generate_dataset("motf", 1000, seed=777, path=ds)
    warm = H.run_experiment(
        H.ExperimentSpec(problem="motf", algo="tpe", budget=1000,
                         seeds=(0, 1, 2, 3, 4), target="iid",
                         warm_start_k=100, dataset_path=ds)
    )
    assert all(len(c) == 1000 for c in warm.curves)  # warm records cost no budget
    warm_mean = float(np.mean(warm.final_losses()))
    assert warm_mean <= cold_mean


def test_c08_engine_parallel_semantics(tmp_path):
    """Ordering, bitwise worker independence, 4x sleep throughput, exactly-once."""
    space = get_space("motf")
    rng = np.random.default_rng(3)
    points = [space.sample_uniform(rng) for _ in range(12)]

    # order preservation and bitwise independence from the worker count
    solo = Engine(SimulatorBinding(problem="motf")).evaluate_batch(points)
    wide = Engine(SimulatorBinding(problem="motf", workers=8)).evaluate_batch(points)
    for i, (a, b) in enumerate(zip(solo, wide)):
        assert a.point.values == points[i].values == b.point.values
        assert a.trial == b.trial == i
        assert a.loss == b.loss
        assert np.array_equal(a.response_array(), b.response_array())

    # >= 4x throughput at 16 workers on the sleep simulator
    scf = get_space("scf")
    rng = np.random.default_rng(4)
    sleepers = [scf.sample_uniform(rng) for _ in range(48)]
    binding = SimulatorBinding(problem="scf", sleep_s=0.05)
    (_, t1), (_, t16) = throughput_curve(binding, sleepers, (1, 16))
    assert t1 / t16 >= 4.0

    # exactly-once records under an injected worker kill
    marker = str(tmp_path / "killed.marker")
    cmd = f"{sys.executable} {FIXTURE} crash-once {marker}"
    binding = SimulatorBinding(problem="scf",
                               adapter_cmd=cmd, workers=3, timeout=15.0)
    rng = np.random.default_rng(5)
    pts = [scf.sample_uniform(rng) for _ in range(12)]
    records = Engine(binding).evaluate_batch(pts)
    assert os.path.exists(marker)  # one worker really died mid-run
    assert len(records) == 12
    for i, rec in enumerate(records):
        assert rec.trial == i and rec.point.values == pts[i].values
        assert not rec.failed
        expect = [float(v) for v in pts[i].values[:3]]
        assert list(rec.response_array()) == expect


def test_c09_reproducibility(tmp_path, monkeypatch):
    """gen-data and run produce byte-identical datasets and equal report hashes."""
    monkeypatch.chdir(tmp_path)
    for problem, n in (("motf", 120), ("scf", 300)):
        a, b = f"{problem}_a.jsonl", f"{problem}_b.jsonl"
        assert cli_main(["gen-data", "--problem", problem, "--n", str(n),
                         "--seed", "11", "--out", a]) == 0
        assert cli_main(["gen-data", "--problem", problem, "--n", str(n),
                         "--seed", "11", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    hashes = []
    for out in ("run_a", "run_b"):
        assert cli_main(["run", "--problem", "scf", "--algo", "tpe",
                         "--budget", "40", "--seeds", "2", "--seed", "0",
                         "--out", out]) == 0
        with open(os.path.join(out, "report.json")) as fh:
            hashes.append(json.load(fh)["report_hash"])
    assert hashes[0] == hashes[1]
    rec_a = open("run_a/records_seed0.jsonl", "rb").read()
    rec_b = open("run_b/records_seed0.jsonl", "rb").read()
    assert rec_a == rec_b


def test_c10_adapter_conformance():
    """1000 clean echo round-trips; fault fixtures raise their own error classes."""
    scf = get_space("scf")
    rng = np.random.default_rng(6)
    points = [scf.sample_uniform(rng) for _ in range(1000)]
    binding = SimulatorBinding(problem="scf",
                               adapter_cmd=ECHO_CMD, workers=8, timeout=30.0)
    records = Engine(binding).evaluate_batch(points)
    assert len(records) == 1000
    assert sum(r.failed for r in records) == 0
    for i in (0, 499, 999):
        expect = [float(v) for v in points[i].values[:3]]
        assert list(records[i].response_array()) == expect

    one = scf.sample_uniform(rng)
    wrong_id = SimulatorBinding(problem="scf",
                                adapter_cmd=f"{sys.executable} {FIXTURE} wrong-id",
                                timeout=10.0)
    with pytest.raises(AdapterProtocolError):
        adapter_roundtrip(wrong_id, one)

    garbage = SimulatorBinding(problem="scf",
                               adapter_cmd=f"{sys.executable} {FIXTURE} garbage",
                               timeout=10.0)
    with pytest.raises(AdapterProtocolError):
        adapter_roundtrip(garbage, one)

    slow = SimulatorBinding(problem="scf",
                            adapter_cmd=f"{sys.executable} {FIXTURE} sleep 30",
                            timeout=0.5)
    with pytest.raises(AdapterTimeoutError):
        adapter_roundtrip(slow, one)
