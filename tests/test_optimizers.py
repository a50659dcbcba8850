"""Ask/tell protocol, per-kind update rules, and cheap behavioral oracles."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from idkit.optimizers import (
    OPTIMIZER_KINDS,
    ProtocolError,
    make_optimizer,
    warm_start,
)
from idkit.optimizers.bo import GaussianProcess
from idkit.problems import get_space
from idkit.records import EvalRecord
from idkit.space import Categorical, DesignSpace, ParamSpec

CHEAP_KINDS = ("rs", "es", "tpe", "sracos")


def unit_loss(space, point, center=0.3):
    u = space.normalize(point)
    return float(np.sum((u - center) ** 2))


def run_session(kind, space, seed, steps, batch=1):
    """Drive a session with the deterministic unit-box loss; returns ask history."""
    session = make_optimizer(kind, space, seed=seed)
    asked = []
    trial = 0
    for _ in range(steps):
        pts = session.ask(batch)
        asked.extend(pts)
        recs = []
        for pt in pts:
            recs.append(EvalRecord(pt, (), unit_loss(space, pt), trial))
            trial += 1
        session.tell(recs)
    return session, asked


class TestRegistry:
    def test_all_kinds_constructible(self):
        assert OPTIMIZER_KINDS == ("bo", "es", "rs", "sracos", "tpe")
        space = get_space("scf")
        for kind in OPTIMIZER_KINDS:
            session = make_optimizer(kind, space, seed=0)
            assert session.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("annealing", get_space("scf"))

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            make_optimizer("es", get_space("scf"), config={"mystery": 1})


class TestProtocol:
    def test_random_search_asks_are_uniform_draws(self):
        space = get_space("motf")
        session = make_optimizer("rs", space, seed=7)
        got = session.ask(5)
        rng = np.random.default_rng(7)
        want = [space.sample_uniform(rng) for _ in range(5)]
        assert [p.values for p in got] == [p.values for p in want]

    @pytest.mark.parametrize("kind", ("es", "bo"))
    def test_serial_kinds_refuse_overlapping_asks(self, kind):
        session = make_optimizer(kind, get_space("scf"), seed=0)
        session.ask(1)
        with pytest.raises(ProtocolError, match="outstanding"):
            session.ask(1)

    def test_batch_kinds_allow_overlapping_asks(self):
        session = make_optimizer("tpe", get_space("scf"), seed=0)
        session.ask(2)
        session.ask(2)

    def test_tell_of_unknown_point_rejected(self):
        space = get_space("scf")
        session = make_optimizer("rs", space, seed=0)
        session.ask(1)
        stranger = space.sample_uniform(np.random.default_rng(99))
        with pytest.raises(ProtocolError, match="does not match"):
            session.tell([EvalRecord(stranger, (), 1.0, 0)])

    def test_nonpositive_batch_rejected(self):
        session = make_optimizer("rs", get_space("scf"), seed=0)
        with pytest.raises(ProtocolError):
            session.ask(0)

    @pytest.mark.parametrize("kind", CHEAP_KINDS)
    @pytest.mark.parametrize("problem", ("motf", "tpv", "scf"))
    def test_proposals_always_validate(self, kind, problem):
        space = get_space(problem)
        session, asked = run_session(kind, space, seed=3, steps=60)
        assert len(asked) == 60
        for pt in asked:
            assert space.validate(pt).ok

    def test_bo_proposals_always_validate(self):
        space = get_space("scf")
        session, asked = run_session("bo", space, seed=3, steps=25)
        for pt in asked:
            assert space.validate(pt).ok

    @pytest.mark.parametrize("kind", CHEAP_KINDS)
    def test_ask_sequence_deterministic(self, kind):
        space = get_space("tpv")
        _, a = run_session(kind, space, seed=11, steps=25)
        _, b = run_session(kind, space, seed=11, steps=25)
        assert [p.values for p in a] == [p.values for p in b]

    def test_bo_ask_sequence_deterministic(self):
        space = get_space("scf")
        _, a = run_session("bo", space, seed=11, steps=12)
        _, b = run_session("bo", space, seed=11, steps=12)
        assert [p.values for p in a] == [p.values for p in b]


class TestEvolutionStrategy:
    def test_worse_child_keeps_incumbent_and_shrinks_sigma(self):
        space = get_space("tpv")
        session = make_optimizer("es", space, seed=1)
        first = session.ask(1)[0]
        session.tell([EvalRecord(first, (), 1.0, 0)])
        assert session.sigma == pytest.approx(0.3)
        incumbent = session.incumbent_u.copy()
        sigma = session.sigma
        for t in range(10):
            pt = session.ask(1)[0]
            session.tell([EvalRecord(pt, (), 5.0, t + 1)])
            sigma *= 0.82
        assert session.sigma == pytest.approx(sigma, rel=1e-12)
        assert session.sigma == pytest.approx(0.3 * 0.82**10, rel=1e-9)
        assert np.array_equal(session.incumbent_u, incumbent)

    def test_better_child_replaces_incumbent_and_grows_sigma(self):
        space = get_space("tpv")
        session = make_optimizer("es", space, seed=1)
        first = session.ask(1)[0]
        session.tell([EvalRecord(first, (), 1.0, 0)])
        pt = session.ask(1)[0]
        session.tell([EvalRecord(pt, (), 0.5, 1)])
        assert session.incumbent_loss == 0.5
        assert session.sigma == pytest.approx(0.3 * 1.22)

    def test_warm_start_installs_best_as_incumbent(self):
        space = get_space("tpv")
        rng = np.random.default_rng(2)
        dataset = [
            EvalRecord(space.sample_uniform(rng), (), float(loss), i)
            for i, loss in enumerate([4.0, 0.25, 2.0, 7.0])
        ]
        session = make_optimizer("es", space, seed=0)
        warm_start(session, dataset, top_k=4)
        assert session.incumbent_loss == 0.25
        assert np.array_equal(
            session.incumbent_u, space.normalize(dataset[1].point)
        )


class TestWarmStart:
    def test_selects_lowest_losses(self):
        space = get_space("scf")
        rng = np.random.default_rng(3)
        dataset = [
            EvalRecord(space.sample_uniform(rng), (), float(9 - i), i) for i in range(10)
        ]
        session = make_optimizer("tpe", space, seed=0)
        warm_start(session, dataset, top_k=3)
        assert sorted(loss for _, loss in session.history) == [0.0, 1.0, 2.0]

    def test_zero_k_leaves_session_cold(self):
        space = get_space("scf")
        rng = np.random.default_rng(4)
        dataset = [EvalRecord(space.sample_uniform(rng), (), 1.0, 0)]
        a = make_optimizer("tpe", space, seed=9)
        warm_start(a, dataset, top_k=0)
        b = make_optimizer("tpe", space, seed=9)
        assert [p.values for p in a.ask(5)] == [p.values for p in b.ask(5)]

    def test_consumes_no_proposals(self):
        space = get_space("scf")
        rng = np.random.default_rng(5)
        dataset = [EvalRecord(space.sample_uniform(rng), (), 1.0, 0)]
        session = make_optimizer("rs", space, seed=0)
        warm_start(session, dataset, top_k=1)
        assert session._pending == []
        assert len(session.history) == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            warm_start(make_optimizer("rs", get_space("scf"), seed=0), [], top_k=-1)


class TestTreeParzen:
    def test_learns_the_winning_category(self):
        space = DesignSpace(
            "toy", [ParamSpec("c", Categorical(("A", "B")))], response_dim=1
        )
        session = make_optimizer("tpe", space, seed=0)
        for t in range(30):
            pt = session.ask(1)[0]
            session.tell([EvalRecord(pt, (), 0.0 if pt[0] == "A" else 1.0, t)])
        picks = session.ask(20)
        n_a = sum(1 for p in picks if p[0] == "A")
        assert n_a >= 18


class TestSracos:
    def test_positive_never_worse_than_negatives(self):
        space = get_space("scf")
        session, _ = run_session("sracos", space, seed=6, steps=40)
        pos_loss = session.positive[1]
        assert all(pos_loss <= loss for _, loss in session.negatives)
        assert len(session.negatives) <= session.config["neg_capacity"]


class TestBayesOpt:
    def test_gp_interpolates_training_points(self):
        space = get_space("scf")
        rng = np.random.default_rng(0)
        pts = [space.sample_uniform(rng) for _ in range(3)]
        losses = [unit_loss(space, pt) for pt in pts]
        x = space.encode_units(np.array([space.normalize(pt) for pt in pts]))
        gp = GaussianProcess(space.onehot_length, noise=1e-8)
        gp.set_data(x, np.array(losses))
        gp.refit()
        mean, var = gp.posterior_raw(x)
        assert mean == pytest.approx(losses, abs=1e-6)
        assert np.all(var >= 0.0)

    def test_failed_points_do_not_end_the_startup(self):
        space = get_space("scf")
        session = make_optimizer("bo", space, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in range(8):
                (pt,) = session.ask(1)
                assert space.validate(pt).ok
                failed = EvalRecord(pt, (), float("inf"), t, error="solver failed")
                session.tell([failed])


# prints the thread count of the OpenBLAS library numpy loads after idkit
BLAS_THREADS = """
import ctypes
import idkit
import numpy
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
for lib in sorted(libs):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            print(fn())
            raise SystemExit
"""


def test_importing_idkit_first_gives_one_blas_thread():
    # BO's Cholesky retries, and so its proposals, depend on the thread count
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


# which scipy modules `import idkit.cli` loads, then whether a BO session
# still gets its own on first use
LAZY_SCIPY = """
import sys
import idkit.cli
print(*[m for m in ("scipy.optimize", "scipy.linalg", "scipy.special") if m in sys.modules])
from idkit.optimizers import make_optimizer
from idkit.problems import get_space
make_optimizer("bo", get_space("scf"), seed=0).ask(1)
print("scipy.optimize" in sys.modules, "scipy.linalg" in sys.modules)
"""


def test_importing_the_cli_loads_no_optimizer_scipy():
    proc = subprocess.run([sys.executable, "-c", LAZY_SCIPY],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "True True"]
