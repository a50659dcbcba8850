"""Batch evaluation engine: ordering, worker pools, adapters."""

import gc
import os
import re
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from idkit.engine import (
    AdapterProtocolError,
    AdapterTimeoutError,
    Engine,
    MAX_ATTEMPTS,
    EngineError,
    SimulatorBinding,
    adapter_roundtrip,
    throughput_curve,
)
from idkit.problems import get_space, synthetic_response
from idkit.space import DesignPoint, mse_loss
from idkit.tmm import _data_dir, motf_forward

FIXTURE = os.path.join(os.path.dirname(__file__), "fixture_adapter.py")
ECHO_CMD = f"{sys.executable} -m idkit.adapters"


def fixture_cmd(*args) -> str:
    return " ".join([sys.executable, FIXTURE, *map(str, args)])


def sample_points(problem, n, seed=0):
    space = get_space(problem)
    rng = np.random.default_rng(seed)
    return [space.sample_uniform(rng) for _ in range(n)]


def external_binding(problem="scf", cmd=ECHO_CMD, **kw):
    kw.setdefault("timeout", 20.0)
    return SimulatorBinding(problem=problem, adapter_cmd=cmd, **kw)


def fixture_pids(pid_dir) -> list[int]:
    """Pids of the fixture adapters started with FIXTURE_PID_DIR=pid_dir."""
    return [int(name) for name in os.listdir(pid_dir)]


def assert_gone(pids) -> None:
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestBinding:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SimulatorBinding(problem="motf", workers=0)

    @pytest.mark.parametrize(
        "kw",
        [{"timeout": 0}, {"timeout": -1.0}, {"timeout": float("nan")}, {"sleep_s": -0.1},
         {"adapter_cmd": 'python -m "idkit.adapters'}, {"adapter_cmd": "   "}],
    )
    def test_rejects_bad_timeout_and_sleep(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            SimulatorBinding(problem="scf", **kw)

    def test_simulator_follows_problem_and_adapter(self):
        assert SimulatorBinding("motf").kind == "internal-motf"
        assert SimulatorBinding("scf").kind == "internal-synthetic"
        assert SimulatorBinding("tpv").kind == "internal-synthetic"
        for problem in ("motf", "tpv", "scf"):
            assert SimulatorBinding(problem, adapter_cmd=ECHO_CMD).kind == "external-adapter"


class TestInternal:
    def test_results_in_input_order_and_match_direct_sim(self):
        pts = sample_points("motf", 8)
        target = np.linspace(0.0, 1.0, 2001)
        binding = SimulatorBinding(problem="motf", workers=4)
        recs = Engine(binding).evaluate_batch(pts, target=target)
        assert [r.trial for r in recs] == list(range(8))
        for p, r in zip(pts, recs):
            y = motf_forward(p)
            assert np.array_equal(r.response, y)
            assert r.loss == mse_loss(y, target)
            assert r.point == p

    def test_worker_count_does_not_change_results(self):
        pts = sample_points("motf", 6, seed=3)
        runs = []
        for w in (1, 8):
            binding = SimulatorBinding(problem="motf", workers=w)
            runs.append(Engine(binding).evaluate_batch(pts))
        for a, b in zip(*runs):
            assert np.array_equal(a.response, b.response)
            assert a.loss == b.loss

    def test_without_cache_duplicates_are_simulated(self):
        pts = sample_points("scf", 2, seed=2)
        binding = SimulatorBinding(problem="scf", workers=2)
        recs = Engine(binding).evaluate_batch(pts + [pts[0]])
        assert not any(r.failed for r in recs)
        assert np.array_equal(recs[0].response, recs[2].response)

    def test_many_threads_simulate_each_point_once(self, monkeypatch):
        import idkit.engine

        pts = sample_points("scf", 60, seed=71)
        # equal copies of every other point, told apart from theirs by identity
        batch = pts + [DesignPoint(p.values) for p in pts[::2]]
        entry = {id(p): i for i, p in enumerate(batch)}
        calls = [0] * len(batch)
        lock = threading.Lock()

        def counted(point, problem):
            with lock:
                calls[entry[id(point)]] += 1
            return synthetic_response(point, problem)

        monkeypatch.setattr(idkit.engine, "synthetic_response", counted)
        binding = SimulatorBinding(problem="scf", workers=16)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            recs = Engine(binding).evaluate_batch(batch)
        finally:
            sys.setswitchinterval(old)
        assert [r.trial for r in recs] == list(range(90))
        assert not any(r.failed for r in recs)
        assert calls == [1] * 90

    def test_non_finite_internal_response_fails_the_point(self, monkeypatch):
        import idkit.engine

        monkeypatch.setattr(idkit.engine, "synthetic_response", lambda p, problem: np.full(3, np.nan))
        binding = SimulatorBinding(problem="scf")
        recs = Engine(binding).evaluate_batch(sample_points("scf", 2, seed=53))
        assert all(r.error == "non-finite response" for r in recs)

    def test_rejects_invalid_point(self):
        space = get_space("scf")
        good = sample_points("scf", 1)[0]
        bad = DesignPoint((-1.0,) + good.values[1:])
        binding = SimulatorBinding(problem="scf")
        with pytest.raises(EngineError):
            Engine(binding).evaluate_batch([bad])
        assert space.validate(good).ok

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "target, got",
        [(np.zeros(5), "shape (5,)"), ([0.3, np.nan, 0.5], "a non-finite one")],
        ids=["width-5", "nan"],
    )
    def test_bad_target_raises_before_simulating(self, workers, target, got, monkeypatch, capfd):
        import idkit.engine

        calls = []
        monkeypatch.setattr(idkit.engine, "synthetic_response", lambda p, problem: calls.append(p))
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        engine = Engine(SimulatorBinding(problem="scf", workers=workers))
        with pytest.raises(ValueError, match=rf"target must be 3 finite values, got {re.escape(got)}"):
            engine.evaluate_batch(sample_points("scf", 4, seed=9), target=target)
        assert calls == [] and hooked == []
        assert capfd.readouterr().err == ""

    def test_sleep_simulator_scales_with_workers(self):
        pts = sample_points("scf", 32, seed=7)
        binding = SimulatorBinding(
            problem="scf", workers=1, sleep_s=0.05
        )
        curve = throughput_curve(binding, pts, [1, 8])
        assert [w for w, _ in curve] == [1, 8]
        t1 = dict(curve)[1]
        t8 = dict(curve)[8]
        assert t1 / t8 >= 4.0

    def test_motf_engine_solves_with_tables_edited_in_place(self, tmp_path, monkeypatch):
        tables = tmp_path / "tables"
        shutil.copytree(_data_dir(), tables)
        monkeypatch.setenv("IDKIT_DATA_DIR", str(tables))
        binding = SimulatorBinding(problem="motf")
        pts = sample_points("motf", 1, seed=89)
        first = Engine(binding).evaluate_batch(pts)[0]
        for name in os.listdir(tables):
            rows = np.loadtxt(tables / name)
            rows[:, 1] *= 1.1
            np.savetxt(tables / name, rows, fmt="%.9e")
        rec = Engine(binding).evaluate_batch(pts)[0]
        # simulated with the edited tables, not with those read before the edit
        assert not np.array_equal(rec.response, first.response)
        assert np.array_equal(rec.response, motf_forward(pts[0]))

    def test_malformed_table_row_fails_the_point_naming_file_and_line(self, tmp_path, monkeypatch):
        tables = tmp_path / "tables"
        shutil.copytree(_data_dir(), tables)
        lines = (tables / "SiO2.nk").read_text().splitlines()
        lines[5] = " ".join(lines[5].split()[:2])  # line 6 loses its k column
        (tables / "SiO2.nk").write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("IDKIT_DATA_DIR", str(tables))
        pt = next(p for p in sample_points("motf", 50, seed=5) if "SiO2" in p.values)
        rec = Engine(SimulatorBinding(problem="motf")).evaluate_batch([pt])[0]
        assert rec.failed
        reason = f"ValueError: SiO2.nk line 6: expected 'lambda_um n k', got {lines[5]!r}"
        assert rec.error == reason


class TestEchoAdapter:
    def test_roundtrip_returns_exact_coordinates(self):
        p = sample_points("scf", 1, seed=11)[0]
        rec = adapter_roundtrip(external_binding(), p)
        assert not rec.failed
        assert list(rec.response) == [float(v) for v in p.values[:3]]

    def test_batch_of_sixty_zero_failures(self):
        pts = sample_points("scf", 60, seed=13)
        recs = Engine(external_binding(workers=4)).evaluate_batch(pts)
        assert len(recs) == 60
        assert all(not r.failed for r in recs)
        for p, r in zip(pts, recs):
            assert list(r.response) == [float(v) for v in p.values[:3]]

    def test_categorical_coordinates_echo_as_zero(self):
        p = sample_points("motf", 1, seed=17)[0]
        rec = adapter_roundtrip(external_binding(problem="motf"), p)
        n_lead = sum(1 for v in p.values if isinstance(v, str))
        assert n_lead > 0
        assert list(rec.response[:n_lead]) == [0.0] * n_lead
        assert rec.response.shape == (2001,)

    def test_requests_carry_only_id_problem_and_x(self):
        pts = sample_points("tpv", 4, seed=23)
        binding = external_binding(problem="tpv", cmd=fixture_cmd("strict"), workers=2)
        with Engine(binding) as engine:
            recs = engine.evaluate_batch(pts)
        recs.append(adapter_roundtrip(binding, pts[0]))
        assert [r.error for r in recs] == [None] * 5


class TestAdapterFaults:
    def test_wrong_id_is_protocol_error(self):
        p = sample_points("scf", 1)[0]
        with pytest.raises(AdapterProtocolError, match="id mismatch"):
            adapter_roundtrip(external_binding(cmd=fixture_cmd("wrong-id")), p)

    def test_garbage_line_is_protocol_error_with_raw_line(self):
        p = sample_points("scf", 1)[0]
        with pytest.raises(AdapterProtocolError, match="not json"):
            adapter_roundtrip(external_binding(cmd=fixture_cmd("garbage")), p)

    def test_boolean_y_is_protocol_error(self):
        p = sample_points("scf", 1)[0]
        with pytest.raises(AdapterProtocolError, match="numeric 'y'"):
            adapter_roundtrip(external_binding(cmd=fixture_cmd("bool-y")), p)

    def test_slow_adapter_times_out(self):
        p = sample_points("scf", 1)[0]
        binding = external_binding(cmd=fixture_cmd("sleep", 30), timeout=0.5)
        t0 = time.monotonic()
        with pytest.raises(AdapterTimeoutError):
            adapter_roundtrip(binding, p)
        assert time.monotonic() - t0 < 5.0

    def test_immediate_exit_is_engine_error(self):
        p = sample_points("scf", 1)[0]
        with pytest.raises(EngineError) as err:
            adapter_roundtrip(external_binding(cmd=fixture_cmd("exit-now")), p)
        assert not isinstance(err.value, (AdapterProtocolError, AdapterTimeoutError))

    def test_error_response_fails_the_point_not_the_batch(self):
        pts = sample_points("scf", 4, seed=29)
        binding = external_binding(cmd=fixture_cmd("error-always"), workers=2)
        recs = Engine(binding).evaluate_batch(pts)
        assert len(recs) == 4
        assert all(r.failed for r in recs)
        assert all("fixture says no" in r.error for r in recs)
        assert all(r.loss == float("inf") for r in recs)

    def test_error_response_roundtrip_returns_failed_record(self):
        p = sample_points("scf", 1)[0]
        rec = adapter_roundtrip(external_binding(cmd=fixture_cmd("error-always")), p)
        assert rec.failed
        assert "fixture says no" in rec.error

    def test_crash_mid_batch_reschedules_to_survivors(self, tmp_path):
        marker = str(tmp_path / "crashed")
        pts = sample_points("scf", 10, seed=31)
        binding = external_binding(cmd=fixture_cmd("crash-once", marker), workers=3)
        recs = Engine(binding).evaluate_batch(pts)
        assert os.path.exists(marker), "fixture never crashed"
        assert len(recs) == 10
        assert all(r is not None for r in recs)
        assert all(not r.failed for r in recs)
        for p, r in zip(pts, recs):
            assert list(r.response) == [float(v) for v in p.values[:3]]

    def test_late_crash_point_goes_to_a_worker_still_waiting(self, tmp_path):
        # the survivor drains the queue long before the crash; it must wait
        # for the crashed worker's point instead of exiting on an empty queue
        marker = str(tmp_path / "crashed")
        pts = sample_points("scf", 6, seed=73)
        binding = external_binding(cmd=fixture_cmd("crash-once", marker, 0.5), workers=2)
        recs = Engine(binding).evaluate_batch(pts)
        assert os.path.exists(marker), "fixture never crashed"
        assert not any(r.failed for r in recs)
        for p, r in zip(pts, recs):
            assert list(r.response) == [float(v) for v in p.values[:3]]

    def test_one_worker_replaces_a_crashed_child(self, tmp_path):
        marker = str(tmp_path / "crashed")
        pts = sample_points("scf", 4, seed=79)
        binding = external_binding(cmd=fixture_cmd("crash-once", marker), workers=1)
        recs = Engine(binding).evaluate_batch(pts)
        assert os.path.exists(marker), "fixture never crashed"
        assert not any(r.failed for r in recs)
        for p, r in zip(pts, recs):
            assert list(r.response) == [float(v) for v in p.values[:3]]

    def test_all_workers_dead_marks_remaining_failed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIXTURE_PID_DIR", str(tmp_path))
        pts = sample_points("scf", 5, seed=37)
        binding = external_binding(cmd=fixture_cmd("exit-now"), workers=2)
        recs = Engine(binding).evaluate_batch(pts)
        assert len(recs) == 5
        assert all(r.failed for r in recs)
        assert len(fixture_pids(tmp_path)) <= len(pts) * MAX_ATTEMPTS

    def test_unlaunchable_adapter_fails_batch_with_reason(self):
        pts = sample_points("scf", 2, seed=41)
        binding = external_binding(cmd="/does/not/exist-xyz", workers=2)
        recs = Engine(binding).evaluate_batch(pts)
        assert all(r.failed for r in recs)
        assert all("adapter" in r.error for r in recs)

    def test_short_reply_fails_the_point_and_is_not_cached(self):
        pts = sample_points("scf", 4, seed=59)
        binding = external_binding(cmd=fixture_cmd("short-y"), workers=2)
        for target in (None, np.zeros(3)):
            recs = Engine(binding).evaluate_batch(pts, target=target)
            assert len(recs) == 4
            assert all(r.error == "response has 1 values, expected 3" for r in recs)
            assert all(r.loss == float("inf") for r in recs)
        rec = adapter_roundtrip(external_binding(cmd=fixture_cmd("short-y")), pts[0])
        assert rec.error == "response has 1 values, expected 3"

    def test_nan_reply_fails_the_point(self):
        pts = sample_points("scf", 3, seed=61)
        binding = external_binding(cmd=fixture_cmd("nan-y"), workers=2)
        recs = Engine(binding).evaluate_batch(pts + [pts[0]], target=np.zeros(3))
        assert [r.error for r in recs] == ["non-finite response"] * 4
        assert all(r.loss == float("inf") for r in recs)

    def test_no_adapter_child_outlives_the_batch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIXTURE_PID_DIR", str(tmp_path))
        pts = sample_points("scf", 4, seed=67)
        binding = external_binding(cmd=fixture_cmd("short-y"), workers=2)
        with Engine(binding) as engine:
            recs = engine.evaluate_batch(pts, target=np.zeros(3))
        assert all(r.failed for r in recs)
        pids = fixture_pids(tmp_path)
        assert pids
        assert_gone(pids)


class TestAdapterLifecycle:
    def test_one_child_serves_every_batch_of_an_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIXTURE_PID_DIR", str(tmp_path))
        pts = sample_points("scf", 10, seed=97)
        with Engine(external_binding(cmd=fixture_cmd("echo"), workers=2)) as engine:
            for p in pts:
                (rec,) = engine.evaluate_batch([p])
                assert list(rec.response) == [float(v) for v in p.values[:3]]
            pids = fixture_pids(tmp_path)
            assert len(pids) == 1
            os.kill(pids[0], 0)  # still running between batches
        assert_gone(pids)
        engine.close()  # idempotent

    def test_dropped_engine_kills_its_children(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIXTURE_PID_DIR", str(tmp_path))
        engine = Engine(external_binding(cmd=fixture_cmd("echo"), workers=2))
        recs = engine.evaluate_batch(sample_points("scf", 4, seed=101))
        assert not any(r.failed for r in recs)
        pids = fixture_pids(tmp_path)
        assert pids
        del engine
        gc.collect()
        assert_gone(pids)

    def test_run_experiment_starts_one_child_per_engine(self, tmp_path, monkeypatch):
        from idkit.harness import ExperimentSpec, run_experiment

        monkeypatch.setenv("FIXTURE_PID_DIR", str(tmp_path))
        spec = ExperimentSpec(problem="scf", algo="rs", budget=10, seeds=(0,),
                              adapter_cmd=fixture_cmd("echo"))
        report = run_experiment(spec)
        assert report.failed_seeds == ()
        # one for the iid target, one for the seed's ten one-point batches
        pids = fixture_pids(tmp_path)
        assert len(pids) == 2
        assert_gone(pids)
