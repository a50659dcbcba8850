"""Dataset generation, splits, targets, budgeted runs, and report rendering."""

import hashlib
import json
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from idkit import harness as H
from idkit.engine import SimulatorBinding
from idkit.problems import get_space, synthetic_response
from idkit.records import EvalRecord, load_records
from idkit.space import mse_loss
from idkit.tmm import default_grid

FIXTURE = os.path.join(os.path.dirname(__file__), "fixture_adapter.py")


class TestGenerateDataset:
    def test_exact_count_and_no_wall_time(self, tmp_path):
        path = str(tmp_path / "ds.jsonl")
        recs = H.generate_dataset("scf", 40, seed=5, path=path)
        assert len(recs) == 40
        assert [r.trial for r in recs] == list(range(40))
        assert len(load_records(path)) == 40
        with open(path, encoding="utf-8") as fh:
            assert all(set(json.loads(line)) == {"x", "y", "loss", "trial"} for line in fh)

    def test_byte_identical_across_runs_and_worker_counts(self, tmp_path):
        p1, p2, p4 = (str(tmp_path / f"ds{w}.jsonl") for w in (1, 2, 4))
        H.generate_dataset("scf", 50, seed=9, path=p1)
        H.generate_dataset("scf", 50, seed=9, path=p2,
                           binding=SimulatorBinding("scf", workers=4))
        H.generate_dataset("scf", 50, seed=9, path=p4,
                           binding=SimulatorBinding("scf", workers=8))
        b = open(p1, "rb").read()
        assert open(p2, "rb").read() == b
        assert open(p4, "rb").read() == b

    def test_seed_changes_content(self, tmp_path):
        a = H.generate_dataset("scf", 10, seed=1)
        b = H.generate_dataset("scf", 10, seed=2)
        assert a[0].point.values != b[0].point.values

    def test_records_match_direct_simulation(self):
        recs = H.generate_dataset("tpv", 5, seed=2)
        rng = np.random.default_rng(2)
        space = get_space("tpv")
        for rec in recs:
            pt = space.sample_uniform(rng)
            assert pt.values == rec.point.values
            ref = synthetic_response(pt, "tpv")
            assert np.array_equal(rec.response_array(), ref)

    def test_failure_rate_abort(self):
        cmd = f"{sys.executable} {FIXTURE} error-always"
        binding = SimulatorBinding(problem="scf", adapter_cmd=cmd, timeout=10.0)
        with pytest.raises(H.HarnessError, match="failed"):
            H.generate_dataset("scf", 12, seed=0, binding=binding)

    def test_small_failure_rate_tolerated(self):
        # all succeed: rate 0 <= 1%
        cmd = f"{sys.executable} -m idkit.adapters"
        binding = SimulatorBinding(problem="scf", adapter_cmd=cmd, timeout=10.0)
        recs = H.generate_dataset("scf", 8, seed=0, binding=binding)
        assert sum(r.failed for r in recs) == 0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            H.generate_dataset("scf", 0, seed=0)
        with pytest.raises(ValueError, match="need seed >= 0, got -1"):
            H.generate_dataset("scf", 5, seed=-1)


class TestSplitDataset:
    def _dummy(self, n):
        space = get_space("scf")
        rng = np.random.default_rng(0)
        return [
            EvalRecord(point=space.sample_uniform(rng), response=(0.0, 0.0, 0.0),
                       loss=0.0, trial=i)
            for i in range(n)
        ]

    def test_thousand_becomes_810_90_100(self):
        sp = H.split_dataset(self._dummy(1000), seed=0)
        assert (len(sp.train), len(sp.val), len(sp.test)) == (810, 90, 100)

    def test_disjoint_and_exhaustive(self):
        recs = self._dummy(73)
        sp = H.split_dataset(recs, seed=4)
        ids = [r.trial for part in (sp.train, sp.val, sp.test) for r in part]
        assert sorted(ids) == list(range(73))
        assert len(set(ids)) == 73

    def test_seed_determinism(self):
        recs = self._dummy(50)
        a = H.split_dataset(recs, seed=7)
        b = H.split_dataset(recs, seed=7)
        c = H.split_dataset(recs, seed=8)
        assert [r.trial for r in a.test] == [r.trial for r in b.test]
        assert [r.trial for r in a.test] != [r.trial for r in c.test]

    def test_too_small(self):
        with pytest.raises(ValueError):
            H.split_dataset(self._dummy(9), seed=0)


class TestTargets:
    def test_iid_targets_are_realizable(self):
        targets = H.iid_targets("scf", k=4, seed=123)
        assert len(targets) == 4
        for rec in targets:
            y = synthetic_response(rec.point, "scf")
            assert mse_loss(y, rec.response_array()) == 0.0

    def test_iid_targets_deterministic(self):
        a = H.iid_targets("tpv", k=2, seed=5)
        b = H.iid_targets("tpv", k=2, seed=5)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_default_k_is_five(self):
        assert len(H.iid_targets("scf")) == 5

    def test_failed_target_names_the_reason(self):
        cmd = f"{sys.executable} {FIXTURE} error-always"
        binding = SimulatorBinding(problem="scf", adapter_cmd=cmd, timeout=10.0)
        with pytest.raises(H.HarnessError, match="2/2 .*failed.*fixture says no"):
            H.iid_targets("scf", k=2, binding=binding)

    def test_cooler_target_band_structure(self):
        lam = default_grid()
        t = H.radiative_cooler_target()
        assert t.shape == lam.shape
        assert np.all((t >= 0.0) & (t <= 1.0))
        assert np.all(t[lam < 2.5] < 1e-6)
        assert np.all(t[(lam > 9.0) & (lam < 12.0)] > 0.99)
        assert np.all(t[lam > 16.0] < 1e-6)

    def test_cooler_target_smooth_shoulders(self):
        lam = default_grid()
        t = H.radiative_cooler_target()
        # no step: adjacent samples never jump by more than ~7% of full scale
        assert np.max(np.abs(np.diff(t))) < 0.07
        rising = (lam > 7.0) & (lam < 9.0)
        assert np.all(np.diff(t[rising]) > 0)

    def test_load_target_json_and_text(self, tmp_path):
        space = get_space("scf")
        pj = tmp_path / "t.json"
        pj.write_text(json.dumps([0.1, 0.2, 0.3]))
        assert np.allclose(H.load_target(str(pj), space), [0.1, 0.2, 0.3])
        pt = tmp_path / "t.txt"
        pt.write_text("0.1 0.2\n0.3\n")
        assert np.allclose(H.load_target(str(pt), space), [0.1, 0.2, 0.3])

    def test_load_target_wrong_length(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text("[1.0, 2.0]")
        with pytest.raises(ValueError, match="3"):
            H.load_target(str(p), get_space("scf"))
        # entries that are not numbers name the file
        for name, text in [("dict.json", '{"y": [0.1, 0.2, 0.3]}'),
                           ("nested.json", "[[0.1, 0.2, 0.3]]"), ("cut.json", "[0.1, 0.2,"),
                           ("word.txt", "abc")]:
            p = tmp_path / name
            p.write_text(text)
            with pytest.raises(ValueError, match=f"target {re.escape(str(p))} is not a list of numbers"):
                H.load_target(str(p), get_space("scf"))


class TestTrainBest:
    def test_rescans_against_given_target(self):
        recs = H.generate_dataset("scf", 30, seed=1)
        target = H.iid_targets("scf", k=1, seed=50)[0].response_array()
        best = H.train_best(recs, target)
        losses = [mse_loss(r.response_array(), target) for r in recs]
        assert best.loss == min(losses)
        assert best.trial == int(np.argmin(losses))

    def test_tie_goes_to_lowest_trial(self):
        space = get_space("scf")
        rng = np.random.default_rng(0)
        y = (1.0, 2.0, 3.0)
        recs = [
            EvalRecord(point=space.sample_uniform(rng), response=y, loss=0.0, trial=t)
            for t in (4, 2, 7)
        ]
        best = H.train_best(recs, np.zeros(3))
        assert best.trial == 2

    def test_failed_records_never_win(self):
        space = get_space("scf")
        rng = np.random.default_rng(0)
        good = EvalRecord(point=space.sample_uniform(rng), response=(5.0, 5.0, 5.0),
                          loss=0.0, trial=0)
        bad = EvalRecord(point=space.sample_uniform(rng), response=(),
                         loss=float("inf"), trial=1, error="boom")
        best = H.train_best([bad, good], np.zeros(3))
        assert best.trial == 0

    def test_all_failed_raises(self):
        space = get_space("scf")
        rng = np.random.default_rng(0)
        bad = EvalRecord(point=space.sample_uniform(rng), response=(),
                         loss=float("inf"), trial=0, error="x")
        with pytest.raises(ValueError):
            H.train_best([bad], np.zeros(3))


class TestExperimentSpec:
    def test_budget_defaults_per_problem(self):
        assert H.ExperimentSpec(problem="motf", algo="rs").budget == 1000
        assert H.ExperimentSpec(problem="tpv", algo="rs").budget == 200
        assert H.ExperimentSpec(problem="scf", algo="rs").budget == 200

    def test_default_seeds(self):
        assert H.ExperimentSpec(problem="scf", algo="rs").seeds == (0, 1, 2, 3, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            H.ExperimentSpec(problem="scf", algo="rs", seeds=(1, 1))
        with pytest.raises(ValueError, match="budget"):
            H.ExperimentSpec(problem="scf", algo="rs", budget=-1)
        with pytest.raises(ValueError, match="dataset_path"):
            H.ExperimentSpec(problem="scf", algo="rs", warm_start_k=3)
        with pytest.raises(ValueError, match="ask_batch"):
            H.ExperimentSpec(problem="scf", algo="rs", ask_batch=0)
        with pytest.raises(TypeError, match="config"):  # optimizers run at fixed settings
            H.ExperimentSpec(problem="scf", algo="rs", config={})
        with pytest.raises(ValueError, match="seed"):
            H.ExperimentSpec(problem="scf", algo="rs", seeds=())
        with pytest.raises(ValueError, match=r"seeds must be >= 0, got \(-1, 0\)"):
            H.ExperimentSpec(problem="scf", algo="rs", seeds=(-1, 0))
        with pytest.raises(ValueError, match="target_seed must be >= 0, got -3"):
            H.ExperimentSpec(problem="scf", algo="rs", target_seed=-3)

    def test_unknown_problem_or_algo_rejected(self):
        with pytest.raises(ValueError, match=r"unknown problem 'bogus'.*'motf', 'tpv', 'scf'"):
            H.ExperimentSpec(problem="bogus", algo="rs")
        with pytest.raises(ValueError, match=r"unknown algo 'nope'.*'bo', 'es'"):
            H.ExperimentSpec(problem="scf", algo="nope")
        assert H.ExperimentSpec(problem="scf", algo="TPE").algo == "TPE"  # as make_optimizer reads it


class TestRunExperiment:
    def test_curves_cover_budget_and_never_increase(self):
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=20, seeds=(0, 1))
        )
        assert rep.seeds == (0, 1)
        for curve in rep.curves:
            assert len(curve) == 20
            assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_same_spec_same_hash(self, tmp_path):
        kw = dict(problem="scf", algo="tpe", budget=15, seeds=(0, 1), target="iid")
        r1 = H.run_experiment(H.ExperimentSpec(out_dir=str(tmp_path / "a"), **kw))
        r2 = H.run_experiment(H.ExperimentSpec(out_dir=str(tmp_path / "b"), **kw))
        assert r1.report_hash() == r2.report_hash()
        assert r1.curves == r2.curves

    def test_mean_inside_seed_envelope(self):
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=15, seeds=(0, 1, 2))
        )
        arr = np.asarray(rep.curves)
        mean = rep.mean_curve()
        assert np.all(mean >= arr.min(axis=0) - 1e-12)
        assert np.all(mean <= arr.max(axis=0) + 1e-12)

    def test_ci_formula(self):
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=10, seeds=(0, 1, 2, 3))
        )
        arr = np.asarray(rep.curves)
        ref = 1.96 * arr.std(axis=0, ddof=1) / np.sqrt(arr.shape[0])
        assert np.allclose(rep.ci_halfwidth(), ref, rtol=0, atol=0)

    def test_ci_zero_for_single_seed(self):
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=8, seeds=(3,))
        )
        assert np.all(rep.ci_halfwidth() == 0.0)

    def test_seed_curves_differ(self):
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=12, seeds=(0, 1))
        )
        assert rep.curves[0] != rep.curves[1]

    def test_freed_heap_handed_back_once_the_seeds_are_done(self, monkeypatch):
        calls = []
        monkeypatch.setattr(H, "_malloc_trim", calls.append)
        H.run_experiment(H.ExperimentSpec(problem="scf", algo="rs", budget=3, seeds=(0, 1)))
        assert calls == [0, 0, 0]  # before each seed and after the last

    def test_warm_start_keeps_budget_and_rescores(self, tmp_path):
        ds = str(tmp_path / "ds.jsonl")
        H.generate_dataset("scf", 30, seed=4, path=ds)
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="tpe", budget=12, seeds=(0,),
                             warm_start_k=10, dataset_path=ds)
        )
        # warm records cost nothing: the curve still spans the full budget
        assert len(rep.curves[0]) == 12

    @pytest.mark.parametrize("warm_start_k", [0, 2])
    def test_dataset_of_another_problem_rejected_before_simulating(
        self, tmp_path, monkeypatch, warm_start_k
    ):
        from idkit.engine import Engine

        motf, scf = get_space("motf"), get_space("scf")
        rng = np.random.default_rng(0)
        ds = tmp_path / "ds.jsonl"
        ds.write_text("".join(
            EvalRecord(motf.sample_uniform(rng), np.zeros(2001), 0.0, t).to_json() + "\n"
            for t in range(3)
        ))
        calls = []
        monkeypatch.setattr(Engine, "evaluate_batch", lambda self, *a, **k: calls.append(a))
        out = tmp_path / "out"
        spec = H.ExperimentSpec(problem="scf", algo="rs", budget=30, seeds=(0, 1),
                                warm_start_k=warm_start_k, dataset_path=str(ds), out_dir=str(out))
        msg = f"{ds}: trial 0 has 20 design and 2001 response values, scf has 18 and 3"
        with pytest.raises(ValueError, match=re.escape(msg)):
            H.run_experiment(spec)
        assert calls == []
        assert not out.exists()

        # right design width, wrong response width; a failed record needs no response
        lines = [EvalRecord(scf.sample_uniform(rng), (), np.inf, 0, error="boom"),
                 EvalRecord(scf.sample_uniform(rng), np.zeros(2001), 0.0, 1)]
        ds.write_text("".join(r.to_json() + "\n" for r in lines))
        with pytest.raises(ValueError, match=re.escape(f"{ds}: trial 1 has 18 design and 2001 ")):
            H.run_experiment(spec)
        assert calls == []
        assert not out.exists()

    def test_budget_zero_is_baselines_only(self, tmp_path):
        ds = str(tmp_path / "ds.jsonl")
        recs = H.generate_dataset("scf", 20, seed=4, path=ds)
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=0, seeds=(0, 1),
                             target="iid", dataset_path=ds)
        )
        assert rep.curves == ((), ())
        assert rep.failed_seeds == ()
        assert rep.train_best is not None and len(rep.train_best) == 2
        targets = H.iid_targets("scf", k=2, seed=rep.spec["target_seed"])
        for got, tgt in zip(rep.train_best, targets):
            ref = min(
                mse_loss(r.response_array(), tgt.response_array()) for r in recs
            )
            assert got == ref

    def test_builtin_target_only_fits_films(self):
        with pytest.raises(ValueError, match="film"):
            H.run_experiment(
                H.ExperimentSpec(problem="scf", algo="rs", budget=2, target="builtin")
            )

    def test_file_target_shared_across_seeds(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps([0.5, 0.5, 0.5]))
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=10, seeds=(0, 1),
                             target=str(p))
        )
        assert len(rep.curves) == 2

    def test_failed_seed_is_flagged_not_fatal(self, monkeypatch):
        real = H._run_seed

        def flaky(spec, seed, target, dataset, record_path, binding):
            if seed == 1:
                raise RuntimeError("boom")
            return real(spec, seed, target, dataset, record_path, binding)

        monkeypatch.setattr(H, "_run_seed", flaky)
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=5, seeds=(0, 1, 2))
        )
        assert rep.failed_seeds == (1,)
        assert rep.seeds == (0, 2)
        assert len(rep.curves) == 2
        assert any("boom" in e for e in rep.metadata["errors"])

    def test_all_seeds_failing_raises(self, monkeypatch):
        def doomed(spec, seed, target, dataset, record_path, binding):
            raise RuntimeError("boom")

        monkeypatch.setattr(H, "_run_seed", doomed)
        with pytest.raises(H.HarnessError, match="every seed failed"):
            H.run_experiment(
                H.ExperimentSpec(problem="scf", algo="rs", budget=5, seeds=(0, 1))
            )

    def test_out_dir_contents_and_record_counts(self, tmp_path):
        out = str(tmp_path / "run")
        spec = H.ExperimentSpec(problem="scf", algo="rs", budget=9, seeds=(0, 2),
                                out_dir=out)
        H.run_experiment(spec)
        files = set(os.listdir(out))
        assert {"report.json", "report.csv", "report.svg",
                "records_seed0.jsonl", "records_seed2.jsonl"} <= files
        for s in (0, 2):
            recs = load_records(os.path.join(out, f"records_seed{s}.jsonl"))
            assert len(recs) == 9
            assert [r.trial for r in recs] == list(range(9))

    def test_iid_target_comes_from_the_run_adapter(self, monkeypatch):
        seen = []
        real = H._run_seed

        def spy(spec, seed, target, *rest):
            seen.append(target)
            return real(spec, seed, target, *rest)

        monkeypatch.setattr(H, "_run_seed", spy)
        spec = H.ExperimentSpec(problem="scf", algo="rs", budget=2, seeds=(0,),
                                adapter_cmd=f"{sys.executable} -m idkit.adapters")
        H.run_experiment(spec)
        # the echo adapter answers x[:3], so the target is that of its generating point
        x = get_space("scf").sample_uniform(np.random.default_rng(spec.target_seed))
        assert np.array_equal(seen[0], [float(v) for v in x.values[:3]])


class TestReportSerialization:
    def _report(self, **kw):
        base = dict(problem="scf", algo="rs", budget=6, seeds=(0, 1))
        base.update(kw)
        return H.run_experiment(H.ExperimentSpec(**base))

    def test_roundtrip_preserves_hash(self, tmp_path):
        rep = self._report()
        path = str(tmp_path / "r.json")
        rep.save(path)
        back = H.ExperimentReport.load(path)
        assert back.report_hash() == rep.report_hash()
        assert back.curves == rep.curves
        assert back.seeds == rep.seeds

    def test_failed_prefix_is_standard_json(self):
        rep = self._report()
        failing = H.ExperimentReport(
            spec=rep.spec, seeds=rep.seeds,
            curves=tuple((float("inf"), float("inf")) + c[2:] for c in rep.curves),
            train_best=rep.train_best, failed_seeds=rep.failed_seeds,
        )

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = failing.to_json()
        doc = json.loads(text, parse_constant=refuse)
        back = H.ExperimentReport.from_json(text)
        assert back.curves == failing.curves
        assert back.report_hash() == failing.report_hash() == doc["report_hash"]

    def test_hash_ignores_metadata(self):
        rep = self._report()
        other = H.ExperimentReport(
            spec=rep.spec, seeds=rep.seeds, curves=rep.curves,
            train_best=rep.train_best, failed_seeds=rep.failed_seeds,
            metadata={"created_utc": "1970-01-01T00:00:00Z"},
        )
        assert other.report_hash() == rep.report_hash()

    def test_hash_ignores_the_cache_flag_of_earlier_reports(self):
        rep = self._report()
        earlier = replace(rep, spec={**rep.spec, "cache": True})
        assert earlier.report_hash() == rep.report_hash()

    def test_hash_sees_curve_changes(self):
        rep = self._report()
        bent = tuple(
            tuple(v + (1e-9 if i == 0 else 0.0) for v in c)
            for i, c in enumerate(rep.curves)
        )
        other = H.ExperimentReport(
            spec=rep.spec, seeds=rep.seeds, curves=bent,
            train_best=rep.train_best, failed_seeds=rep.failed_seeds,
        )
        assert other.report_hash() != rep.report_hash()

    def test_saved_file_keeps_full_spec(self, tmp_path):
        out = str(tmp_path / "run")
        self._report(out_dir=out)
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["spec"]["out_dir"] == out
        assert "config" not in doc["spec"]
        assert doc["report_hash"]
        assert "toolkit_version" in doc["metadata"]

    def test_report_with_a_config_key_keeps_its_hash(self):
        path = os.path.join(os.path.dirname(__file__), "data", "report_with_config.json")
        doc = json.loads(open(path).read())
        assert doc["spec"]["config"] == {}
        earlier = H.ExperimentReport.load(path)
        assert earlier.report_hash() == doc["report_hash"]


class TestEmitReport:
    def _two_reports(self):
        r1 = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=8, seeds=(0, 1))
        )
        r2 = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="es", budget=8, seeds=(0, 1))
        )
        return [r1, r2]

    def test_csv_layout(self, tmp_path):
        reports = self._two_reports()
        csv_path, _ = H.emit_report(reports, str(tmp_path / "out"))
        rows = open(csv_path).read().splitlines()
        assert rows[0] == "algo,trial,mean,lo,hi"
        assert len(rows) == 1 + 8 + 8
        for row in rows[1:]:
            algo, trial, mean, lo, hi = row.split(",")
            assert algo in ("rs", "es")
            assert 0 <= int(trial) < 8
            assert float(lo) <= float(mean) <= float(hi)

    def test_csv_matches_report_aggregates(self, tmp_path):
        rep = self._two_reports()[0]
        csv_path, _ = H.emit_report([rep], str(tmp_path / "out"))
        rows = open(csv_path).read().splitlines()[1:]
        mean, half = rep.mean_curve(), rep.ci_halfwidth()
        for t, row in enumerate(rows):
            _, trial, m, lo, hi = row.split(",")
            assert int(trial) == t
            assert float(m) == pytest.approx(mean[t], rel=1e-9)
            assert float(hi) - float(lo) == pytest.approx(2 * half[t], rel=1e-6, abs=1e-12)

    def test_reemission_byte_identical(self, tmp_path):
        reports = self._two_reports()
        csv_path, svg_path = H.emit_report(reports, str(tmp_path / "out"))
        digest = lambda p: hashlib.sha256(open(p, "rb").read()).hexdigest()
        d1 = (digest(csv_path), digest(svg_path))
        H.emit_report(reports, str(tmp_path / "out"))
        assert (digest(csv_path), digest(svg_path)) == d1

    def test_svg_structure(self, tmp_path):
        reports = self._two_reports()
        _, svg_path = H.emit_report(reports, str(tmp_path / "out"))
        svg = open(svg_path).read()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert svg.count("<polygon") == 2
        assert ">rs<" in svg and ">es<" in svg

    def test_train_best_drawn_dashed(self, tmp_path):
        ds = str(tmp_path / "ds.jsonl")
        H.generate_dataset("scf", 20, seed=0, path=ds)
        rep = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=8, seeds=(0,),
                             dataset_path=ds)
        )
        _, svg_path = H.emit_report([rep], str(tmp_path / "out"))
        svg = open(svg_path).read()
        assert "stroke-dasharray" in svg
        assert "train best" in svg

    @pytest.mark.filterwarnings("error")
    def test_no_nan_band_where_a_seed_has_no_finite_loss(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(json.dumps([0.5, 0.5, 0.5]))
        failing = H.run_experiment(
            H.ExperimentSpec(problem="scf", algo="rs", budget=3, seeds=(0, 1),
                             target=str(target),
                             adapter_cmd=f"{sys.executable} {FIXTURE} error-always")
        )
        inf = float("inf")
        assert all(v == inf for c in failing.curves for v in c)
        late = replace(failing, curves=((inf, 1.0, 0.5), (2.0, 2.0, 0.25)))
        assert list(late.ci_halfwidth() > 0) == [False, True, True]
        csv_path, svg_path = H.emit_report([failing, late], str(tmp_path / "out"))
        for path in (csv_path, svg_path):
            with open(path) as fh:
                assert "nan" not in fh.read()

    def test_empty_report_list(self, tmp_path):
        csv_path, svg_path = H.emit_report([], str(tmp_path / "empty"))
        assert open(csv_path).read() == "algo,trial,mean,lo,hi\n"
        svg = open(svg_path).read()
        assert svg.startswith("<svg")
        assert "<polyline" not in svg and "<polygon" not in svg
        assert "<line" in svg
