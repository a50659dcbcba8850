"""The idkit command: argument handling, config merging, exit codes, outputs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from idkit.cli import main
from idkit.harness import TARGET_SEED, iid_targets
from idkit.problems import get_space
from idkit.records import load_records
from idkit.space import mse_loss

HELP_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_help.txt")
RUN_HELP_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_run_help.txt")
FIXTURE = os.path.join(os.path.dirname(__file__), "fixture_adapter.py")


@pytest.fixture()
def data_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_main(argv):
    return main(argv)


def help_text(argv, capsys) -> str:
    os.environ["COLUMNS"] = "80"
    try:
        with pytest.raises(SystemExit) as exc:
            main(argv)
    finally:
        os.environ.pop("COLUMNS", None)
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestUsage:
    def test_no_args_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data"])
        assert exc.value.code == 2

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--problem", "nonesuch"])
        assert exc.value.code == 2

    def test_help_snapshot(self, capsys):
        got = help_text(["--help"], capsys)
        with open(HELP_GOLDEN, "r", encoding="utf-8") as fh:
            assert got == fh.read()

    def test_run_help_snapshot(self, capsys):
        got = help_text(["run", "--help"], capsys)
        with open(RUN_HELP_GOLDEN, "r", encoding="utf-8") as fh:
            assert got == fh.read()

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        rc = main(["split", "--data", str(tmp_path / "missing.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestGenDataSplitTargets:
    def test_gen_data_writes_requested_records(self, data_dir):
        out = str(data_dir / "d.jsonl")
        rc = main(["gen-data", "--problem", "scf", "--n", "30", "--seed", "2",
                   "--out", out])
        assert rc == 0
        assert len(load_records(out)) == 30

    def test_gen_data_default_path_in_cwd(self, data_dir):
        rc = main(["gen-data", "--problem", "scf", "--n", "5", "--seed", "1"])
        assert rc == 0
        assert (data_dir / "scf_n5_s1.jsonl").exists()

    def test_split_files(self, data_dir):
        src = str(data_dir / "d.jsonl")
        main(["gen-data", "--problem", "scf", "--n", "40", "--seed", "0",
              "--out", src])
        rc = main(["split", "--data", src, "--seed", "1"])
        assert rc == 0
        sizes = {}
        for part in ("train", "val", "test"):
            sizes[part] = len(load_records(str(data_dir / f"d.{part}.jsonl")))
        assert sizes == {"train": 33, "val": 3, "test": 4}

    def test_cut_data_file_names_file_and_line(self, data_dir, capsys):
        src = data_dir / "d.jsonl"
        main(["gen-data", "--problem", "scf", "--n", "10", "--seed", "0", "--out", str(src)])
        lines = src.read_text().splitlines()
        lines[5] = lines[5][: lines[5].index('"x":[') + 8]
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv in (["split", "--data", str(src)],
                     ["run", "--problem", "scf", "--algo", "rs", "--budget", "3", "--seeds", "1",
                      "--data", str(src), "--out", str(data_dir / "run")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {src} line 6: JSONDecodeError: ")
        assert not (data_dir / "run").exists()

    def test_targets_match_library_call(self, data_dir):
        out = str(data_dir / "t.jsonl")
        rc = main(["targets", "--problem", "scf", "--k", "3", "--seed", "8",
                   "--out", out])
        assert rc == 0
        got = load_records(out)
        ref = iid_targets("scf", k=3, seed=8)
        assert [r.to_json() for r in got] == [r.to_json() for r in ref]

    def test_targets_default_seed_is_the_target_stream(self, data_dir):
        rc = main(["targets", "--problem", "scf", "--k", "2"])
        assert rc == 0
        got = load_records(str(data_dir / "scf_targets.jsonl"))
        ref = iid_targets("scf", k=2, seed=TARGET_SEED)
        assert [r.to_json() for r in got] == [r.to_json() for r in ref]

    def test_targets_from_an_adapter(self, data_dir):
        out = str(data_dir / "t.jsonl")
        rc = main(["targets", "--problem", "scf", "--k", "2", "--seed", "8",
                   "--adapter-cmd", f"{sys.executable} {FIXTURE} echo", "--out", out])
        assert rc == 0
        got = load_records(out)
        assert len(got) == 2
        # the echo fixture answers x[:3], unlike the stand-in simulator
        for rec in got:
            assert list(rec.response_array()) == [float(v) for v in rec.point.values[:3]]


class TestConfigMerging:
    def _run(self, data_dir, *extra):
        out = str(data_dir / "run")
        rc = main(["run", "--problem", "scf", "--algo", "rs", "--out", out, *extra])
        assert rc == 0
        with open(os.path.join(out, "report.json")) as fh:
            return json.load(fh)

    def test_config_file_fills_unset_flags(self, data_dir):
        cfg = data_dir / "exp.cfg"
        cfg.write_text("budget = 12\nseeds = 2\n# comment\n\ntarget = iid\n")
        doc = self._run(data_dir, "--config", str(cfg))
        assert doc["spec"]["budget"] == 12
        assert doc["spec"]["seeds"] == [0, 1]

    def test_set_overrides_file_last_wins(self, data_dir):
        cfg = data_dir / "exp.cfg"
        cfg.write_text("budget = 12\nseeds = 1\n")
        doc = self._run(data_dir, "--config", str(cfg),
                        "--set", "budget=8", "--set", "budget=6")
        assert doc["spec"]["budget"] == 6

    def test_explicit_flag_beats_everything(self, data_dir):
        cfg = data_dir / "exp.cfg"
        cfg.write_text("budget = 12\nseeds = 1\n")
        doc = self._run(data_dir, "--config", str(cfg), "--set", "budget=8",
                        "--budget", "4")
        assert doc["spec"]["budget"] == 4

    def test_dashed_keys_accepted(self, data_dir):
        cfg = data_dir / "exp.cfg"
        cfg.write_text("warm-start-k = 0\nseeds = 1\nbudget = 5\n")
        doc = self._run(data_dir, "--config", str(cfg))
        assert doc["spec"]["budget"] == 5

    def test_unknown_key_exits_2(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "scf", "--algo", "rs", "--set", "bogus=1"])
        assert exc.value.code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_exits_2_naming_the_key(self, data_dir, capsys):
        cfg = data_dir / "exp.cfg"
        cfg.write_text("budget = abc\n")
        for source in (["--set", "budget=abc"], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--problem", "scf", "--algo", "rs", *source])
            assert exc.value.code == 2
            assert "'budget'" in capsys.readouterr().err
        # a value outside the flag's choices
        with pytest.raises(SystemExit) as exc:
            main(["train", "--problem", "scf", "--data", "none.jsonl", "--set", "model=bogus"])
        assert exc.value.code == 2
        assert "'model'" in capsys.readouterr().err

    def test_malformed_set_exits_2(self, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "scf", "--algo", "rs", "--set", "nonsense"])
        assert exc.value.code == 2


class TestRun:
    def test_seed_flag_shifts_seed_block(self, data_dir):
        out = str(data_dir / "run")
        rc = main(["run", "--problem", "scf", "--algo", "rs", "--budget", "6",
                   "--seeds", "2", "--seed", "10", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "report.json")) as fh:
            doc = json.load(fh)
        assert doc["spec"]["seeds"] == [10, 11]
        assert {"records_seed10.jsonl", "records_seed11.jsonl"} <= set(os.listdir(out))

    def test_run_emits_report_files(self, data_dir, capsys):
        out = str(data_dir / "run")
        rc = main(["run", "--problem", "scf", "--algo", "rs", "--budget", "5",
                   "--seeds", "1", "--out", out])
        assert rc == 0
        assert {"report.json", "report.csv", "report.svg"} <= set(os.listdir(out))
        printed = capsys.readouterr().out
        assert "final mean loss" in printed
        with open(os.path.join(out, "report.json")) as fh:
            assert json.load(fh)["report_hash"] in printed

    def test_unknown_algo_exits_1_before_simulating(self, data_dir, capsys):
        rc = main(["run", "--problem", "scf", "--algo", "nope", "--budget", "5"])
        assert rc == 1
        assert "unknown algo 'nope'" in capsys.readouterr().err
        assert os.listdir(data_dir) == []

    def test_non_finite_target_file_exits_1_before_running(self, data_dir, capsys):
        (data_dir / "t.txt").write_text("0.3 nan 0.5\n")
        out = str(data_dir / "run")
        rc = main(["run", "--problem", "scf", "--algo", "rs", "--budget", "5",
                   "--seeds", "1", "--target", "t.txt", "--out", out])
        assert rc == 1
        assert "target t.txt has non-finite values" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "records_seed0.jsonl"))


class TestEval:
    def test_zero_loss_against_own_response(self, data_dir, capsys):
        ds = str(data_dir / "d.jsonl")
        main(["gen-data", "--problem", "scf", "--n", "3", "--seed", "0", "--out", ds])
        rec = load_records(ds)[0]
        pt = data_dir / "pt.json"
        pt.write_text(json.dumps(list(rec.point.values)))
        tgt = data_dir / "t.json"
        tgt.write_text(json.dumps([float(v) for v in rec.response]))
        capsys.readouterr()
        rc = main(["eval", "--problem", "scf", "--point", str(pt),
                   "--target", str(tgt)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "loss=0"

    def test_loss_matches_library(self, data_dir, capsys):
        ds = str(data_dir / "d.jsonl")
        main(["gen-data", "--problem", "scf", "--n", "2", "--seed", "5", "--out", ds])
        rec = load_records(ds)[0]
        pt = data_dir / "pt.json"
        pt.write_text(json.dumps(list(rec.point.values)))
        capsys.readouterr()
        rc = main(["eval", "--problem", "scf", "--point", str(pt)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        ref = mse_loss(rec.response_array(), np.zeros(3))
        assert out == f"loss={ref:.12g}"

    def test_through_an_adapter(self, data_dir, capsys):
        point = get_space("scf").sample_uniform(np.random.default_rng(3))
        pt = data_dir / "pt.json"
        pt.write_text(json.dumps(list(point.values)))
        rc = main(["eval", "--problem", "scf", "--point", str(pt),
                   "--adapter-cmd", f"{sys.executable} {FIXTURE} echo"])
        assert rc == 0
        # the echo fixture answers x[:3], unlike the stand-in simulator
        ref = mse_loss(np.array(point.values[:3], dtype=float), np.zeros(3))
        assert capsys.readouterr().out.strip() == f"loss={ref:.12g}"

    def test_film_target_on_scf_exits_1_naming_the_width(self, data_dir, capsys):
        point = get_space("scf").sample_uniform(np.random.default_rng(3))
        pt = data_dir / "pt.json"
        pt.write_text(json.dumps(list(point.values)))
        rc = main(["eval", "--problem", "scf", "--point", str(pt), "--target", "builtin"])
        assert rc == 1
        assert "target must be 3 finite values, got shape (2001,)" in capsys.readouterr().err

    def test_invalid_point_exits_1(self, data_dir, capsys):
        pt = data_dir / "pt.json"
        pt.write_text(json.dumps([1.0, 2.0]))
        rc = main(["eval", "--problem", "scf", "--point", str(pt)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPlot:
    def test_combines_reports(self, data_dir):
        outs = []
        for algo in ("rs", "es"):
            out = str(data_dir / f"run_{algo}")
            main(["run", "--problem", "scf", "--algo", algo, "--budget", "5",
                  "--seeds", "1", "--out", out])
            outs.append(os.path.join(out, "report.json"))
        prefix = str(data_dir / "combined")
        rc = main(["plot", "--report", outs[0], "--report", outs[1],
                   "--out", prefix])
        assert rc == 0
        rows = open(prefix + ".csv").read().splitlines()
        assert rows[0] == "algo,trial,mean,lo,hi"
        assert len(rows) == 11
        svg = open(prefix + ".svg").read()
        assert svg.count("<polyline") == 2


class TestEchoAdapterCommand:
    def test_round_trip_over_stdio(self):
        lines = (
            json.dumps({"id": 1, "problem": "scf", "x": [200.0, 300.0, 50.0]})
            + "\n"
            + json.dumps({"id": 2, "problem": "scf", "x": [151.0, 101.0, 40.0]})
            + "\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "idkit.cli", "echo-adapter"],
            input=lines, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        got = [json.loads(l) for l in proc.stdout.splitlines()]
        assert got == [
            {"id": 1, "y": [200.0, 300.0, 50.0]},
            {"id": 2, "y": [151.0, 101.0, 40.0]},
        ]


class TestTrain:
    def test_trains_and_saves_checkpoint(self, data_dir, capsys):
        ds = str(data_dir / "d.jsonl")
        main(["gen-data", "--problem", "scf", "--n", "120", "--seed", "4",
              "--out", ds])
        model = str(data_dir / "fwd.npz")
        log = str(data_dir / "log.csv")
        rc = main(["train", "--problem", "scf", "--data", ds, "--epochs", "4",
                   "--out", model, "--log", log])
        assert rc == 0
        assert os.path.exists(model)
        assert open(log).readline().strip() == "epoch,train_loss,val_loss"
        assert "final val loss" in capsys.readouterr().out

    def test_default_checkpoint_is_a_bin_file(self, data_dir):
        from idkit import surrogate

        ds = str(data_dir / "d.jsonl")
        main(["gen-data", "--problem", "scf", "--n", "120", "--seed", "4",
              "--out", ds])
        rc = main(["train", "--problem", "scf", "--data", ds, "--epochs", "2"])
        assert rc == 0
        _, meta = surrogate.load_model(str(data_dir / "scf_forward.bin"))
        assert meta["model"] == "forward"
    def test_tandem_on_thin_films(self, data_dir, capsys):
        from idkit import surrogate

        ds = str(data_dir / "d.jsonl")
        main(["gen-data", "--problem", "motf", "--n", "100", "--seed", "4", "--out", ds])
        fwd = str(data_dir / "fwd.bin")
        assert main(["train", "--problem", "motf", "--data", ds, "--epochs", "2",
                     "--out", fwd]) == 0
        out = str(data_dir / "tandem.bin")
        rc = main(["train", "--problem", "motf", "--data", ds, "--model", "tandem",
                   "--forward-model", fwd, "--epochs", "2", "--out", out])
        assert rc == 0
        assert "saved tandem model" in capsys.readouterr().out
        model, meta = surrogate.load_model(out)
        space = get_space("motf")
        assert model.widths[0] == space.response_dim
        assert model.widths[-1] == space.onehot_length
        assert meta["model"] == "tandem"

    def test_tandem_needs_forward_model(self, data_dir):
        ds = str(data_dir / "d.jsonl")
        main(["gen-data", "--problem", "scf", "--n", "120", "--seed", "4",
              "--out", ds])
        with pytest.raises(SystemExit) as exc:
            main(["train", "--problem", "scf", "--data", ds, "--model", "tandem"])
        assert exc.value.code == 2
