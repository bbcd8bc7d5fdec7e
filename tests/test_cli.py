import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from distknn import simharness
from distknn.cli import (
    build_experiment_config,
    build_parser,
    main,
    parse_config_file,
    run_selftest,
)


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestConfigFile:
    def test_parse_key_values(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            # grid setup
            n = 1234
            kappa = 0.55
            epsilons = 0, 0.3, 0.6
            split = proportional
            runs = 7          # small
            classifiers = dann, d1nn
            include_log_in_bound = false
            """,
        )
        cfg = parse_config_file(path)
        assert cfg["n"] == ("1234", f"{path}:3")
        assert cfg["split"] == ("proportional", f"{path}:6")

    def test_malformed_line_rejected(self, tmp_path):
        path = write_config(tmp_path, "runs 7\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(path)

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, "n = 1000\n")
        parser = build_parser()
        args = parser.parse_args(["simulate", "--config", str(path), "--n", "555"])
        cfg = build_experiment_config(args, parse_config_file(path))
        assert cfg.N == 555

    def test_unread_key_rejected_with_its_line(self, tmp_path):
        path = write_config(tmp_path, "n = 1000\nrups = 1\n")
        args = build_parser().parse_args(["simulate", "--config", str(path), "--n", "555"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: config key 'rups'")):
            build_experiment_config(args, parse_config_file(path))

    def test_unread_keys_fail_the_command(self, tmp_path, capsys):
        path = write_config(tmp_path, "n = 300\nepsilon = 0.9\nruns = 2\nrunz = 50\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 1
        assert f"{path}:2: config key 'epsilon'" in capsys.readouterr().err
        assert not out.exists()
        # the simulation grid's keys are not settings of the census pipeline
        desk = Path(__file__).resolve().parent.parent / "configs" / "sim_desk.cfg"
        fixture = Path(__file__).parent / "data" / "adult_sample.data"
        assert main(["adult", "--config", str(desk), "--data", str(fixture), "--output", str(out)]) == 1
        assert f"{desk}:2: config key 'n'" in capsys.readouterr().err
        assert not out.exists()

    def test_file_values_used_when_no_flag(self, tmp_path):
        path = write_config(
            tmp_path, "n = 444\nkappa=0.65\nepsilons=0.2\nruns=3\nclassifiers=d1nn\n"
        )
        parser = build_parser()
        args = parser.parse_args(["simulate", "--config", str(path)])
        cfg = build_experiment_config(args, parse_config_file(path))
        assert (cfg.N, cfg.kappa, cfg.runs) == (444, 0.65, 3)
        assert cfg.epsilons == (0.2,)
        assert [k.value for k in cfg.classifiers] == ["d1nn"]

    def test_bad_config_value_names_key(self, tmp_path):
        path = write_config(tmp_path, "include_log_in_bound = maybe\n")
        parser = build_parser()
        args = parser.parse_args(["simulate", "--config", str(path)])
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: config key 'include_log_in_bound'")):
            build_experiment_config(args, parse_config_file(path))


    def test_file_seed_reaches_manifest(self, tmp_path):
        path = write_config(tmp_path, "seed = 12345\nn = 200\nruns = 2\nepsilons = 0\nclassifiers = d1nn\n")
        for extra, expected in (([], 12345), (["--seed", "7"], 7)):
            out = tmp_path / f"out{expected}"
            assert main(["simulate", "--config", str(path), "--output", str(out)] + extra) == 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == expected
            assert json.loads((out / "results.json").read_text())["config"]["seed"] == expected


class TestSimulateCommand:
    def test_end_to_end_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "simulate",
                "--n", "300",
                "--runs", "4",
                "--epsilons", "0,0.5",
                "--classifiers", "dann,d1nn",
                "--seed", "5",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert len(rows) == 4
        assert {r["classifier"] for r in rows} == {"dann", "d1nn"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        assert manifest["config"]["N"] == 300
        assert "numpy" in manifest["versions"]
        blob = json.loads((out / "results.json").read_text())
        assert blob["config"]["runs"] == 4

    def test_rerun_is_bit_identical_apart_from_runtimes(self, tmp_path):
        argv = [
            "simulate", "--n", "300", "--runs", "4", "--epsilons", "0,0.5",
            "--classifiers", "dann", "--seed", "5",
        ]
        assert main(argv + ["--output", str(tmp_path / "a")]) == 0
        assert main(argv + ["--output", str(tmp_path / "b"), "--threads", "2"]) == 0

        def strip_runtime(path):
            rows = list(csv.DictReader(open(path)))
            for r in rows:
                r.pop("mean_runtime_s")
            return rows

        assert strip_runtime(tmp_path / "a" / "results.csv") == strip_runtime(
            tmp_path / "b" / "results.csv"
        )

    def test_failed_runs_are_reported_and_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        from distknn import simharness

        split = simharness._partition_for

        def failing_above_one_shard(cfg, data, m, rng):
            if m > 1:
                raise RuntimeError("shard store unavailable")
            return split(cfg, data, m, rng)

        monkeypatch.setattr(simharness, "_partition_for", failing_above_one_shard)
        out = tmp_path / "out"
        rc = main(["simulate", "--n", "300", "--runs", "3", "--epsilons", "0,0.5",
                   "--classifiers", "d1nn", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "3 run(s) failed" in err
        assert "eps=0.5 run=0: RuntimeError: shard store unavailable" in err
        # the runs that worked are still written
        assert [r["epsilon"] for r in csv.DictReader(open(out / "results.csv"))] == ["0.0"]
        assert len(json.loads((out / "results.json").read_text())["failures"]) == 3

    def test_every_run_failing_still_writes_results(self, tmp_path, capsys, monkeypatch):
        def failing(cfg, data, m, rng):
            raise RuntimeError("shard store unavailable")

        monkeypatch.setattr(simharness, "_partition_for", failing)
        out = tmp_path / "out"
        rc = main(["simulate", "--n", "300", "--runs", "2", "--epsilons", "0,0.5",
                   "--classifiers", "d1nn", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "4 run(s) failed" in err
        assert "Traceback" not in err
        blob = json.loads((out / "results.json").read_text())
        assert blob["rows"] == []
        assert [f[:2] for f in blob["failures"]] == [[0.0, 0], [0.0, 1], [0.5, 0], [0.5, 1]]
        header = ",".join(f.name for f in dataclasses.fields(simharness.ResultRow))
        assert (out / "results.csv").read_text() == header + "\n"

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        for command in (["simulate"], ["selftest"], ["adult"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--threads", "0", "--output", str(tmp_path / "x")])
            assert exc.value.code == 2
            assert "argument --threads: must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_config_returns_nonzero(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "1", "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestAdultCommand:
    def test_missing_file_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DISTKNN_DATA_DIR", raising=False)
        rc = main(["adult", "--data", str(tmp_path / "nope.data"), "--output", str(tmp_path)])
        assert rc == 1
        assert "census file not found" in capsys.readouterr().err

    def test_env_var_controls_default_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DISTKNN_DATA_DIR", str(tmp_path))
        rc = main(["adult", "--output", str(tmp_path / "o")])
        assert rc == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_pipeline_on_fixture(self, tmp_path):
        fixture = Path(__file__).parent / "data" / "adult_sample.data"
        out = tmp_path / "out"
        rc = main(
            [
                "adult",
                "--data", str(fixture),
                "--epsilons", "0",
                "--classifiers", "d1nn",
                "--test-fraction", "0.3",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert rows[0]["classifier"] == "d1nn"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "adult"
        assert manifest["test_fraction"] == 0.3


class TestClassifyCommand:
    def make_files(self, tmp_path, rng):
        train = tmp_path / "train.csv"
        with open(train, "w") as fh:
            fh.write("x,y,label\n")
            for _ in range(60):
                a, b = rng.random(2)
                label = 1 if a > 0.5 else 0
                fh.write(f"{a},{b},{label}\n")
        queries = tmp_path / "queries.csv"
        with open(queries, "w") as fh:
            fh.write("y,x\n")  # column order deliberately shuffled
            fh.write("0.5,0.9\n0.5,0.1\n")
        return train, queries

    def test_predictions_written(self, tmp_path):
        rng = np.random.default_rng(0)
        train, queries = self.make_files(tmp_path, rng)
        out = tmp_path / "out"
        rc = main(
            ["classify", "--train", str(train), "--queries", str(queries),
             "--classifier", "dann", "--output", str(out), "--seed", "2"]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out / "predictions.csv")))
        assert len(rows) == 2
        assert rows[0]["predicted_label"] == "1"
        assert rows[1]["predicted_label"] == "0"
        for r in rows:
            assert 0.0 <= float(r["eta"]) <= 1.0  # plain decimal, no numpy repr

    def test_missing_feature_column_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        train, _ = self.make_files(tmp_path, rng)
        bad = tmp_path / "bad.csv"
        bad.write_text("x,z\n0.1,0.2\n")
        rc = main(["classify", "--train", str(train), "--queries", str(bad),
                   "--output", str(tmp_path / "o")])
        assert rc == 1
        assert "feature columns" in capsys.readouterr().err

    def test_nonfinite_query_row_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        train, _ = self.make_files(tmp_path, rng)
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.5,0.5\nnan,0.1\n0.2,0.2\n")
        rc = main(["classify", "--train", str(train), "--queries", str(bad),
                   "--output", str(tmp_path / "o")])
        assert rc == 1
        assert "query row 1 " in capsys.readouterr().err

    def test_fractional_label_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        train, queries = self.make_files(tmp_path, rng)
        lines = train.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",0.7"
        train.write_text("\n".join(lines) + "\n")
        rc = main(["classify", "--train", str(train), "--queries", str(queries),
                   "--output", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "row 4" in err and "0.7" in err

    def test_unknown_label_column_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        train, queries = self.make_files(tmp_path, rng)
        rc = main(["classify", "--train", str(train), "--queries", str(queries),
                   "--label-col", "target", "--output", str(tmp_path / "o")])
        assert rc == 1
        assert "label column" in capsys.readouterr().err


def test_selftest_function_and_command(capsys):
    assert run_selftest(instances=40, seed=0) == 0
    assert main(["selftest", "--instances", "30"]) == 0
    assert "selftest passed" in capsys.readouterr().out
