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
from distknn.simharness import shard_count


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path



def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))

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

    def test_repeated_key_rejected_with_both_lines(self, tmp_path, capsys):
        path = write_config(tmp_path, "n = 300\nruns = 2\nN = 400\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 1
        assert f"{path}:3: config key 'n' is already set at {path}:1" in capsys.readouterr().err
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


    @pytest.mark.parametrize("command", ["simulate", "adult"])
    def test_value_outside_choices_names_its_line(self, tmp_path, capsys, command):
        path = write_config(tmp_path, "seed = 3\nsplit = diagonal\n")
        out = tmp_path / "out"
        extra = ["--data", str(FIXTURE)] if command == "adult" else []
        assert main([command, "--config", str(path), "--output", str(out), *extra]) == 1
        message = f"error: {path}:2: config key 'split': must be 'uniform' or 'proportional', got 'diagonal'"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_file_seed_reaches_manifest(self, tmp_path):
        path = write_config(tmp_path, "seed = 12345\nn = 200\nruns = 2\nepsilons = 0\nclassifiers = d1nn\n")
        for extra, expected in (([], 12345), (["--seed", "7"], 7)):
            out = tmp_path / f"out{expected}"
            assert main(["simulate", "--config", str(path), "--output", str(out)] + extra) == 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == expected
            assert json.loads((out / "results.json").read_text())["config"]["seed"] == expected


FIXTURE = Path(__file__).parent / "data" / "adult_sample.data"

# Per key: (config-file text, the value it gives, flag text, the value it gives).
SIMULATE_KEYS = {
    "n": ("60", 60, "70", 70),
    "kappa": ("0.55", 0.55, "0.65", 0.65),
    "epsilons": ("0, 0.2", [0.0, 0.2], "0.1", [0.1]),
    "split": ("proportional", "proportional", "uniform", "uniform"),
    "runs": ("2", 2, "3", 3),
    "seed": ("11", 11, "12", 12),
    "classifiers": ("d1nn", ["d1nn"], "dnn_qiao,d1nn", ["dnn_qiao", "d1nn"]),
    "queries_per_run": ("2", 2, "3", 3),
    "include_log_in_bound": ("false", False, "true", True),
}
ADULT_KEYS = {
    "seed": ("11", 11, "12", 12),
    "test_fraction": ("0.25", 0.25, "0.3", 0.3),
    "epsilons": ("0, 0.2", [0.0, 0.2], "0.1", [0.1]),
    "split": ("uniform", "uniform", "proportional", "proportional"),
    "classifiers": ("d1nn", ["d1nn"], "dann,d1nn", ["dann", "d1nn"]),
    "include_log_in_bound": ("false", False, "true", True),
}
# Small runs; the key under test replaces its entry here.
BASE = {
    "simulate": {"n": "60", "runs": "1", "epsilons": "0", "classifiers": "d1nn"},
    "adult": {"epsilons": "0", "classifiers": "d1nn"},
}

# (default, type, choices) of each parsed flag: the flag set that scripts and
# config files rely on. ``split`` converts with str, which keeps the string as
# argparse's default type None would.
PARENT_FLAGS = {
    "simulate": {
        "config": (None, None, None),
        "n": (None, "int", None),
        "kappa": (None, "float", None),
        "epsilons": (None, "_as_float_list", None),
        "split": (None, "str", ("uniform", "proportional")),
        "runs": (None, "int", None),
        "classifiers": (None, "_as_name_list", None),
        "queries_per_run": (None, "int", None),
        "include_log_in_bound": (None, "_as_bool", None),
        "seed": (None, "_non_negative", None),
        "threads": (1, "_at_least_one", None),
        "output": ("results", None, None),
    },
    "adult": {
        "config": (None, None, None),
        "data": (None, None, None),
        "epsilons": (None, "_as_float_list", None),
        "split": (None, "str", ("uniform", "proportional")),
        "classifiers": (None, "_as_name_list", None),
        "test_fraction": (None, "_open_fraction", None),
        "include_log_in_bound": (None, "_as_bool", None),
        "seed": (None, "_non_negative", None),
        "threads": (1, "_at_least_one", None),
        "output": ("results", None, None),
    },
}


def run_with_settings(tmp_path, command, key, flag_text=None):
    """Run ``command`` with ``key`` set in a config file, and by its flag if
    ``flag_text`` is given; returns the manifest's value for the key."""
    text = SIMULATE_KEYS[key][0] if command == "simulate" else ADULT_KEYS[key][0]
    values = {**BASE[command], key: text}
    path = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / ("flag" if flag_text else "file")
    argv = [command, "--config", str(path), "--output", str(out)]
    if command == "adult":
        argv += ["--data", str(FIXTURE)]
    if flag_text is not None:
        argv += ["--" + key.replace("_", "-"), flag_text]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    if key == "test_fraction":
        return manifest[key]
    return manifest["config"]["N" if key == "n" else key]


class TestSettings:
    @pytest.mark.parametrize(
        "command, key", [("simulate", k) for k in SIMULATE_KEYS] + [("adult", k) for k in ADULT_KEYS]
    )
    def test_file_value_reaches_manifest_and_flag_overrides_it(self, tmp_path, command, key):
        _, from_file, flag_text, from_flag = (SIMULATE_KEYS if command == "simulate" else ADULT_KEYS)[key]
        assert run_with_settings(tmp_path, command, key) == from_file
        assert run_with_settings(tmp_path, command, key, flag_text) == from_flag

    @pytest.mark.parametrize("command", ["simulate", "adult"])
    def test_parsed_flags_unchanged(self, command):
        subs = next(a for a in build_parser()._actions if a.choices and command in a.choices)
        got = {
            a.dest: (a.default, getattr(a.type, "__name__", None), tuple(a.choices) if a.choices else None)
            for a in subs.choices[command]._actions
            if a.dest != "help"
        }
        assert got == PARENT_FLAGS[command]

    def test_defaults(self, tmp_path):
        cfg = build_experiment_config(build_parser().parse_args(["simulate"]), {})
        assert cfg == simharness.ExperimentConfig(
            N=20000, kappa=0.60, epsilons=tuple(i / 10 for i in range(10)), split="uniform", runs=500,
            seed=0, classifiers=("dann", "dann_nes", "dnn_qiao", "d1nn"), queries_per_run=1,
            include_log_in_bound=True,
        )
        out = tmp_path / "adult"
        assert main(["adult", "--data", str(FIXTURE), "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["seed"], manifest["test_fraction"]) == (0, 0.2)
        config = manifest["config"]
        assert config["epsilons"] == [i / 10 for i in range(10)]
        assert (config["split"], config["classifiers"]) == ("proportional", ["dann", "dnn_qiao", "d1nn"])
        assert config["include_log_in_bound"] is True


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
        rows = read_csv_rows(out / "results.csv")
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
            rows = read_csv_rows(path)
            for r in rows:
                r.pop("mean_runtime_s")
            return rows

        assert strip_runtime(tmp_path / "a" / "results.csv") == strip_runtime(
            tmp_path / "b" / "results.csv"
        )

    def test_failed_runs_are_reported_and_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        from distknn import simharness

        split = simharness._partition_for

        def failing_above_one_shard(split_name, data, m, rng):
            if m > 1:
                raise RuntimeError("shard store unavailable")
            return split(split_name, data, m, rng)

        monkeypatch.setattr(simharness, "_partition_for", failing_above_one_shard)
        out = tmp_path / "out"
        rc = main(["simulate", "--n", "300", "--runs", "3", "--epsilons", "0,0.5",
                   "--classifiers", "d1nn", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "3 run(s) failed" in err
        assert "eps=0.5 run=0: RuntimeError: shard store unavailable" in err
        # the runs that worked are still written
        assert [r["epsilon"] for r in read_csv_rows(out / "results.csv")] == ["0.0"]
        assert len(json.loads((out / "results.json").read_text())["failures"]) == 3

    def test_every_run_failing_still_writes_results(self, tmp_path, capsys, monkeypatch):
        def failing(split_name, data, m, rng):
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
        for command in (["simulate"], ["adult"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--threads", "0", "--output", str(tmp_path / "x")])
            assert exc.value.code == 2
            assert "argument --threads: must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_config_returns_nonzero(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "1", "--output", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kappa", "0"], "error: kappa=0.0 outside (0, 1]"),
            (["--epsilons", "0,0"], "error: epsilon 0.0 is listed twice"),
            (["--classifiers", "d1nn,D1NN"], "error: classifier 'd1nn' is listed twice"),
        ],
        ids=["kappa-0", "epsilon-twice", "classifier-twice"],
    )
    def test_bad_grid_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, flags, message):
        runs = []
        monkeypatch.setattr(simharness, "_simulate_run", runs.append)
        rc = main(["simulate", "--n", "300", "--runs", "2", "--output", str(tmp_path / "x")] + flags)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["simulate", "adult", "classify", "selftest"])
def test_negative_seed_flag_rejected_by_the_parser(tmp_path, capsys, monkeypatch, command):
    runs = []
    monkeypatch.setattr(simharness, "_simulate_run", runs.append)
    argv = [command, "--seed", "-1"]
    if command == "adult":
        argv += ["--data", str(FIXTURE)]
    if command == "classify":
        argv += ["--train", str(tmp_path / "t.csv"), "--queries", str(tmp_path / "q.csv")]
    if command != "selftest":
        argv += ["--output", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "o").exists()


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
        rows = read_csv_rows(out / "results.csv")
        assert rows[0]["classifier"] == "d1nn"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "adult"
        assert manifest["test_fraction"] == 0.3

    def test_repeated_classifier_rejected(self, tmp_path, capsys):
        rc = main(["adult", "--data", str(FIXTURE), "--classifiers", "dann,dann", "--output", str(tmp_path / "o")])
        assert rc == 1
        assert "error: classifier 'dann' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--classifiers", "dann,DANN", "error: classifier 'dann' is listed twice"),
            ("--epsilons", "0.3,0.30", "error: epsilon 0.3 is listed twice"),
            ("--epsilons", "1.0", "error: epsilon 1.0 outside [0, 1)"),
            ("--epsilons", "", "error: need at least one epsilon"),
            # a config file's value; its flag has choices
            ("--config", "split = diagonal", "config key 'split': must be 'uniform' or 'proportional', got 'diagonal'"),
            ("--config", "seed = -1", "config key 'seed': must be at least 0, got -1"),
        ],
    )
    def test_repeated_key_rejected_before_reading(self, tmp_path, capsys, monkeypatch, flag, value, message):
        from distknn import cli

        def unread(path):
            raise AssertionError("the census file was read")

        monkeypatch.setattr(cli, "ingest_adult", unread)
        if flag == "--config":
            value = str(write_config(tmp_path, value + "\n"))
        rc = main(["adult", "--data", str(FIXTURE), flag, value, "--output", str(tmp_path / "o")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert message in err
        assert "adult:" not in out
        assert not (tmp_path / "o").exists()

    def test_config_block_holds_the_grid_keys_only(self, tmp_path):
        out = tmp_path / "o"
        assert main(["adult", "--data", str(FIXTURE), "--epsilons", "0,0.5", "--output", str(out)]) == 0
        grid = ["epsilons", "split", "seed", "classifiers", "include_log_in_bound"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(json.loads((out / "results.json").read_text())["config"]) == grid
        assert list(manifest["config"]) == grid
        # the 13 fixture records split 11/2 at the default test fraction
        assert (manifest["train_rows"], manifest["test_rows"]) == (11, 2)
        for row in read_csv_rows(out / "results.csv"):
            assert int(row["m"]) == shard_count(manifest["train_rows"], float(row["epsilon"]))

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.2"])
    def test_test_fraction_flag_outside_open_unit_interval(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["adult", "--data", str(FIXTURE), "--test-fraction", value, "--output", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument --test-fraction: must be in (0, 1), got {float(value)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_test_fraction_config_value_names_its_line_before_reading(self, tmp_path, capsys, monkeypatch):
        from distknn import cli

        def unread(path):
            raise AssertionError("the census file was read")

        monkeypatch.setattr(cli, "ingest_adult", unread)
        cfg = write_config(tmp_path, "seed = 3\ntest_fraction = 1.5\n")
        rc = main(["adult", "--data", str(FIXTURE), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert f"error: {cfg}:2: config key 'test_fraction': must be in (0, 1), got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
        rows = read_csv_rows(out / "predictions.csv")
        assert len(rows) == 2
        assert rows[0]["predicted_label"] == "1"
        assert rows[1]["predicted_label"] == "0"
        for r in rows:
            assert 0.0 <= float(r["eta"]) <= 1.0  # plain decimal, no numpy repr

    def test_header_only_queries_write_header_only_predictions(self, tmp_path):
        rng = np.random.default_rng(5)
        train, _ = self.make_files(tmp_path, rng)
        queries = tmp_path / "none.csv"
        queries.write_text("x,y\n")
        out = tmp_path / "out"
        rc = main(["classify", "--train", str(train), "--queries", str(queries), "--output", str(out)])
        assert rc == 0
        assert (out / "predictions.csv").read_text() == "row,predicted_label,eta,k1\n"

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
        # inf and -inf must not be clamped into [0, 1] by the scaling; the
        # reader names the file, line and column, as for the training table
        for cell in ("nan", "inf", "-inf"):
            bad.write_text(f"x,y\n0.5,0.5\n{cell},0.1\n0.2,0.2\n")
            rc = main(["classify", "--train", str(train), "--queries", str(bad),
                       "--output", str(tmp_path / "o")])
            assert rc == 1, cell
            assert f"{bad}: row 3: column 'x' is not finite: '{cell}'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_training_feature_names_row_and_column(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        train, queries = self.make_files(tmp_path, rng)
        lines = train.read_text().splitlines()
        for cell in ("nan", "inf", "-inf"):
            train.write_text("\n".join(lines[:3] + [f"0.5,{cell},1"] + lines[4:]) + "\n")
            rc = main(["classify", "--train", str(train), "--queries", str(queries),
                       "--output", str(tmp_path / "o")])
            assert rc == 1, cell
            assert f"{train}: row 4: column 'y' is not finite: '{cell}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shards", "0"], "argument --shards: must be at least 1, got 0"),
            (["--epsilon", "1.5"], "argument --epsilon: must be in [0, 1), got 1.5"),
            (["--epsilon", "-0.5"], "argument --epsilon: must be in [0, 1), got -0.5"),
        ],
        ids=["shards-0", "epsilon-1.5", "epsilon-minus-0.5"],
    )
    def test_out_of_range_flag_rejected(self, tmp_path, capsys, flags, message):
        train, queries = self.make_files(tmp_path, np.random.default_rng(7))
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--train", str(train), "--queries", str(queries),
                  "--output", str(tmp_path / "o")] + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_shards_and_epsilon_together_rejected_before_reading(self, tmp_path, capsys):
        # either sets m: given both, --epsilon was dropped without a word
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--train", str(tmp_path / "missing.csv"), "--queries", str(tmp_path / "q.csv"),
                  "--shards", "2", "--epsilon", "0.5", "--output", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --epsilon: not allowed with argument --shards" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_classifier_rejected_before_reading(self, tmp_path, capsys):
        # the name is checked at parse time: the missing training file is never opened
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--train", str(tmp_path / "missing.csv"), "--queries", str(tmp_path / "q.csv"),
                  "--classifier", "bogus", "--output", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --classifier: unknown classifier 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_records_the_bound_and_label_settings(self, tmp_path):
        # both change what is classified: the log factor moves dann's k1 bound
        train, queries = self.make_files(tmp_path, np.random.default_rng(9))
        train.write_text(train.read_text().replace("x,y,label", "x,y,target", 1))
        for flag, expected in (([], True), (["--include-log-in-bound", "false"], False)):
            out = tmp_path / f"o{expected}"
            rc = main(["classify", "--train", str(train), "--queries", str(queries),
                       "--label-col", "target", "--output", str(out)] + flag)
            assert rc == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert (config["include_log_in_bound"], config["label_col"]) == (expected, "target")

    def test_classifier_name_folded(self, tmp_path):
        train, queries = self.make_files(tmp_path, np.random.default_rng(6))
        rc = main(["classify", "--train", str(train), "--queries", str(queries),
                   "--classifier", " DANN ", "--output", str(tmp_path / "o")])
        assert rc == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["classifier"] == "dann"

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

    @pytest.mark.parametrize(
        "table, text", [("train", "x,x,label\n0.1,0.2,1\n"), ("queries", "y,x,x\n0.5,0.9,0.3\n")], ids=["train", "queries"]
    )
    def test_repeated_header_column_rejected(self, tmp_path, capsys, table, text):
        # a second 'x' would read the first one's cells and never its own
        files = dict(zip(("train", "queries"), self.make_files(tmp_path, np.random.default_rng(8))))
        files[table].write_text(text)
        rc = main(["classify", "--train", str(files["train"]), "--queries", str(files["queries"]),
                   "--classifier", "d1nn", "--output", str(tmp_path / "o")])
        assert rc == 1
        assert f"{files[table]}: column 'x' appears more than once in the header" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "table, row, cells", [("train", "1,0,1,7", 4), ("queries", "0.5,0.1,7", 3)], ids=["train", "queries"]
    )
    def test_row_longer_than_its_header_rejected(self, tmp_path, capsys, table, row, cells):
        files = dict(zip(("train", "queries"), self.make_files(tmp_path, np.random.default_rng(8))))
        lines = files[table].read_text().splitlines()
        lines[2] = row  # line 3: one cell more than the header names
        files[table].write_text("\n".join(lines) + "\n")
        rc = main(["classify", "--train", str(files["train"]), "--queries", str(files["queries"]),
                   "--output", str(tmp_path / "o")])
        assert rc == 1
        assert f"{files[table]}: row 3: {cells} cells, the header has {cells - 1}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_label_column_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        train, queries = self.make_files(tmp_path, rng)
        rc = main(["classify", "--train", str(train), "--queries", str(queries),
                   "--label-col", "target", "--output", str(tmp_path / "o")])
        assert rc == 1
        assert "label column" in capsys.readouterr().err

    def test_label_only_training_table_rejected(self, tmp_path, capsys):
        _, queries = self.make_files(tmp_path, np.random.default_rng(1))
        train = tmp_path / "labels.csv"
        train.write_text("label\n0\n1\n1\n")
        rc = main(["classify", "--train", str(train), "--queries", str(queries), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert f"{train}: no feature column besides the label column 'label'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body, rows", [("", 0), ("0.5,1\n", 1)], ids=["header-only", "one-row"])
    def test_training_table_below_two_rows_rejected(self, tmp_path, capsys, body, rows):
        _, queries = self.make_files(tmp_path, np.random.default_rng(1))
        train = tmp_path / "short.csv"
        train.write_text("x,label\n" + body)
        rc = main(["classify", "--train", str(train), "--queries", str(queries), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert f"{train}: a training table needs at least 2 data rows, got {rows}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", [["--threads", "3"], ["--output", "somewhere"]])
def test_selftest_rejects_flags_it_would_ignore(flag, tmp_path, monkeypatch, capsys):
    # selftest runs in one process and writes no file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--instances", "2"] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_selftest_instances_below_one_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--instances", "-3"])
    assert exc.value.code == 2
    assert "argument --instances: must be at least 1, got -3" in capsys.readouterr().err


def test_selftest_function_and_command(capsys):
    assert run_selftest(instances=40, seed=0) == 0
    assert main(["selftest", "--instances", "30"]) == 0
    assert "selftest passed" in capsys.readouterr().out


@pytest.mark.parametrize("fault", ["inverted-flag", "stop-one-late", "stop-one-early"])
def test_selftest_catches_a_faulty_scan(monkeypatch, capsys, fault):
    # the random labels almost never cross the paper's threshold, so a stop
    # off by one at a crossing shows only at each walk's median statistic
    from distknn import cli

    def faulty(prefix, kj, threshold, _scan=cli.scan_first_crossing):
        stop, eta, crossed = _scan(prefix, kj, threshold)
        if fault == "inverted-flag":
            return stop, eta, ~crossed
        shifted = np.clip(stop + (1 if fault == "stop-one-late" else -1), 0, kj.shape[0] - 1)
        return np.where(crossed, shifted, stop), eta, crossed

    monkeypatch.setattr(cli, "scan_first_crossing", faulty)
    assert run_selftest(instances=30, seed=0) > 0
    assert "first crossing vs the oracle's walk on 240 scans: " in capsys.readouterr().out


def test_selftest_sees_a_late_stop_in_the_engine(monkeypatch, capsys):
    # the signal band's walks cross the paper's threshold, so the engine's
    # batched path must stop where the oracle does, not one step later
    from distknn import engine

    assert run_selftest(instances=200, seed=0) == 0
    crossed = re.search(r"; (\d+) crossed the paper's threshold\n", capsys.readouterr().out)
    assert crossed is not None and int(crossed.group(1)) > 0

    def late(prefix, kj, threshold, _scan=engine.scan_first_crossing):
        stop, eta, crossed = _scan(prefix, kj, threshold)
        return np.where(crossed, np.minimum(stop + 1, kj.shape[0] - 1), stop), eta, crossed

    monkeypatch.setattr(engine, "scan_first_crossing", late)
    assert run_selftest(instances=200, seed=0) > 0


def test_selftest_reaches_both_profile_strategies(monkeypatch):
    """CI's ``selftest --instances 200`` (seed 0) checks the run loop and the
    candidate sort, the latter both cut and over whole rows."""
    from distknn import engine

    taken = []
    for name in ("_run_profiles", "_segmented_profiles"):

        def spy(partition, dist, shard_depths, *rest, _fn=getattr(engine, name), _name=name):
            taken.append((_name, int(shard_depths.sum()), dist.shape[1]))
            return _fn(partition, dist, shard_depths, *rest)

        monkeypatch.setattr(engine, name, spy)
    assert run_selftest(instances=200, seed=0) == 0
    assert any(name == "_run_profiles" for name, _, _ in taken)
    cut = {engine.CANDIDATE_FACTOR * depth < n for name, depth, n in taken if name == "_segmented_profiles"}
    assert cut == {True, False}
