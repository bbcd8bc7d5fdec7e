import dataclasses
import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from distknn import engine
from distknn.engine import ClassifierKind, Shard
from distknn.realdata import (
    apply_scaling,
    evaluate_real,
    fit_scaling,
    ingest_adult,
    train_test_split,
)
from distknn.simharness import ExperimentConfig, GridConfig

FIXTURE = Path(__file__).parent / "data" / "adult_sample.data"
ROW = "40, Private, 100, HS-grad, 9, Never-married, Sales, Husband, White, Male, 0, 0, 40, United-States, >50K\n"
FNLWGT = 1  # feature column of fnlwgt


class TestIngest:
    def test_fixture_counts(self, caplog):
        # 16 lines: 13 clean, 1 "?" in a used column, 1 short row, 1 bad number
        with caplog.at_level(logging.INFO, logger="distknn.realdata"):
            feats, labels = ingest_adult(FIXTURE)
        assert feats.shape == (13, 6)
        assert labels.shape == (13,)
        assert "kept 13 records, skipped 3 rows" in caplog.text

    def test_missing_marker_in_unused_column_kept(self):
        feats, _ = ingest_adult(FIXTURE)
        # the row with "?" workclass survives: only the six used columns and
        # the label are checked for the marker
        assert 280464 in feats[:, FNLWGT]

    def test_missing_marker_in_used_column_dropped(self):
        feats, _ = ingest_adult(FIXTURE)
        assert 122272 not in feats[:, FNLWGT]

    def test_label_mapping_and_trailing_period(self):
        feats, labels = ingest_adult(FIXTURE)
        by_fnlwgt = dict(zip(feats[:, FNLWGT].tolist(), labels.tolist()))
        assert by_fnlwgt[77516] == 0
        assert by_fnlwgt[209642] == 1
        assert by_fnlwgt[141297] == 1  # ">50K." variant

    def test_single_valid_row(self, tmp_path):
        path = tmp_path / "one.data"
        path.write_text(ROW)
        feats, labels = ingest_adult(path)
        # age, fnlwgt, education-num, capital-gain, capital-loss, hours-per-week
        assert feats.tolist() == [[40.0, 100.0, 9.0, 0.0, 0.0, 40.0]]
        assert feats.dtype == np.float64
        assert labels.tolist() == [1]
        assert labels.dtype == np.int64

    def test_edge_rows_kept_or_skipped_by_one_rule(self, tmp_path, caplog):
        # kept: 15 fields, a known income label (a trailing period allowed) and
        # six finite numbers, in any form float() reads; blank lines are no rows
        def row_with(col, text):
            fields = ROW.rstrip("\n").split(", ")
            fields[col] = text
            return ", ".join(fields) + "\n"

        fields = ROW.rstrip("\n").split(", ")
        lines = [
            ROW,
            "\n",
            "   \n",
            ", ".join(fields[:-1]) + "\n",  # 14 fields
            ", ".join(fields + ["extra"]) + "\n",  # 16 fields
            row_with(14, "?"),
            row_with(14, "maybe"),
            row_with(14, "<=50K."),
            row_with(0, "inf"),
            row_with(12, "nan"),
            row_with(2, "1e400"),
            row_with(0, "?"),
            row_with(4, "x9"),
            row_with(10, "1_000"),
            " , \n",
        ]
        path = tmp_path / "edges.data"
        path.write_text("".join(lines))
        with caplog.at_level(logging.INFO, logger="distknn.realdata"):
            feats, labels = ingest_adult(path)
        assert feats.tolist() == [[40.0, 100.0, 9.0, 0.0, 0.0, 40.0]] * 2 + [[40.0, 100.0, 9.0, 1000.0, 0.0, 40.0]]
        assert labels.tolist() == [1, 0, 1]
        assert "kept 3 records, skipped 10 rows" in caplog.text

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            ingest_adult(tmp_path / "missing.data")

    def test_ingestion_deterministic_order(self):
        a = ingest_adult(FIXTURE)
        b = ingest_adult(FIXTURE)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestScaling:
    def test_linear_rescale(self):
        feats = np.array([[0.0], [5.0], [10.0]])
        scaled = apply_scaling(feats, fit_scaling(feats))
        np.testing.assert_allclose(scaled[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        feats = np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
        scaled = apply_scaling(feats, fit_scaling(feats))
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_test_values_clamped(self):
        train = np.array([[0.0], [10.0]])
        scaling = fit_scaling(train)
        scaled = apply_scaling(np.array([[15.0], [-3.0]]), scaling)
        np.testing.assert_allclose(scaled[:, 0], [1.0, 0.0])

    def test_idempotent_on_scaled_training_data(self):
        rng = np.random.default_rng(0)
        feats = rng.random((50, 4)) * np.array([10, 1, 100, 3])
        scaling = fit_scaling(feats)
        once = apply_scaling(feats, scaling)
        twice = apply_scaling(once, fit_scaling(once))
        np.testing.assert_allclose(once, twice)

    def test_scale_features_end_to_end(self):
        feats, labels = ingest_adult(FIXTURE)
        scaling = fit_scaling(feats)
        shard = Shard(1, apply_scaling(feats, scaling), labels)
        assert shard.dim == 6
        assert shard.features.min() >= 0.0 and shard.features.max() <= 1.0
        assert scaling.mins.shape == (6,)

    def test_empty_rejected(self, tmp_path):
        # a file whose every row is skipped has nothing to scale
        path = tmp_path / "bad.data"
        path.write_text(ROW.replace(">50K", "?") + "1, 2, 3\n")
        with pytest.raises(ValueError, match="no usable census rows"):
            ingest_adult(path)
        with pytest.raises(ValueError, match="empty"):
            fit_scaling(np.empty((0, 6)))


class TestTrainTestSplit:
    def make_shard(self, n, rng):
        return Shard(1, rng.random((n, 2)), rng.integers(0, 2, n))

    def test_census_split_sizes(self):
        rng = np.random.default_rng(1)
        split = train_test_split(self.make_shard(32561, rng), 0.2, rng)
        assert split.train.size == 26049
        assert split.test.size == 6512

    def test_even_split(self):
        rng = np.random.default_rng(1)
        split = train_test_split(self.make_shard(10, rng), 0.5, rng)
        assert (split.train.size, split.test.size) == (5, 5)

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        shard = self.make_shard(40, rng)
        s1 = train_test_split(shard, 0.25, np.random.default_rng(5))
        s2 = train_test_split(shard, 0.25, np.random.default_rng(5))
        np.testing.assert_array_equal(s1.train.features, s2.train.features)
        np.testing.assert_array_equal(s1.test.labels, s2.test.labels)

    def test_disjoint_union(self):
        rng = np.random.default_rng(3)
        shard = self.make_shard(30, rng)
        split = train_test_split(shard, 0.3, rng)
        combined = np.vstack([split.train.features, split.test.features])
        key = lambda a: a[np.lexsort(a.T)]
        np.testing.assert_array_equal(key(combined), key(np.asarray(shard.features)))

    def test_fraction_validated(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            train_test_split(self.make_shard(10, rng), 0.0, rng)
        with pytest.raises(ValueError):
            train_test_split(self.make_shard(10, rng), 1.0, rng)

    @pytest.mark.parametrize("fraction", ["0.5", None])
    def test_fraction_that_is_not_a_number_rejected(self, fraction):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match=f"^test_fraction must be a number, got {fraction!r}$"):
            train_test_split(self.make_shard(10, rng), fraction, rng)

    def test_empty_test_side_rejected(self):
        # ceil(10 * 0.99) leaves all 10 rows for training
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="^test split is empty; lower the test fraction$"):
            train_test_split(self.make_shard(10, rng), 0.01, rng)

    def test_training_side_below_two_rows_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match=r"^test_fraction=0\.95 leaves 1 of 10 rows for training; at least 2"):
            train_test_split(self.make_shard(10, rng), 0.95, rng)
        split = train_test_split(self.make_shard(10, rng), 0.8, rng)
        assert (split.train.size, split.test.size) == (2, 8)


def learnable_dataset(n, rng, d=6):
    """Synthetic stand-in with genuinely learnable labels."""
    feats = rng.random((n, d))
    eta = 0.15 + 0.7 * (feats[:, 0] > 0.5)
    labels = (rng.random(n) < eta).astype(np.int64)
    return Shard(1, feats, labels)


class TestEvaluateReal:
    def test_dann_beats_majority_on_learnable_data(self):
        rng = np.random.default_rng(6)
        train = learnable_dataset(3000, rng)
        test = learnable_dataset(800, rng)
        cfg = ExperimentConfig(
            N=train.size,
            kappa=0.6,
            epsilons=(0.0, 0.3),
            split="proportional",
            runs=1,
            seed=17,
            classifiers=(ClassifierKind.DANN,),
        )
        res = evaluate_real(train, test, cfg)
        majority = max(test.labels.mean(), 1 - test.labels.mean())
        for eps in cfg.epsilons:
            assert res.row(ClassifierKind.DANN, eps).agreement_rate > majority

    def test_rows_and_k1_summaries(self):
        rng = np.random.default_rng(7)
        train = learnable_dataset(500, rng)
        test = learnable_dataset(100, rng)
        cfg = ExperimentConfig(
            N=500,
            kappa=0.6,
            epsilons=(0.0, 0.5),
            split="uniform",
            seed=3,
            classifiers=(ClassifierKind.DANN, ClassifierKind.D1NN),
        )
        res = evaluate_real(train, test, cfg)
        assert len(res.rows) == 4
        assert res.row(ClassifierKind.DANN, 0.0).k1_min >= 1
        assert res.row(ClassifierKind.D1NN, 0.5).k1_min is None
        assert res.row(ClassifierKind.DANN, 0.5).m == 23

    def test_deterministic_across_workers(self):
        rng = np.random.default_rng(8)
        train = learnable_dataset(600, rng)
        test = learnable_dataset(900, rng)
        cfg = ExperimentConfig(
            N=600,
            kappa=0.6,
            epsilons=(0.2,),
            split="proportional",
            seed=11,
            classifiers=(ClassifierKind.DANN,),
        )
        r1 = evaluate_real(train, test, cfg, workers=1)
        r2 = evaluate_real(train, test, cfg, workers=3)
        assert r1.row("dann", 0.2).agreement_rate == r2.row("dann", 0.2).agreement_rate
        np.testing.assert_array_equal(
            r1.agreement_samples[("dann", 0.2)], r2.agreement_samples[("dann", 0.2)]
        )

    def test_grid_config_gives_the_rows_of_the_synthetic_config(self):
        rng = np.random.default_rng(10)
        train = learnable_dataset(400, rng)
        test = learnable_dataset(60, rng)
        grid = dict(epsilons=(0.0, 0.5), split="proportional", seed=5, classifiers=("dann", "d1nn"))
        got = evaluate_real(train, test, GridConfig(**grid))
        want = evaluate_real(train, test, ExperimentConfig(N=train.size, kappa=0.6, runs=1, **grid))
        rows = [[dataclasses.replace(r, mean_runtime_s=0.0) for r in res.rows] for res in (got, want)]
        assert rows[0] == rows[1]

    def test_one_pool_per_epsilon_and_no_worker_left(self, monkeypatch):
        started = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
        rng = np.random.default_rng(11)
        train = learnable_dataset(400, rng)
        test = learnable_dataset(300, rng)  # two chunks of the default 256 rows
        cfg = GridConfig(epsilons=(0.0, 0.5), split="proportional", seed=2)
        pooled = evaluate_real(train, test, cfg, workers=2)
        assert started == [2, 2]  # one per epsilon, for all four classifiers
        assert multiprocessing.active_children() == []
        rows = [[dataclasses.replace(r, mean_runtime_s=0.0) for r in res.rows]
                for res in (pooled, evaluate_real(train, test, cfg))]
        assert rows[0] == rows[1]

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        cfg = ExperimentConfig(N=100, kappa=0.6, epsilons=(0.0,))
        with pytest.raises(ValueError):
            evaluate_real(learnable_dataset(100, rng, d=6), learnable_dataset(10, rng, d=5), cfg)
