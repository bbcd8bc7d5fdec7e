import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from distknn.adaptive import ClassifierKind
from distknn.simharness import (
    ExperimentConfig,
    GridConfig,
    ResultRow,
    SyntheticModel,
    eta_batch,
    generate_sample,
    partition_proportional,
    partition_uniform,
    run_experiment,
    shard_count,
)


def eta_at(x, model):
    return eta_batch(np.asarray(x, dtype=np.float64)[None, :], model)[0]


class TestEtaTrue:
    def test_corner_point_hits_floor(self):
        for kappa in (0.55, 0.60, 0.65):
            assert eta_at(np.ones(3), SyntheticModel(kappa)) == pytest.approx(kappa, abs=1e-12)

    def test_mid_radius_linear_value(self):
        # |x| = sqrt(3)/2 at x = (0.5, 0.5, 0.5), so the slope term is 5/6
        val = eta_at(np.full(3, 0.5), SyntheticModel(0.55))
        assert val == pytest.approx(5 / 6, abs=1e-12)

    def test_origin_clipped_to_one(self):
        assert eta_at(np.zeros(3), SyntheticModel(0.55)) == 1.0

    def test_matches_the_row_sum_form_bit_for_bit(self):
        # eta_batch adds the squared coordinates column by column; pin it to
        # the row-sum expression on random points, on grid points and on points
        # at the radii where eta reaches 1, 1/2 and the floor
        def row_sum_eta(points, model):
            norms = np.sqrt((points * points).sum(axis=-1))
            return np.minimum(1.0, np.maximum((5.0 / 3.0) * (1.0 - norms / math.sqrt(3.0)), model.kappa))

        rng = np.random.default_rng(31)
        model = SyntheticModel(0.3)
        directions = np.abs(rng.normal(size=(3000, 3)))
        directions /= np.sqrt((directions**2).sum(axis=1, keepdims=True))
        radii = math.sqrt(3.0) * np.array([0.4, 0.7, 0.82])  # eta = 1, 1/2, kappa
        shell = (directions[:, None, :] * radii[:, None]).reshape(-1, 3)
        points = np.concatenate([
            rng.random((100_000, 3)),
            rng.choice([0.0, 0.25, 0.5, 1.0], size=(500, 3)),
            shell,
            np.nextafter(shell, 0.0),
            np.nextafter(shell, 2.0),
        ])
        np.testing.assert_array_equal(eta_batch(points, model), row_sum_eta(points, model))
        stacked = points[:6000].reshape(4, 1500, 3)
        np.testing.assert_array_equal(eta_batch(stacked, model), row_sum_eta(stacked, model))

    def test_kappa_validated(self):
        with pytest.raises(ValueError):
            SyntheticModel(0.0)
        with pytest.raises(ValueError):
            SyntheticModel(1.2)


class TestBayesClassify:
    """The oracle rule 1{eta(x) >= 1/2} that the grid scores against."""

    def test_always_one_above_half(self):
        rng = np.random.default_rng(0)
        for kappa in (0.55, 0.65):
            assert np.all(eta_batch(rng.random((50, 3)), SyntheticModel(kappa)) >= 0.5)

    def test_boundary_with_low_floor(self):
        # sub-1/2 floor exercises the indicator: at the far corner eta = 0.3
        model = SyntheticModel(0.3)
        assert eta_at(np.ones(3), model) < 0.5
        assert eta_at(np.zeros(3), model) >= 0.5


def grid_mean_eta(kappa, cells=160):
    """Midpoint-rule integral of eta over the unit cube (independent oracle)."""
    centers = (np.arange(cells) + 0.5) / cells
    total = 0.0
    model = SyntheticModel(kappa)
    for x in centers:
        xx, yy = np.meshgrid(centers, centers, indexing="ij")
        pts = np.stack([np.full(xx.size, x), xx.ravel(), yy.ravel()], axis=1)
        total += eta_batch(pts, model).sum()
    return total / cells**3


class TestGenerateSample:
    def test_support(self):
        rng = np.random.default_rng(1)
        shard = generate_sample(500, SyntheticModel(0.6), rng)
        assert shard.features.min() >= 0.0 and shard.features.max() < 1.0
        assert set(np.unique(shard.labels)) <= {0, 1}

    def test_seed_determinism(self):
        a = generate_sample(100, SyntheticModel(0.6), np.random.default_rng(7))
        b = generate_sample(100, SyntheticModel(0.6), np.random.default_rng(7))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_mean_label_matches_integrated_eta(self):
        n = 100_000
        kappa = 0.60
        expected = grid_mean_eta(kappa)
        shard = generate_sample(n, SyntheticModel(kappa), np.random.default_rng(3))
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(shard.labels.mean() - expected) < 3 * se


class TestPartitionUniform:
    def test_remainder_distribution(self):
        rng = np.random.default_rng(2)
        data = generate_sample(10, SyntheticModel(0.6), rng)
        part = partition_uniform(data, 3, rng)
        assert part.sizes.tolist() == [4, 3, 3]

    def test_identity_partition(self):
        rng = np.random.default_rng(2)
        data = generate_sample(12, SyntheticModel(0.6), rng)
        part = partition_uniform(data, 1, rng)
        assert part.sizes.tolist() == [12]

    def test_singleton_split(self):
        rng = np.random.default_rng(2)
        data = generate_sample(6, SyntheticModel(0.6), rng)
        part = partition_uniform(data, 6, rng)
        assert part.sizes.tolist() == [1] * 6

    def test_m_out_of_range(self):
        rng = np.random.default_rng(2)
        data = generate_sample(5, SyntheticModel(0.6), rng)
        with pytest.raises(ValueError):
            partition_uniform(data, 0, rng)
        with pytest.raises(ValueError):
            partition_uniform(data, 6, rng)

    def test_union_preserves_data(self):
        rng = np.random.default_rng(8)
        data = generate_sample(57, SyntheticModel(0.6), rng)
        part = partition_uniform(data, 9, rng)
        original = np.column_stack([data.features, data.labels])
        rebuilt = np.column_stack([part.features, part.labels])
        key = lambda a: a[np.lexsort(a.T)]
        np.testing.assert_array_equal(key(original), key(rebuilt))


class TestPartitionProportional:
    def test_exact_ratio(self):
        rng = np.random.default_rng(4)
        data = generate_sample(60, SyntheticModel(0.6), rng)
        part = partition_proportional(data, 3, rng)
        assert part.sizes.tolist() == [30, 20, 10]

    def test_largest_remainder_small_case(self):
        rng = np.random.default_rng(4)
        data = generate_sample(7, SyntheticModel(0.6), rng)
        part = partition_proportional(data, 3, rng)
        assert part.sizes.tolist() == [4, 2, 1]

    def test_identity(self):
        rng = np.random.default_rng(4)
        data = generate_sample(9, SyntheticModel(0.6), rng)
        assert partition_proportional(data, 1, rng).sizes.tolist() == [9]

    def test_every_shard_nonempty_under_extreme_m(self):
        rng = np.random.default_rng(4)
        data = generate_sample(100, SyntheticModel(0.6), rng)
        part = partition_proportional(data, 40, rng)
        sizes = part.sizes
        assert sizes.sum() == 100
        assert sizes.min() >= 1
        assert np.all(np.diff(sizes) <= 0)

    def test_m_above_n_rejected(self):
        rng = np.random.default_rng(4)
        data = generate_sample(5, SyntheticModel(0.6), rng)
        with pytest.raises(ValueError, match="nonempty"):
            partition_proportional(data, 6, rng)

    def test_union_preserves_data(self):
        rng = np.random.default_rng(11)
        data = generate_sample(83, SyntheticModel(0.6), rng)
        part = partition_proportional(data, 12, rng)
        original = np.column_stack([data.features, data.labels])
        rebuilt = np.column_stack([part.features, part.labels])
        key = lambda a: a[np.lexsort(a.T)]
        np.testing.assert_array_equal(key(original), key(rebuilt))


def test_shard_count():
    assert shard_count(20000, 0.0) == 1
    assert shard_count(20000, 0.5) == 142
    assert shard_count(10, 0.9) == math.ceil(10**0.9)
    # exact integer powers: the float power lands just above them
    assert shard_count(1024, 0.8) == 256
    assert shard_count(3125, 0.2) == 5
    assert shard_count(32, 0.8) == 16
    assert shard_count(59049, 0.2) == 9


def test_shard_count_matches_integer_arithmetic():
    # m = ceil(N^(i/10)) is the least m with m**10 >= N**i
    for N in range(1, 5001):
        for i in range(10):
            m = shard_count(N, i / 10)
            assert m**10 >= N**i and (m - 1) ** 10 < N**i, (N, i / 10, m)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(N=1, kappa=0.6, epsilons=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(N=100, kappa=0.6, epsilons=(1.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(N=100, kappa=0.6, epsilons=(0.0,), split="random")
        with pytest.raises(ValueError):
            ExperimentConfig(N=100, kappa=0.6, epsilons=(0.0,), runs=0)
        with pytest.raises(ValueError, match=re.escape("kappa=0.0 outside (0, 1]")):
            ExperimentConfig(N=100, kappa=0.0, epsilons=(0.0,))

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("epsilons", (0, 0.0), "epsilon 0.0 is listed twice"),
            ("classifiers", ("dann", "DANN"), "classifier 'dann' is listed twice"),
        ],
        ids=["epsilon", "classifier"],
    )
    def test_repeated_key_rejected(self, field, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(N=100, kappa=0.6, **{"epsilons": (0.0,), field: values})

    def test_classifier_names_accepted(self):
        cfg = ExperimentConfig(N=100, kappa=0.6, epsilons=(0.0,), classifiers=("dann", "D1NN"))
        assert cfg.classifiers == (ClassifierKind.DANN, ClassifierKind.D1NN)

    def test_round_trip_dict(self):
        cfg = ExperimentConfig(N=100, kappa=0.6, epsilons=(0.0, 0.5), runs=3, seed=9)
        d = cfg.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert d["epsilons"] == [0.0, 0.5]
        assert d["classifiers"] == ["dann", "dann_nes", "dnn_qiao", "d1nn"]


class TestGridConfig:
    GRID_KEYS = ["epsilons", "split", "seed", "classifiers", "include_log_in_bound"]

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"epsilons": (1.0,)}, "epsilon 1.0 outside [0, 1)"),
            ({"epsilons": ()}, "need at least one epsilon"),
            ({"epsilons": (0.0,), "classifiers": ()}, "need at least one classifier"),
            ({"epsilons": (0.0,), "split": "diagonal"}, "split must be 'uniform' or 'proportional', got 'diagonal'"),
            ({"epsilons": (0.0,), "seed": -1}, "seed must be >= 0, got -1"),
        ],
        ids=["epsilon-range", "no-epsilon", "no-classifier", "split", "negative-seed"],
    )
    def test_every_grid_check(self, kw, message):
        for config in (GridConfig, lambda **k: ExperimentConfig(N=100, kappa=0.6, **k)):
            with pytest.raises(ValueError, match=re.escape(message)):
                config(**kw)

    def test_keyword_only_and_frozen(self):
        with pytest.raises(TypeError):
            GridConfig((0.0,))
        cfg = GridConfig(epsilons=(0,), classifiers=("DANN",))
        assert (cfg.epsilons, cfg.classifiers) == ((0.0,), (ClassifierKind.DANN,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1

    def test_dict_holds_the_grid_keys_only(self):
        assert list(GridConfig(epsilons=(0.0,)).to_dict()) == self.GRID_KEYS
        # the synthetic config adds its own four after the grid's
        extra = list(ExperimentConfig(N=100, kappa=0.6, epsilons=(0.0,)).to_dict())[len(self.GRID_KEYS):]
        assert extra == ["N", "kappa", "runs", "queries_per_run"]


class TestRunExperiment:
    def small_cfg(self, **kw):
        defaults = dict(
            N=400,
            kappa=0.60,
            epsilons=(0.0, 0.5),
            split="uniform",
            runs=12,
            seed=20260811,
            classifiers=(ClassifierKind.DANN, ClassifierKind.D1NN),
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_single_degenerate_run(self):
        cfg = self.small_cfg(runs=1, epsilons=(0.0,), classifiers=(ClassifierKind.DANN,))
        res = run_experiment(cfg)
        assert len(res.rows) == 1
        assert res.rows[0].agreement_rate in (0.0, 1.0)
        assert res.rows[0].m == 1

    def test_rows_cover_grid_and_k1_summaries(self):
        res = run_experiment(self.small_cfg())
        assert len(res.rows) == 4
        dann_row = res.row(ClassifierKind.DANN, 0.0)
        assert dann_row.k1_min is not None and dann_row.k1_min >= 1
        assert dann_row.k1_max <= 400
        d1nn_row = res.row(ClassifierKind.D1NN, 0.0)
        assert d1nn_row.k1_min is None

    def test_seed_determinism_across_worker_counts(self):
        cfg = self.small_cfg()
        res1 = run_experiment(cfg, workers=1)
        res2 = run_experiment(cfg, workers=2)
        for r1, r2 in zip(res1.rows, res2.rows):
            assert r1.classifier == r2.classifier
            assert r1.agreement_rate == r2.agreement_rate
            assert r1.k1_med == r2.k1_med
        for key in res1.agreement_samples:
            np.testing.assert_array_equal(res1.agreement_samples[key], res2.agreement_samples[key])

    def test_different_seed_changes_samples(self):
        res1 = run_experiment(self.small_cfg())
        res2 = run_experiment(self.small_cfg(seed=1))
        diffs = [
            not np.array_equal(res1.agreement_samples[k], res2.agreement_samples[k])
            for k in res1.agreement_samples
        ]
        assert any(diffs)

    def test_csv_and_json_outputs(self):
        res = run_experiment(self.small_cfg(runs=3))
        text = res.to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("classifier,epsilon,m,")
        assert len(lines) == 1 + len(res.rows)
        header, *cells = csv.reader(text.splitlines())
        names = [f.name for f in dataclasses.fields(ResultRow)]
        assert header == names
        assert any(row[names.index("k1_min")] == "" for row in cells)  # d1nn has no k1
        for row, r in zip(cells, res.rows):
            for name, cell in zip(names, row):
                value = getattr(r, name)
                if value is None:
                    assert cell == ""
                else:
                    assert type(value)(cell) == value, name  # floats read back exactly
        blob = json.loads(json.dumps(res.to_json_obj()))
        assert blob["config"]["N"] == 400
        assert blob["rows"] == [dataclasses.asdict(r) for r in res.rows]

    def test_queries_per_run_multiplies_samples(self):
        cfg = self.small_cfg(runs=4, queries_per_run=3, epsilons=(0.0,))
        res = run_experiment(cfg)
        assert res.agreement_samples[("dann", 0.0)].size == 12

    def test_bayes_constancy_above_half(self):
        # for kappa > 1/2 the oracle is constant 1, so the agreement rate is
        # exactly the positive-prediction rate; check the oracle side here
        rng = np.random.default_rng(0)
        model = SyntheticModel(0.55)
        pts = rng.random((2000, 3))
        assert np.all(eta_batch(pts, model) >= 0.55)
