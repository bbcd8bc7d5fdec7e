"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The desk-scale grids use 200 runs at N=20000; the full-size grids remain
reachable through the CLI config file. Expected wall time for the whole
module is a few minutes on a small machine.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from partitions import one_shard

from distknn import oracle
from distknn.adaptive import StoppingConfig, k1_bound, scan_first_crossing, stopping_threshold
from distknn.baselines import ClassifierKind, depths
from distknn.engine import build_prefix_tensor, query_distance_matrix
from distknn.neighbors import Shard, k_smallest_rows
from distknn.realdata import (
    apply_scaling,
    evaluate_real,
    fit_scaling,
    ingest_adult,
    train_test_split,
)
from distknn.simharness import (
    ExperimentConfig,
    partition_proportional,
    partition_uniform,
    run_experiment,
)

MAIN_SEED = 20260811
K55_SEED = 20260812
K65_SEED = 20260813
DESK_RUNS = 200
GRID_WORKERS = min(8, os.cpu_count() or 1)

EPS_GRID = tuple(i / 10 for i in range(10))


def report(criterion: int, state: bool | str, detail: str) -> None:
    if isinstance(state, bool):
        state = "PASS" if state else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {state} - {detail}")


@pytest.fixture(scope="module")
def main_grid():
    cfg = ExperimentConfig(
        N=20000,
        kappa=0.60,
        epsilons=EPS_GRID,
        split="uniform",
        runs=DESK_RUNS,
        seed=MAIN_SEED,
        classifiers=("dann", "dann_nes", "dnn_qiao", "d1nn"),
    )
    return cfg, run_experiment(cfg, workers=GRID_WORKERS)


@pytest.fixture(scope="module")
def k55_grid():
    cfg = ExperimentConfig(
        N=20000,
        kappa=0.55,
        epsilons=(0.0, 0.1, 0.2, 0.3),
        split="uniform",
        runs=DESK_RUNS,
        seed=K55_SEED,
        classifiers=("dann", "dnn_qiao"),
    )
    return cfg, run_experiment(cfg, workers=GRID_WORKERS)


@pytest.fixture(scope="module")
def k65_grid():
    cfg = ExperimentConfig(
        N=20000,
        kappa=0.65,
        epsilons=(0.3,),
        split="uniform",
        runs=DESK_RUNS,
        seed=K65_SEED,
        classifiers=("dann",),
    )
    return cfg, run_experiment(cfg, workers=GRID_WORKERS)


def test_criterion_1_oracle_equivalence():
    """500 random (shard, query, k_max) instances: exact search == brute force."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for i in range(500):
        n = int(rng.integers(1, 501))
        if rng.random() < 0.25:  # tie-prone coordinates
            feats = rng.choice(np.array([0.0, 0.2, 0.5, 0.8, 1.0]), size=(n, 3))
        else:
            feats = rng.random((n, 3))
        shard = Shard(1, feats, rng.integers(0, 2, n))
        k_max = int(rng.integers(1, n + 1))
        query = rng.random(3)
        dist = query_distance_matrix(shard.features, query[None, :])
        idx = k_smallest_rows(dist, k_max)[0]
        fast_prefix = build_prefix_tensor(one_shard(shard), query[None, :], np.array([k_max]))[0, 0]
        slow_dists, slow_prefix = oracle.shard_profiles(one_shard(shard), query)[0]
        np.testing.assert_array_equal(dist[0, idx], slow_dists[:k_max], err_msg=f"instance {i}")
        np.testing.assert_array_equal(fast_prefix, slow_prefix[:k_max], err_msg=f"instance {i}")
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0, f"500 instances exact-equal to brute force in {elapsed:.2f}s (< 10s)")
    assert elapsed < 10.0


def test_criterion_2_single_shard_reduction():
    """m=1 fixed-k prediction == an independently coded plain k-NN classifier."""

    def plain_knn_label(feats, labels, query, k):
        order = np.argsort(np.sqrt(((feats - query) ** 2).sum(axis=1)), kind="stable")
        return 1 if labels[order[:k]].mean() >= 0.5 else 0

    rng = np.random.default_rng(1002)
    for i in range(200):
        n = int(rng.integers(2, 400))
        feats = rng.random((n, 3))
        labels = rng.integers(0, 2, n)
        k = int(rng.integers(1, n + 1))
        query = rng.random(3)
        prefix = build_prefix_tensor(one_shard(Shard(1, feats, labels)), query[None, :], np.array([k]))
        _, eta, _ = scan_first_crossing(prefix, np.array([[k]]), math.inf)
        got = int(eta[0, 0] >= 0.5)
        assert got == plain_knn_label(feats, labels, query, k), f"instance {i}"
    report(2, True, "200 single-shard predictions match the independent plain k-NN coding exactly")


def test_criterion_3_first_crossing_audit():
    """Replay 200 random adaptive searches and check the stop semantics exactly."""
    rng = np.random.default_rng(1003)
    crossings = 0
    for i in range(200):
        N = int(rng.integers(50, 5001))
        m = int(rng.integers(1, 9))
        # half the instances carry a strong signal so both stop reasons occur
        p_one = 0.5 if i % 2 == 0 else 0.9
        data = Shard(1, rng.random((N, 3)), (rng.random(N) < p_one).astype(np.int64))
        cfg = StoppingConfig(N=N, d=3)
        part = (partition_uniform if rng.random() < 0.5 else partition_proportional)(
            data, min(m, N), rng
        )
        kj = depths(ClassifierKind.DANN, part.sizes, cfg)
        query = rng.random(3)
        prefix = build_prefix_tensor(part, query[None, :], kj[-1])
        threshold = stopping_threshold(cfg)
        stop, _, crossed = scan_first_crossing(prefix, kj, threshold)
        k1_hat = int(stop[0]) + 1
        n1 = int(part.sizes[0])
        bound = k1_bound(n1, cfg)
        profiles = [p for _, p in oracle.shard_profiles(part, query)]

        def r_at(k1):
            ks = [min(-(-k1 * int(nj) // n1), int(nj)) for nj in part.sizes]
            total = sum(ks)
            eta = sum(p[k - 1] for p, k in zip(profiles, ks)) / total
            return math.sqrt(2 * total) * abs(eta - 0.5)

        for k1 in range(1, k1_hat):
            assert r_at(k1) <= threshold, f"instance {i}: early crossing at k1={k1} missed"
        if crossed[0]:
            crossings += 1
            assert r_at(k1_hat) > threshold, f"instance {i}: no crossing at k1_hat"
        else:
            assert k1_hat == bound, f"instance {i}: bound mismatch {k1_hat} != {bound}"
            assert r_at(k1_hat) <= threshold, f"instance {i}: missed crossing at the bound"
    report(3, True, f"200 searches audited exactly ({crossings} crossed, {200 - crossings} hit the bound)")


def _paired_diff(result, kind_a, kind_b, eps):
    a = result.agreement_samples[(kind_a, eps)].astype(float)
    b = result.agreement_samples[(kind_b, eps)].astype(float)
    diff = a - b
    se = diff.std(ddof=1) / math.sqrt(diff.size) if diff.size > 1 else 0.0
    return float(diff.mean()), float(se)


def test_criterion_4_phase_transition(main_grid):
    """DANN ~ D1NN at eps=0.9 (within 0.03); DANN beats D1NN by >= 0.05 at eps=0."""
    _, res = main_grid
    gap_high = abs(res.row("dann", 0.9).agreement_rate - res.row("d1nn", 0.9).agreement_rate)
    gap_low = res.row("dann", 0.0).agreement_rate - res.row("d1nn", 0.0).agreement_rate
    detail = f"|dann-d1nn|@0.9 = {gap_high:.4f} (<= 0.03); dann-d1nn@0.0 = {gap_low:.4f} (>= 0.05)"
    passed = gap_high <= 0.03 and gap_low >= 0.05
    report(4, passed, detail)
    assert gap_high <= 0.03
    assert gap_low >= 0.05


def test_criterion_5_early_stop_superiority(main_grid):
    """No-early-stop variant never wins by more than 0.01, and costs more time at eps <= 0.5."""
    cfg, res = main_grid
    min_margin = min(
        res.row("dann", eps).agreement_rate - res.row("dann_nes", eps).agreement_rate
        for eps in cfg.epsilons
    )
    runtime_ok = all(
        res.row("dann", eps).mean_runtime_s < res.row("dann_nes", eps).mean_runtime_s
        for eps in cfg.epsilons
        if eps <= 0.5
    )
    ratios = [
        res.row("dann_nes", eps).mean_runtime_s / res.row("dann", eps).mean_runtime_s
        for eps in cfg.epsilons
        if eps <= 0.5
    ]
    detail = (
        f"min agreement margin over eps grid = {min_margin:+.4f} (>= -0.01); "
        f"nes/dann runtime ratios at eps<=0.5: {[f'{r:.2f}' for r in ratios]}"
    )
    passed = min_margin >= -0.01 and runtime_ok
    report(5, passed, detail)
    assert min_margin >= -0.01
    assert runtime_ok


def test_criterion_6_adaptive_vs_fixed_small_eps(main_grid, k55_grid):
    """DANN >= DNN_qiao at eps <= 0.3 within 2 paired MC standard errors,
    strictly better at eps=0 for kappa=0.55."""
    _, res60 = main_grid
    _, res55 = k55_grid
    details = []
    passed = True
    for res, kappa in ((res60, 0.60), (res55, 0.55)):
        for eps in (0.0, 0.1, 0.2, 0.3):
            diff, se = _paired_diff(res, "dann", "dnn_qiao", eps)
            details.append(f"k={kappa} eps={eps}: {diff:+.4f} (se {se:.4f})")
            if diff < -2 * se:
                passed = False
    strict = res55.row("dann", 0.0).agreement_rate > res55.row("dnn_qiao", 0.0).agreement_rate
    passed = passed and strict
    report(6, passed, "; ".join(details) + f"; strict@k=0.55,eps=0: {strict}")
    for res in (res60, res55):
        for eps in (0.0, 0.1, 0.2, 0.3):
            diff, se = _paired_diff(res, "dann", "dnn_qiao", eps)
            assert diff >= -2 * se, f"dann below qiao beyond 2 SE at eps={eps}"
    assert strict


def test_criterion_7_difficulty_monotonicity(k55_grid, main_grid, k65_grid):
    """Mean agreement nondecreasing in kappa at eps=0.3, within 3 standard errors."""
    _, res55 = k55_grid
    _, res60 = main_grid
    _, res65 = k65_grid
    rows = [res.row("dann", 0.3) for res in (res55, res60, res65)]
    rates = [r.agreement_rate for r in rows]
    ses = [r.mc_stderr for r in rows]
    passed = True
    for lo, hi in ((0, 1), (1, 2)):
        slack = 3 * math.hypot(ses[lo], ses[hi])
        if rates[hi] < rates[lo] - slack:
            passed = False
    detail = f"dann agreement at eps=0.3 for kappa 0.55/0.60/0.65: {[f'{r:.4f}' for r in rates]}"
    report(7, passed, detail)
    for lo, hi in ((0, 1), (1, 2)):
        slack = 3 * math.hypot(ses[lo], ses[hi])
        assert rates[hi] >= rates[lo] - slack


def _locate_adult_data():
    candidates = []
    env_dir = os.environ.get("DISTKNN_DATA_DIR")
    if env_dir:
        candidates.append(Path(env_dir) / "adult.data")
    candidates.append(Path("data") / "adult.data")
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "adult.data")
    for path in candidates:
        if path.exists():
            return path
    return None


def test_criterion_8_adult_pipeline():
    """Census pipeline: 32561 records, 26049/6512 split, DANN under the
    majority-class error at every eps with proportional splitting."""
    path = _locate_adult_data()
    if path is None:
        report(8, "SKIP", "adult.data not present (no network in this environment)")
        pytest.skip(
            "UCI adult.data is not available in this sandbox. Download it and "
            "place it at data/adult.data (or set DISTKNN_DATA_DIR) to run this "
            "criterion; see README."
        )
    feats, labels = ingest_adult(path)
    assert labels.size == 32561, f"expected 32561 records, got {labels.size}"
    scaling = fit_scaling(feats)
    full = Shard(1, apply_scaling(feats, scaling), labels)
    split = train_test_split(full, 0.2, np.random.default_rng(np.random.SeedSequence(MAIN_SEED)))
    assert split.train.size == 26049
    assert split.test.size == 6512
    cfg = ExperimentConfig(
        N=split.train.size,
        kappa=0.6,
        epsilons=EPS_GRID,
        split="proportional",
        runs=1,
        seed=MAIN_SEED,
        classifiers=("dann",),
    )
    res = evaluate_real(split.train, split.test, cfg, workers=GRID_WORKERS)
    majority_error = float(min(split.test.labels.mean(), 1 - split.test.labels.mean()))
    errors = {eps: 1.0 - res.row("dann", eps).agreement_rate for eps in cfg.epsilons}
    worst = max(errors.values())
    detail = (
        f"ingest=32561, split=26049/6512, majority error={majority_error:.4f}, "
        f"dann error range [{min(errors.values()):.4f}, {worst:.4f}]"
    )
    passed = all(err < majority_error for err in errors.values())
    report(8, passed, detail)
    for eps, err in errors.items():
        assert err < majority_error, f"dann not under the majority error at eps={eps}: {err:.4f}"


def _comparable(result):
    rows = [
        (r.classifier, r.epsilon, r.m, r.agreement_rate, r.mc_stderr, r.k1_min, r.k1_med, r.k1_max)
        for r in result.rows
    ]
    samples = {k: v.tolist() for k, v in sorted(result.agreement_samples.items())}
    k1s = {k: v.tolist() for k, v in sorted(result.k1_samples.items())}
    return rows, samples, k1s


def test_criterion_9_determinism(main_grid):
    """Grid and real-data evaluations are bit-identical (runtimes aside)
    under one seed with 1 worker and with 8 workers."""
    cfg, base = main_grid
    rerun_serial = run_experiment(cfg, workers=1)
    rerun_parallel = run_experiment(cfg, workers=8)
    assert _comparable(rerun_serial) == _comparable(base)
    assert _comparable(rerun_parallel) == _comparable(base)

    rng = np.random.default_rng(77)
    train = Shard(1, rng.random((3000, 6)), rng.integers(0, 2, 3000))
    test = Shard(2, rng.random((700, 6)), rng.integers(0, 2, 700))
    real_cfg = ExperimentConfig(
        N=3000, kappa=0.6, epsilons=(0.0, 0.5), split="proportional", seed=5,
        classifiers=("dann", "d1nn"),
    )
    real_serial = evaluate_real(train, test, real_cfg, workers=1)
    real_parallel = evaluate_real(train, test, real_cfg, workers=8)
    assert _comparable(real_serial) == _comparable(real_parallel)

    csv_a = "\n".join(
        ",".join(line.split(",")[:5]) for line in rerun_serial.to_csv_text().splitlines()
    )
    csv_b = "\n".join(
        ",".join(line.split(",")[:5]) for line in rerun_parallel.to_csv_text().splitlines()
    )
    assert csv_a == csv_b
    report(9, True, "grid and real-data paths bit-identical across 1 and 8 workers (runtimes excluded)")


def test_adult_machinery_on_surrogate_data(tmp_path):
    """Exercise the full census path end to end on a schema-identical
    surrogate file with learnable labels (support for criterion 8, which
    needs the real file)."""
    rng = np.random.default_rng(314)
    n = 4000
    age = rng.integers(17, 91, n)
    fnlwgt = rng.lognormal(11.9, 0.5, n).astype(int)
    edu = rng.integers(1, 17, n)
    gain = np.where(rng.random(n) < 0.1, 5000 + rng.integers(0, 40000, n), 0)
    loss = np.where(rng.random(n) < 0.05, rng.integers(100, 3000, n), 0)
    hours = rng.integers(1, 100, n)
    z = -3.0 + 0.04 * (age - 38) + 0.25 * (edu - 10) + 1.5 * (gain > 0) + 0.02 * (hours - 40)
    labels = rng.random(n) < 1 / (1 + np.exp(-z))
    path = tmp_path / "surrogate.data"
    with open(path, "w") as fh:
        for i in range(n):
            income = ">50K" if labels[i] else "<=50K"
            fh.write(
                f"{age[i]}, Private, {fnlwgt[i]}, HS-grad, {edu[i]}, Never-married, Sales, "
                f"Not-in-family, White, Male, {gain[i]}, {loss[i]}, {hours[i]}, United-States, {income}\n"
            )
    feats, labs = ingest_adult(path)
    assert labs.size == n
    full = Shard(1, apply_scaling(feats, fit_scaling(feats)), labs)
    split = train_test_split(full, 0.2, np.random.default_rng(1))
    assert split.train.size == int(np.ceil(n * 0.8))
    cfg = ExperimentConfig(
        N=split.train.size, kappa=0.6, epsilons=(0.0, 0.3, 0.5), split="proportional",
        seed=9, classifiers=("dann",),
    )
    res = evaluate_real(split.train, split.test, cfg, workers=GRID_WORKERS)
    majority_error = float(min(split.test.labels.mean(), 1 - split.test.labels.mean()))
    for eps in cfg.epsilons:
        err = 1.0 - res.row("dann", eps).agreement_rate
        assert err < majority_error, f"surrogate: dann at eps={eps} not under majority"
