import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distknn import oracle
from distknn.engine import (
    ClassifierKind,
    Partition,
    Shard,
    StoppingConfig,
    depth_matrix,
    depths,
    k1_bound,
    scan_first_crossing,
    stopping_threshold,
)


def prefix_tensor(label_rows):
    """(1, sum of row lengths) prefix sums of hand-made label sequences in
    neighbor order, laid back to back as the scan reads them."""
    return np.concatenate([np.cumsum(row, dtype=np.int64) for row in label_rows])[None, :]


def walk(label_rows, sizes, cfg, kind=ClassifierKind.DANN):
    """(k1_hat, eta_hat, crossed, depths at the stop) of the scan over the label rows."""
    kj = depths(kind, np.asarray(sizes), cfg)
    stop, eta, crossed = scan_first_crossing(prefix_tensor(label_rows), kj, stopping_threshold(cfg))
    b = int(stop[0])
    return b + 1, float(eta[0, b]), bool(crossed[0]), kj[b]


def random_label_rows(rng, depths_needed):
    return [rng.integers(0, 2, int(depth)) for depth in depths_needed]


def statistic_crosses(label_rows, k, threshold):
    """Whether the scan's statistic at the single step of depths k exceeds threshold."""
    _, _, crossed = scan_first_crossing(prefix_tensor(label_rows), np.array([k]), threshold)
    return bool(crossed[0])


class TestK1Bound:
    def test_value_at_20000_with_log(self):
        # high-precision oracle: 20000^(2/5) * ln(20000) = 520.18... -> 521
        cfg = StoppingConfig(N=20000, d=3)
        exact = mpmath.mpf(20000) ** mpmath.mpf("0.4") * mpmath.log(20000)
        assert 520 < exact < 521
        assert k1_bound(20000, cfg) == 521

    def test_floor_at_one(self):
        assert k1_bound(1, StoppingConfig(N=50, d=3)) == 1

    def test_value_without_log(self):
        # 1000^(2/5) = 15.849 -> 16
        cfg = StoppingConfig(N=1000, d=3, include_log_in_bound=False)
        exact = mpmath.mpf(1000) ** mpmath.mpf("0.4")
        assert 15 < exact < 16
        assert k1_bound(1000, cfg) == 16

    def test_n1_out_of_range(self):
        with pytest.raises(ValueError):
            k1_bound(0, StoppingConfig(N=10, d=3))
        with pytest.raises(ValueError):
            k1_bound(11, StoppingConfig(N=10, d=3))

    def test_bound_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            N = int(rng.integers(2, 100000))
            n1 = int(rng.integers(1, N + 1))
            d = int(rng.integers(1, 12))
            assert k1_bound(n1, StoppingConfig(N=N, d=d)) >= 1

    def test_single_machine_search_range(self):
        # with one shard holding everything, the search range is
        # {1, ..., ceil(N^(2/(2+d)) * ln N)}
        for N, d in ((500, 3), (2000, 3), (750, 2)):
            cfg = StoppingConfig(N=N, d=d)
            assert k1_bound(N, cfg) == math.ceil(N ** (2 / (2 + d)) * math.log(N))

    def test_bound_can_exceed_n1_at_low_dimension(self):
        # d=1, N=50: N^(-1/3) * ln N = 1.06 > 1, so the raw formula tops n1;
        # the walk is clamped at n1 in that regime
        cfg = StoppingConfig(N=50, d=1)
        assert k1_bound(50, cfg) > 50
        assert depths(ClassifierKind.DANN, np.array([50]), cfg).shape == (50, 1)
        k1_hat, _, _, _ = walk([[1] * 50], [50], cfg)
        assert k1_hat <= 50


class TestSubK:
    def test_exact_ratio(self):
        assert depth_matrix(4, np.array([100, 50]))[3, 1] == 2

    def test_k1_one_always_one(self):
        for n1, nj in [(10, 10), (100, 1), (7, 3)]:
            assert depth_matrix(1, np.array([n1, nj]))[0].tolist() == [1, 1]

    def test_full_depth(self):
        for n1, nj in [(10, 10), (100, 37)]:
            assert depth_matrix(n1, np.array([n1, nj]))[-1].tolist() == [n1, nj]

    @given(n1=st.integers(1, 500), nj_frac=st.floats(0.01, 1.0), k1_frac=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_k1_and_bounded(self, n1, nj_frac, k1_frac):
        nj = max(1, int(n1 * nj_frac))
        k1 = max(1, int(n1 * k1_frac))
        vals = depth_matrix(k1, np.array([n1, nj]))[:, 1].tolist()
        assert all(1 <= v <= nj for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))


    def test_walk_past_n1_rejected(self):
        sizes = np.array([100, 50])
        for cap in (101, 0):
            with pytest.raises(ValueError, match=f"a walk of {cap} steps is outside"):
                depth_matrix(cap, sizes)

    @pytest.mark.parametrize("cap", [2.5, 3.0, "3"])
    def test_walk_that_is_not_an_integer_rejected(self, cap):
        # 2.5 gave three rows, [[1, 1], [2, 2], [3, 2]]
        with pytest.raises(ValueError, match=f"^a walk's step count must be an integer, got {cap!r}$"):
            depth_matrix(cap, np.array([5, 3]))
        assert depth_matrix(np.int64(3), np.array([5, 3])).tolist() == [[1, 1], [2, 2], [3, 2]]


@given(
    sizes=st.lists(st.integers(1, 400), min_size=1, max_size=12),
    extra=st.integers(0, 10**7),
    d=st.integers(1, 40),
    with_log=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_depth_rows_stay_within_each_shard(sizes, extra, d, with_log):
    # with no clamp in the depth rules, every classifier's rows must still lie
    # in [1, n_j] and deepen (or hold) from one step to the next
    sizes = np.array(sorted(sizes, reverse=True))
    cfg = StoppingConfig(N=max(2, int(sizes[0]) + extra), d=d, include_log_in_bound=with_log)
    for kind in ClassifierKind:
        kj = depths(kind, sizes, cfg)
        assert kj.ndim == 2 and kj.shape[1] == sizes.size and kj.dtype == np.int64, kind
        assert ((kj >= 1) & (kj <= sizes)).all(), kind
        assert (np.diff(kj, axis=0) >= 0).all(), kind


class TestStoppingStatistic:
    # r = sqrt(2 * sum k_j) * |eta - 1/2| is pinned by the thresholds just
    # below and at its value

    def test_direct_small(self):
        # two 1-labels: r = sqrt(4) * 0.5 = 1 exactly
        assert statistic_crosses([[1, 1]], [2], math.nextafter(1.0, 0.0))
        assert not statistic_crosses([[1, 1]], [2], 1.0)

    def test_zero_signal(self):
        assert not statistic_crosses([[1, 0, 1, 0]], [4], 0.0)
        assert statistic_crosses([[1, 0, 1, 0]], [4], -1e-300)

    def test_total_50_eta_08(self):
        rows = [[1] * 40 + [0] * 10]
        assert statistic_crosses(rows, [50], 3.0 - 1e-12)
        assert not statistic_crosses(rows, [50], 3.0 + 1e-12)


class TestStoppingThreshold:
    def test_at_20000(self):
        exact = mpmath.sqrt(5 * mpmath.log(20000))
        got = stopping_threshold(StoppingConfig(N=20000, d=3))
        assert got == pytest.approx(float(exact), abs=1e-12)
        assert got == pytest.approx(7.0368, abs=5e-4)

    def test_at_8_d2(self):
        got = stopping_threshold(StoppingConfig(N=8, d=2))
        assert got == pytest.approx(float(mpmath.sqrt(4 * mpmath.log(8))), abs=1e-12)
        assert got == pytest.approx(2.8838, abs=5e-4)

    def test_increasing_in_d_and_N(self):
        base = stopping_threshold(StoppingConfig(N=100, d=3))
        assert stopping_threshold(StoppingConfig(N=100, d=4)) > base
        assert stopping_threshold(StoppingConfig(N=101, d=3)) > base

    @pytest.mark.parametrize(
        "kw, message",
        [({"N": 1, "d": 3}, "N must be >= 2, got 1"), ({"N": 10, "d": 0}, "d must be >= 1, got 0")],
        ids=["kw0-N must be >= 2", "kw1-d must be >= 1"],
    )
    def test_config_below_its_range_rejected(self, kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StoppingConfig(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"N": 20000.5, "d": 3}, "N must be an integer, got 20000.5"),
            ({"N": 200, "d": 2.5}, "d must be an integer, got 2.5"),
            ({"N": "200", "d": 3}, "N must be an integer, got '200'"),
            ({"N": 200, "d": None}, "d must be an integer, got None"),
        ],
    )
    def test_config_that_is_not_an_integer_rejected(self, kw, message):
        # N = 20000.5 was accepted, and k1_bound(100, .) gave 3
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StoppingConfig(**kw)

    def test_python_and_numpy_integer_configs_accepted(self):
        for N, d in ((20000, 3), (np.int64(20000), np.int32(3)), (np.uint16(20000), np.int8(3))):
            assert k1_bound(20000, StoppingConfig(N=N, d=d)) == 521

    @pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
    def test_log_flag_that_is_not_a_bool_rejected(self, flag):
        # "no" was read as true: k1_bound(20000, .) gave 521, the bound with its log N factor
        with pytest.raises(ValueError, match=f"^include_log_in_bound must be a bool, got {flag!r}$"):
            StoppingConfig(N=20000, d=3, include_log_in_bound=flag)

    def test_python_and_numpy_bools_accepted(self):
        for flag, bound in ((True, 521), (False, 53), (np.True_, 521), (np.False_, 53)):
            assert k1_bound(20000, StoppingConfig(N=20000, d=3, include_log_in_bound=flag)) == bound


class TestAdaptiveSelect:
    def test_single_shard_all_ones_reaches_bound(self):
        # bound = ceil(100^0.4 * ln 100) = 30; r(k) = sqrt(k/2) stays below
        # sqrt(5 ln 100) ~ 4.80 for k <= 30
        cfg = StoppingConfig(N=100, d=3)
        assert k1_bound(100, cfg) == 30
        k1_hat, eta_hat, crossed, _ = walk([[1] * 30], [100], cfg)
        assert not crossed
        assert k1_hat == 30
        assert eta_hat == 1.0

    def test_single_shard_all_zeros_symmetric(self):
        cfg = StoppingConfig(N=100, d=3)
        k1_hat, eta_hat, crossed, _ = walk([[0] * 30], [100], cfg)
        assert not crossed
        assert k1_hat == 30
        assert eta_hat == 0.0

    def test_four_equal_shards_threshold_crossing(self):
        # all labels 1: r(k1) = sqrt(8 k1)/2 crosses sqrt(5 ln N) at the
        # smallest k1 > (5/2) ln N, computed independently here
        n, m = 500, 4
        N = n * m
        cfg = StoppingConfig(N=N, d=3)
        k_star = math.floor(2.5 * math.log(N)) + 1
        bound = k1_bound(n, cfg)
        assert k_star < bound
        k1_hat, eta_hat, crossed, ks_hat = walk([[1] * bound] * m, [n] * m, cfg)
        assert crossed
        assert k1_hat == k_star
        assert ks_hat.tolist() == [k_star] * m
        assert eta_hat == 1.0

    def test_shallow_profiles_rejected(self):
        # a profile one neighbor short of the bound cannot be read past its end
        cfg = StoppingConfig(N=100, d=3)
        with pytest.raises(IndexError):
            walk([[1] * 29], [100], cfg)

    def test_shallow_profile_of_a_later_shard_rejected(self):
        # with m > 1 the scan reads all shards through one index into the
        # back-to-back row: a later shard one entry short of its depth must
        # not be read past the row's end
        prefix = prefix_tensor([[1, 1, 1], [1, 1]])
        with pytest.raises(IndexError):
            scan_first_crossing(prefix, np.array([[3, 3]]), np.inf)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("kj", [[[2]], [[1, 1], [3, 2]]], ids=["m1", "m2"])
    def test_profile_length_must_match_the_last_step(self, kj, extra):
        # one entry short or one entry long, the shards' offsets are unknown
        prefix = np.ones((2, int(np.sum(kj[-1])) + extra), dtype=np.int64)
        with pytest.raises(IndexError, match="profiles of length"):
            scan_first_crossing(prefix, np.array(kj), np.inf)

    @pytest.mark.parametrize(
        "kj, labels",
        [
            ([[1, 2], [3, 1]], [[1, 1, 1], [1]]),
            ([[2], [1]], [[1]]),
            ([[2, 1], [1, 1]], [[1], [0]]),
            ([[1, 2], [2, 1], [3, 1]], [[1, 1, 1], [1]]),
        ],
        ids=["m2", "m1", "m2-into-next", "m2-more-steps"],
    )
    def test_step_deeper_than_the_last_rejected(self, kj, labels):
        # step 0 reads a shard at depth 2, past the one entry the last step
        # keeps of it: the padded scan read 0 there (eta 1/3 at step 0 of the
        # m2 case); in the back-to-back row that entry is past the row's end,
        # or (m2-into-next) the next shard's first entry. m2-more-steps has
        # more steps than shards
        with pytest.raises(IndexError):
            scan_first_crossing(prefix_tensor(labels), np.array(kj), np.inf)

    def test_scan_leaves_the_depths_unchanged(self):
        # a single-step or column-major depth matrix has a contiguous transpose,
        # which the scan must not turn into its flat indices in place
        for kj in (np.array([[4, 2, 1]]), np.asfortranarray([[1, 1, 1], [2, 2, 1], [4, 3, 2]])):
            prefix = np.concatenate([prefix_tensor([[1] * k for k in kj[-1]])] * 2)
            before = kj.copy()
            first = scan_first_crossing(prefix, kj, 1.0)
            np.testing.assert_array_equal(kj, before)
            for a, b in zip(first, scan_first_crossing(prefix, kj, 1.0)):
                np.testing.assert_array_equal(a, b)

    def test_unsorted_sizes_rejected(self):
        data = Shard(1, np.zeros((30, 3)), np.zeros(30, dtype=int))
        with pytest.raises(ValueError, match="nonincreasing"):
            Partition.from_shard(data, np.array([10, 20]), np.random.default_rng(0))

    def test_size_sum_must_match_N(self):
        data = Shard(1, np.zeros((31, 3)), np.zeros(31, dtype=int))
        with pytest.raises(ValueError, match="sum"):
            Partition.from_shard(data, np.array([20, 10]), np.random.default_rng(0))

    def test_batch_and_list_inputs_agree(self):
        # a stack of queries scans exactly like each query on its own
        rng = np.random.default_rng(8)
        sizes = np.array([40, 30, 30])
        cfg = StoppingConfig(N=100, d=3)
        kj = depths(ClassifierKind.DANN, sizes, cfg)
        stacked = np.concatenate([prefix_tensor(random_label_rows(rng, kj[-1])) for _ in range(5)])
        threshold = stopping_threshold(cfg)
        batch = scan_first_crossing(stacked, kj, threshold)
        for i in range(stacked.shape[0]):
            single = scan_first_crossing(stacked[i], kj, threshold)
            for a, b in zip(batch, single):
                np.testing.assert_array_equal(a[i], b)


def replay_walk(label_rows, sizes, cfg, cap):
    """Sequential re-execution of the depth walk with scalar arithmetic."""
    n1 = int(sizes[0])
    threshold = stopping_threshold(cfg)
    for k1 in range(1, cap + 1):
        ks = [min(-(-k1 * int(nj) // n1), int(nj)) for nj in sizes]
        total = sum(ks)
        eta = sum(int(row[:k].sum()) for row, k in zip(label_rows, ks)) / total
        if math.sqrt(2 * total) * abs(eta - 0.5) > threshold:
            return k1, eta, True
    return cap, eta, False


def test_first_crossing_matches_sequential_replay():
    rng = np.random.default_rng(777)
    for _ in range(60):
        m = int(rng.integers(1, 8))
        sizes = np.sort(rng.integers(5, 120, m))[::-1]
        N = int(sizes.sum())
        cfg = StoppingConfig(N=N, d=int(rng.integers(1, 5)))
        cap = min(k1_bound(int(sizes[0]), cfg), int(sizes[0]))
        rows = random_label_rows(rng, depth_matrix(cap, sizes)[-1])
        k1_hat, eta_hat, crossed, ks_hat = walk(rows, sizes, cfg)
        k1_ref, eta_ref, crossed_ref = replay_walk(rows, sizes, cfg, cap)
        assert k1_hat == k1_ref
        assert eta_hat == eta_ref
        assert crossed is crossed_ref
        assert k1_hat <= cap
        assert ks_hat.tolist() == [min(-(-k1_hat * int(nj) // int(sizes[0])), int(nj)) for nj in sizes]


@pytest.mark.parametrize("sizes", [[57], [40, 31, 31, 9, 1]])
def test_full_walk_matches_oracle_steps_for_each_query_row(sizes):
    # the whole k1 = 1 .. n_1 walk, as dann_nes scans it, for three query rows
    # at once; eta is compared bit for bit with the oracle's scalar steps
    rng = np.random.default_rng(len(sizes))
    sizes = np.array(sizes)
    kj = depth_matrix(int(sizes[0]), sizes)
    label_rows = [[(rng.random(n) < p).astype(int) for n in sizes] for p in (0.5, 0.8, 0.97)]
    prefix = np.concatenate([prefix_tensor(rows) for rows in label_rows])
    for threshold in (0.5, 2.0, 4.0, math.inf):
        stop, eta, crossed = scan_first_crossing(prefix, kj, threshold)
        assert stop.shape == crossed.shape == (3,) and eta.shape == (3, sizes[0])
        for q, rows in enumerate(label_rows):
            steps = list(oracle.walk_steps([np.cumsum(r).tolist() for r in rows], sizes.tolist()))
            assert eta[q].tolist() == [e for _, e, _ in steps]
            first = next((k1 - 1 for k1, _, r in steps if r > threshold), None)
            assert bool(crossed[q]) is (first is not None)
            assert stop[q] == (sizes[0] - 1 if first is None else first)
