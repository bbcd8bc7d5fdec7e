"""Command-line surface: simulation grids, the census pipeline, one-off
classification of CSV data, and a self-test of the search machinery.

Configuration comes from an optional ``key = value`` file; every key has a
flag of the same name that overrides it, and a key the subcommand does not
read is rejected with its file and line, and so is a repeated key.
``--seed`` is available on every subcommand, ``--threads`` and ``--output`` on
all but ``selftest``. Results land in the output directory as results.csv /
results.json plus a manifest.json recording the effective config and library
versions.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, oracle
from .adaptive import StoppingConfig, scan_first_crossing, stopping_threshold
from .baselines import ClassifierKind, depths
from .engine import build_prefix_tensor, evaluate_queries, query_distance_matrix
from .neighbors import Shard
from .realdata import (
    apply_scaling,
    evaluate_real,
    fit_scaling,
    ingest_adult,
    train_test_split,
)
from .simharness import (
    ExperimentConfig,
    ExperimentResult,
    partition_proportional,
    partition_uniform,
    run_experiment,
    shard_count,
)

DATA_DIR_ENV = "DISTKNN_DATA_DIR"


# ---------------------------------------------------------------------------
# config file handling

def parse_config_file(path) -> dict[str, tuple[str, str]]:
    """Read a flat ``key = value`` file into {key: (value, "file:line")}; '#' starts a comment.

    A key may appear once: a repeat is rejected, naming both lines.
    """
    values: dict[str, tuple[str, str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip().lower().replace("-", "_")
            where = f"{path}:{lineno}"
            if key in values:
                raise ValueError(f"{where}: config key {key!r} is already set at {values[key][1]}")
            values[key] = (value.strip(), where)
    return values


def _as_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _as_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _as_name_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.replace(",", " ").split())


def _setting(args, file_cfg: dict[str, tuple[str, str]], key: str, default, convert):
    """Flag > config file > default; the key is taken out of ``file_cfg`` either way."""
    flag_value = getattr(args, key, None)
    entry = file_cfg.pop(key, None)
    if flag_value is not None:
        return flag_value
    if entry is None:
        return default
    text, where = entry
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"{where}: config key {key!r}: {exc}") from exc


def _reject_unread(file_cfg: dict[str, tuple[str, str]]) -> None:
    """Fail on the first config key left over once a subcommand has read its settings."""
    if file_cfg:
        key, (_, where) = next(iter(file_cfg.items()))
        raise ValueError(f"{where}: config key {key!r} is not a setting of this subcommand")


def build_experiment_config(args, file_cfg: dict[str, tuple[str, str]]) -> ExperimentConfig:
    cfg = ExperimentConfig(
        N=_setting(args, file_cfg, "n", 20000, int),
        kappa=_setting(args, file_cfg, "kappa", 0.60, float),
        epsilons=_setting(args, file_cfg, "epsilons", tuple(i / 10 for i in range(10)), _as_float_list),
        split=_setting(args, file_cfg, "split", "uniform", str),
        runs=_setting(args, file_cfg, "runs", 500, int),
        seed=_setting(args, file_cfg, "seed", 0, int),
        classifiers=_setting(args, file_cfg, "classifiers", tuple(k.value for k in ClassifierKind), _as_name_list),
        queries_per_run=_setting(args, file_cfg, "queries_per_run", 1, int),
        include_log_in_bound=_setting(args, file_cfg, "include_log_in_bound", True, _as_bool),
    )
    _reject_unread(file_cfg)
    return cfg


# ---------------------------------------------------------------------------
# outputs

def _manifest(command: str, cfg_dict: dict, seed: int, threads: int) -> dict:
    return {
        "command": command,
        "seed": seed,
        "threads": threads,
        "config": cfg_dict,
        "versions": {
            "distknn": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def write_result_files(result: ExperimentResult, outdir: Path, manifest: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    result.write_csv(outdir / "results.csv")
    result.write_json(outdir / "results.json")
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = build_experiment_config(args, file_cfg)
    print(f"simulate: N={cfg.N} kappa={cfg.kappa} split={cfg.split} runs={cfg.runs} "
          f"epsilons={list(cfg.epsilons)} classifiers={[k.value for k in cfg.classifiers]}")
    result = run_experiment(cfg, workers=args.threads)
    outdir = Path(args.output)
    write_result_files(result, outdir, _manifest("simulate", cfg.to_dict(), cfg.seed, args.threads))
    for row in result.rows:
        print(f"  {row.classifier:<9s} eps={row.epsilon:<4g} m={row.m:<6d} "
              f"agreement={row.agreement_rate:.4f} (+-{row.mc_stderr:.4f}) "
              f"time={row.mean_runtime_s * 1e3:.2f}ms")
    print(f"wrote {outdir / 'results.csv'}")
    if result.failures:
        eps, run_idx, message = result.failures[0]
        print(f"error: {len(result.failures)} run(s) failed; see results.json. "
              f"First: eps={eps} run={run_idx}: {message}", file=sys.stderr)
        return 1
    return 0


def _locate_adult_file(args) -> Path:
    if args.data:
        return Path(args.data)
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        return Path(env_dir) / "adult.data"
    return Path("data") / "adult.data"


def cmd_adult(args) -> int:
    path = _locate_adult_file(args)
    if not path.exists():
        print(
            f"error: census file not found at {path}; pass --data or set ${DATA_DIR_ENV}",
            file=sys.stderr,
        )
        return 1
    file_cfg = parse_config_file(args.config) if args.config else {}
    seed = _setting(args, file_cfg, "seed", 0, int)
    test_fraction = _setting(args, file_cfg, "test_fraction", 0.2, float)
    epsilons = _setting(args, file_cfg, "epsilons", tuple(i / 10 for i in range(10)), _as_float_list)
    split_mode = _setting(args, file_cfg, "split", "proportional", str)
    classifiers = _setting(args, file_cfg, "classifiers", ("dann", "dnn_qiao", "d1nn"), _as_name_list)
    include_log = _setting(args, file_cfg, "include_log_in_bound", True, _as_bool)
    _reject_unread(file_cfg)
    feats, labels = ingest_adult(path)
    print(f"adult: {labels.size} records from {path}")
    # scaled with the whole file's ranges, before the split
    full = Shard(1, apply_scaling(feats, fit_scaling(feats)), labels)
    split_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xAD,)))
    split = train_test_split(full, test_fraction, split_rng)
    print(f"adult: train={split.train.size} test={split.test.size}")
    cfg = ExperimentConfig(
        N=split.train.size,
        kappa=0.6,  # unused by the real-data path
        epsilons=epsilons,
        split=split_mode,
        runs=1,
        seed=seed,
        classifiers=classifiers,
        include_log_in_bound=include_log,
    )
    result = evaluate_real(split.train, split.test, cfg, workers=args.threads)
    outdir = Path(args.output)
    manifest = _manifest("adult", cfg.to_dict(), seed, args.threads)
    manifest["data_file"] = str(path)
    manifest["test_fraction"] = test_fraction
    write_result_files(result, outdir, manifest)
    majority = float(max(split.test.labels.mean(), 1 - split.test.labels.mean()))
    print(f"  majority-class accuracy: {majority:.4f}")
    for row in result.rows:
        print(f"  {row.classifier:<9s} eps={row.epsilon:<4g} m={row.m:<6d} "
              f"accuracy={row.agreement_rate:.4f} error={1 - row.agreement_rate:.4f} "
              f"time={row.mean_runtime_s:.2f}s")
    print(f"wrote {outdir / 'results.csv'}")
    return 0


def _read_csv_columns(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    return header, rows[1:]


def _parse_feature_rows(path, rows, columns, header) -> np.ndarray:
    idx = [header.index(c) for c in columns]
    out = np.empty((len(rows), len(columns)), dtype=np.float64)
    for i, row in enumerate(rows):
        try:
            out[i] = [float(row[j]) for j in idx]
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: row {i + 2}: {exc}") from exc
    return out


def _parse_labels(path, rows, column: int) -> np.ndarray:
    """Training labels; anything but exactly 0 or 1 is rejected with its line."""
    out = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        try:
            value = float(row[column])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: row {i + 2}: {exc}") from exc
        if value not in (0.0, 1.0):
            raise ValueError(f"{path}: row {i + 2}: label must be 0 or 1, got {row[column]!r}")
        out[i] = int(value)
    return out


def cmd_classify(args) -> int:
    header, rows = _read_csv_columns(args.train)
    if args.label_col not in header:
        raise ValueError(f"label column {args.label_col!r} not in {args.train}")
    feature_cols = [c for c in header if c != args.label_col]
    feats = _parse_feature_rows(args.train, rows, feature_cols, header)
    labels = _parse_labels(args.train, rows, header.index(args.label_col))

    q_header, q_rows = _read_csv_columns(args.queries)
    missing = [c for c in feature_cols if c not in q_header]
    if missing:
        raise ValueError(f"query file lacks feature columns {missing}")
    queries_raw = _parse_feature_rows(args.queries, q_rows, feature_cols, q_header)

    scaling = fit_scaling(feats)
    train = Shard(1, apply_scaling(feats, scaling), labels)
    queries = apply_scaling(queries_raw, scaling)

    m = args.shards if args.shards else shard_count(train.size, args.epsilon)
    seed = _setting(args, {}, "seed", 0, int)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    part = (partition_uniform if args.split == "uniform" else partition_proportional)(train, m, rng)
    kind = ClassifierKind.parse(args.classifier)
    stopping = StoppingConfig(N=train.size, d=train.dim, include_log_in_bound=args.include_log_in_bound)
    labels_out, k1s, etas = evaluate_queries(part, queries, kind, stopping, workers=args.threads)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    pred_path = outdir / "predictions.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("row,predicted_label,eta,k1\n")
        for i in range(labels_out.size):
            k1 = "" if k1s[i] < 0 else int(k1s[i])
            fh.write(f"{i},{int(labels_out[i])},{float(etas[i])!r},{k1}\n")
    manifest = _manifest(
        "classify",
        {
            "train": str(args.train),
            "queries": str(args.queries),
            "classifier": kind.value,
            "m": m,
            "split": args.split,
            "feature_columns": feature_cols,
        },
        seed,
        args.threads,
    )
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"classified {labels_out.size} queries with {kind.value} over m={m} shards")
    print(f"wrote {pred_path}")
    return 0


def run_selftest(instances: int, seed: int, verbose: bool = True) -> int:
    """Check the engine against the plain-loop oracle and audit the stopping rule.

    Returns the number of failed checks (0 means healthy).
    """
    rng = np.random.default_rng(seed)
    failures = 0

    grid = np.array([0.0, 0.25, 0.5, 1.0])
    mismatches = 0
    for _ in range(instances):
        layout = rng.random()
        # big enough that the blocks of two queries leave the small-block sort
        big = layout < 0.2
        n = int(rng.integers(520, 700)) if big else int(rng.integers(2, 120))
        d = int(rng.integers(1, 17))
        tie_prone = rng.random() < (0.5 if big else 0.3)
        feats = rng.choice(grid, size=(n, d)) if tie_prone else rng.random((n, d))
        data = Shard(1, feats, rng.integers(0, 2, n))
        if layout < 0.1:
            # one or two shards: full sorts of rows far wider than SORT_WIDTH
            part = partition_uniform(data, int(rng.integers(1, 3)), rng)
        elif big:
            # 8 to 24 equal shards: full sorts of rows on either side of SORT_WIDTH
            part = partition_uniform(data, int(rng.integers(8, 25)), rng)
        elif layout < 0.45:
            # many shards: from m ~ sqrt(2n) (most sizes distinct) up to m = n
            # (nearly all of size 1), so most shards are read at depth 1
            part = partition_proportional(data, int(rng.integers(int(np.sqrt(n)), n + 1)), rng)
        else:
            m = int(rng.integers(1, min(n, 8) + 1))
            part = (partition_uniform if rng.random() < 0.5 else partition_proportional)(data, m, rng)
        cfg = StoppingConfig(N=n, d=d)
        queries = rng.choice(grid, size=(2, d)) if tie_prone else rng.random((2, d))
        # every shard's whole profile: the neighbor order itself, not just the
        # walk's outcome, which a reorder inside a tie group rarely changes
        full = build_prefix_tensor(part, queries, part.sizes)
        for q, row, got in zip(queries, query_distance_matrix(part.features, queries), full):
            for j, (ref, prefix) in enumerate(oracle.shard_profiles(part, q)):
                mismatches += np.sort(row[part.offsets[j] : part.offsets[j + 1]]).tolist() != ref
                mismatches += got[j, : len(prefix)].tolist() != prefix
        for kind in ClassifierKind:
            got = list(zip(*(a.tolist() for a in evaluate_queries(part, queries, kind, cfg))))
            if got != [oracle.classify(part, q, kind, cfg) for q in queries]:
                mismatches += 1
    failures += mismatches
    if verbose:
        state = "ok" if mismatches == 0 else f"{mismatches} MISMATCHES"
        print(f"selftest: engine vs plain-loop oracle on {instances} instances: {state}")

    audit_bad = 0
    audits = max(20, instances // 10)
    for _ in range(audits):
        m = int(rng.integers(1, 6))
        N = int(rng.integers(8 * m, 800))
        cfg = StoppingConfig(N=N, d=3)
        data = Shard(1, rng.random((N, 3)), rng.integers(0, 2, N))
        part = (partition_uniform if rng.random() < 0.5 else partition_proportional)(data, m, rng)
        query = rng.random(3)
        kj = depths(ClassifierKind.DANN, part.sizes, cfg)
        prefix = build_prefix_tensor(part, query[None, :], kj[-1])
        threshold = stopping_threshold(cfg)
        stop, _, crossed = scan_first_crossing(prefix, kj, threshold)
        k1_hat = int(stop[0]) + 1
        # replay on the oracle's profiles: no crossing before k1_hat, and the
        # scan's own flag must say whether step k1_hat crossed
        profiles = [p for _, p in oracle.shard_profiles(part, query)]
        for k1, _, r in oracle.walk_steps(profiles, [int(n) for n in part.sizes]):
            if k1 == k1_hat:
                audit_bad += (r > threshold) != bool(crossed[0])
                break
            if r > threshold:
                audit_bad += 1
                break
    failures += audit_bad
    if verbose:
        state = "ok" if audit_bad == 0 else f"{audit_bad} BAD WALKS"
        print(f"selftest: stopping-rule audit on {audits} random searches: {state}")
    return failures


def cmd_selftest(args) -> int:
    failures = run_selftest(args.instances, _setting(args, {}, "seed", 0, int))
    if failures:
        print(f"selftest FAILED with {failures} mismatching checks", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


# ---------------------------------------------------------------------------
# parser

def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="random seed (default 0)")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    _add_seed_flag(sub)
    sub.add_argument("--threads", type=_worker_count, default=1, help="worker processes (at least 1)")
    sub.add_argument("--output", default="results", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distknn",
        description="Distributed adaptive nearest-neighbor classification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"distknn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run the synthetic benchmark grid")
    sim.add_argument("--config", help="key = value config file")
    sim.add_argument("--n", type=int, default=None, help="total sample size N")
    sim.add_argument("--kappa", type=float, default=None, help="signal floor in (0, 1]")
    sim.add_argument("--epsilons", type=_as_float_list, default=None, help="comma list, m = ceil(N^eps)")
    sim.add_argument("--split", choices=["uniform", "proportional"], default=None)
    sim.add_argument("--runs", type=int, default=None, help="simulation replications")
    sim.add_argument("--classifiers", type=_as_name_list, default=None,
                     help="comma list from dann,dann_nes,dnn_qiao,d1nn")
    sim.add_argument("--queries-per-run", dest="queries_per_run", type=int, default=None)
    sim.add_argument("--include-log-in-bound", dest="include_log_in_bound",
                     type=_as_bool, default=None, metavar="BOOL")
    _add_common_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    adult = subs.add_parser("adult", help="run the census-income pipeline")
    adult.add_argument("--config", help="key = value config file")
    adult.add_argument("--data", help=f"path to adult.data (default ${DATA_DIR_ENV}/adult.data)")
    adult.add_argument("--epsilons", type=_as_float_list, default=None)
    adult.add_argument("--split", choices=["uniform", "proportional"], default=None)
    adult.add_argument("--classifiers", type=_as_name_list, default=None)
    adult.add_argument("--test-fraction", dest="test_fraction", type=float, default=None)
    adult.add_argument("--include-log-in-bound", dest="include_log_in_bound",
                       type=_as_bool, default=None, metavar="BOOL")
    _add_common_flags(adult)
    adult.set_defaults(func=cmd_adult)

    cls = subs.add_parser("classify", help="classify query rows from CSV files")
    cls.add_argument("--train", required=True, help="labeled CSV with header")
    cls.add_argument("--queries", required=True, help="CSV with the same feature columns")
    cls.add_argument("--label-col", default="label")
    cls.add_argument("--classifier", default="dann")
    cls.add_argument("--shards", type=int, default=None, help="explicit shard count m")
    cls.add_argument("--epsilon", type=float, default=0.0, help="m = ceil(N^eps) when --shards is absent")
    cls.add_argument("--split", choices=["uniform", "proportional"], default="uniform")
    cls.add_argument("--include-log-in-bound", dest="include_log_in_bound",
                     type=_as_bool, default=True, metavar="BOOL")
    _add_common_flags(cls)
    cls.set_defaults(func=cmd_classify)

    selftest = subs.add_parser("selftest", help="oracle-equivalence and audit checks")
    selftest.add_argument("--instances", type=int, default=200)
    _add_seed_flag(selftest)  # single process, writes nothing
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
