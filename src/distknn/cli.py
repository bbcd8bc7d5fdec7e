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
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, oracle
from .engine import (
    ClassifierKind,
    Shard,
    StoppingConfig,
    build_prefix_tensor,
    depths,
    evaluate_queries,
    query_distance_matrix,
    scan_first_crossing,
    stopping_threshold,
)
from .realdata import (
    apply_scaling,
    evaluate_real,
    fit_scaling,
    ingest_adult,
    read_text,
    train_test_split,
)
from .simharness import (
    ExperimentConfig,
    ExperimentResult,
    GridConfig,
    _partition_for,
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
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
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


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _open_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


class Setting(NamedTuple):
    """A subcommand's flag ``--key`` and, where it reads a config file, the key."""

    key: str
    convert: Callable[[str], object]
    default: object
    help: str
    choices: tuple[str, ...] | None = None


SEED = Setting("seed", _non_negative, 0, "random seed, at least 0")
EPSILONS = Setting("epsilons", _as_float_list, tuple(i / 10 for i in range(10)), "comma list, m = ceil(N^eps)")
SPLIT = Setting("split", str, "uniform", "shard sizes", ("uniform", "proportional"))
CLASSIFIERS = Setting("classifiers", _as_name_list, tuple(k.value for k in ClassifierKind), "comma list")
INCLUDE_LOG = Setting("include_log_in_bound", _as_bool, True, "ln N factor in the stopping bound: true or false")

SIMULATE_SETTINGS = (
    Setting("n", int, 20000, "total sample size N"),
    Setting("kappa", float, 0.60, "signal floor in (0, 1]"),
    EPSILONS,
    SPLIT,
    Setting("runs", int, 500, "simulation replications"),
    SEED,
    CLASSIFIERS,
    Setting("queries_per_run", int, 1, "query points per run"),
    INCLUDE_LOG,
)
ADULT_SETTINGS = (
    SEED,
    Setting("test_fraction", _open_fraction, 0.2, "share of the rows held out for testing, in (0, 1)"),
    EPSILONS,
    SPLIT._replace(default="proportional"),
    CLASSIFIERS._replace(default=("dann", "dnn_qiao", "d1nn")),
    INCLUDE_LOG,
)
CLASSIFY_SETTINGS = (SEED, SPLIT, INCLUDE_LOG)


def _add_settings(sub: argparse.ArgumentParser, settings) -> None:
    for s in settings:
        shown = ",".join(map(str, s.default)) if isinstance(s.default, tuple) else s.default
        sub.add_argument("--" + s.key.replace("_", "-"), dest=s.key, type=s.convert, choices=s.choices,
                         default=None, help=f"{s.help} (default {shown})")


def _settings(args, file_cfg: dict[str, tuple[str, str]], settings) -> dict:
    """{key: value} of each setting: its flag, else ``file_cfg``, else its default.

    A file value is converted and checked against the setting's choices here,
    as argparse does for a flag; a bad one is rejected naming its file:line.
    Every key of ``file_cfg`` must be one of ``settings``: a key left over is
    rejected, naming its file:line too.
    """
    values = {}
    for s in settings:
        value = getattr(args, s.key)
        entry = file_cfg.pop(s.key, None)
        if value is None and entry is not None:
            text, where = entry
            try:
                value = s.convert(text)
                if s.choices is not None and value not in s.choices:
                    raise ValueError(f"must be {' or '.join(map(repr, s.choices))}, got {value!r}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{where}: config key {s.key!r}: {exc}") from exc
        values[s.key] = s.default if value is None else value
    if file_cfg:
        key, (_, where) = next(iter(file_cfg.items()))
        raise ValueError(f"{where}: config key {key!r} is not a setting of this subcommand")
    return values


def build_experiment_config(args, file_cfg: dict[str, tuple[str, str]]) -> ExperimentConfig:
    values = _settings(args, file_cfg, SIMULATE_SETTINGS)
    return ExperimentConfig(N=values.pop("n"), **values)


# ---------------------------------------------------------------------------
# outputs

def _git_revision() -> str | None:
    """HEAD of the git checkout this package runs from; ``None`` outside one, or without git."""
    root = Path(__file__).resolve().parents[2]  # src/distknn/cli.py -> the checkout
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _utc(stamp: float) -> str:
    return datetime.fromtimestamp(stamp, timezone.utc).isoformat(timespec="milliseconds")


def _manifest(command: str, cfg_dict: dict, seed: int, threads: int, started: float, failures=(), **extra) -> dict:
    """The manifest of one command, finished now; ``extra`` keys follow ``versions`` in order.

    The run facts come last: start and end time (UTC), wall seconds from
    ``started`` (the command's ``time.time()`` at its start), the CPU count,
    the git revision (``None`` outside a checkout) and every failed run's
    (epsilon, run, message) in ``failures``.
    """
    finished = time.time()
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
        **extra,
        "started": _utc(started),
        "finished": _utc(finished),
        "wall_s": round(finished - started, 3),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
        "failures": [{"epsilon": eps, "run": run, "message": message} for eps, run, message in failures],
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_result_files(result: ExperimentResult, outdir: Path, manifest: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "results.csv").write_text(result.to_csv_text(), encoding="utf-8")
    _write_json(outdir / "results.json", result.to_json_obj())
    _write_json(outdir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    started = time.time()
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = build_experiment_config(args, file_cfg)
    print(f"simulate: N={cfg.N} kappa={cfg.kappa} split={cfg.split} runs={cfg.runs} "
          f"epsilons={list(cfg.epsilons)} classifiers={[k.value for k in cfg.classifiers]}")
    result = run_experiment(cfg, workers=args.threads)
    outdir = Path(args.output)
    manifest = _manifest("simulate", cfg.to_dict(), cfg.seed, args.threads, started, result.failures)
    write_result_files(result, outdir, manifest)
    for row in result.rows:
        print(f"  {row.classifier:<9s} eps={row.epsilon:<4g} m={row.m:<6d} "
              f"agreement={row.agreement_rate:.4f} (+-{row.mc_stderr:.4f}) "
              f"time={row.mean_runtime_s * 1e3:.2f}ms")
    print(f"wrote {outdir / 'results.csv'}")
    if result.failures:
        print(f"error: {len(result.failures)} run(s) failed; see results.json:", file=sys.stderr)
        for eps, run_idx, message in result.failures:
            print(f"  eps={eps} run={run_idx}: {message}", file=sys.stderr)
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
    started = time.time()
    path = _locate_adult_file(args)
    if not path.exists():
        print(
            f"error: census file not found at {path}; pass --data or set ${DATA_DIR_ENV}",
            file=sys.stderr,
        )
        return 1
    file_cfg = parse_config_file(args.config) if args.config else {}
    values = _settings(args, file_cfg, ADULT_SETTINGS)
    test_fraction = values.pop("test_fraction")
    cfg = GridConfig(**values)
    feats, labels = ingest_adult(path)
    print(f"adult: {labels.size} records from {path}")
    # scaled with the whole file's ranges, before the split
    full = Shard(1, apply_scaling(feats, fit_scaling(feats)), labels)
    split_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0xAD,)))
    split = train_test_split(full, test_fraction, split_rng)
    print(f"adult: train={split.train.size} test={split.test.size}")
    result = evaluate_real(split.train, split.test, cfg, workers=args.threads)
    outdir = Path(args.output)
    # m = ceil(N^eps) with N the training row count
    manifest = _manifest("adult", cfg.to_dict(), cfg.seed, args.threads, started, result.failures, data_file=str(path),
                         test_fraction=test_fraction, train_rows=split.train.size, test_rows=split.test.size)
    write_result_files(result, outdir, manifest)
    majority = float(max(split.test.labels.mean(), 1 - split.test.labels.mean()))
    print(f"  majority-class accuracy: {majority:.4f}")
    for row in result.rows:
        print(f"  {row.classifier:<9s} eps={row.epsilon:<4g} m={row.m:<6d} "
              f"accuracy={row.agreement_rate:.4f} error={1 - row.agreement_rate:.4f} "
              f"time={row.mean_runtime_s:.2f}s")
    print(f"wrote {outdir / 'results.csv'}")
    return 0


def _read_table(path, columns=None, label_col=None):
    """(feature columns, features, labels) of a CSV file with a header row.

    A training table names its ``label_col``: its other columns are the
    features, and each label is 0 or 1, on at least two data rows. A query
    table has no labels; its ``columns`` are read in that order. Each feature
    is a finite number. A cell that breaks these rules is an error naming the
    file, its row and column; so is a header name given twice, and a row with
    more cells than the header. A line the csv module cannot parse is an error
    naming the file and the line.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as err:  # e.g. a cell longer than csv.field_size_limit()
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows.pop(0)[1]]
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise ValueError(f"{path}: column {repeated[0]!r} appears more than once in the header")
    if label_col is not None:
        if label_col not in header:
            raise ValueError(f"label column {label_col!r} not in {path}")
        columns = [c for c in header if c != label_col]
        if not columns:
            raise ValueError(f"{path}: no feature column besides the label column {label_col!r}")
        if len(rows) < 2:
            raise ValueError(f"{path}: a training table needs at least 2 data rows, got {len(rows)}")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"{path} lacks feature columns {missing}")
    named = [(c, header.index(c)) for c in columns + ([label_col] if label_col is not None else [])]
    cells = np.empty((len(rows), len(named)))
    for i, (line, row) in enumerate(rows):
        if len(row) > len(header):
            raise ValueError(f"{path}: row {line}: {len(row)} cells, the header has {len(header)}")
        for j, (name, col) in enumerate(named):
            text = row[col] if col < len(row) else ""
            try:
                value = cells[i, j] = float(text)
            except ValueError:
                raise ValueError(f"{path}: row {line}: column {name!r}: {text!r} is not a number") from None
            if name == label_col and value not in (0.0, 1.0):
                raise ValueError(f"{path}: row {line}: label must be 0 or 1, got {text!r}")
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {line}: column {name!r} is not finite: {text!r}")
    labels = cells[:, -1].astype(np.int64) if label_col is not None else None
    return columns, cells[:, : len(columns)], labels


def cmd_classify(args) -> int:
    started = time.time()
    feature_cols, feats, labels = _read_table(args.train, label_col=args.label_col)
    _, queries_raw, _ = _read_table(args.queries, columns=feature_cols)
    values = _settings(args, {}, CLASSIFY_SETTINGS)

    scaling = fit_scaling(feats)
    train = Shard(1, apply_scaling(feats, scaling), labels)
    queries = apply_scaling(queries_raw, scaling)

    m = args.shards if args.shards is not None else shard_count(train.size, args.epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=values["seed"], spawn_key=(1,)))
    part = _partition_for(values["split"], train, m, rng)
    kind = args.classifier
    stopping = StoppingConfig(N=train.size, d=train.dim, include_log_in_bound=values["include_log_in_bound"])
    labels_out, k1s, etas = evaluate_queries(part, queries, kind, stopping, workers=args.threads)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    pred_path = outdir / "predictions.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("row,predicted_label,eta,k1\n")
        for i in range(labels_out.size):
            k1 = "" if k1s[i] < 0 else int(k1s[i])
            fh.write(f"{i},{int(labels_out[i])},{float(etas[i])!r},{k1}\n")
    config = {
        "train": str(args.train),
        "queries": str(args.queries),
        "label_col": args.label_col,
        "classifier": kind.value,
        "m": m,
        "split": values["split"],
        "include_log_in_bound": values["include_log_in_bound"],
        "feature_columns": feature_cols,
    }
    _write_json(outdir / "manifest.json", _manifest("classify", config, values["seed"], args.threads, started))
    print(f"classified {labels_out.size} queries with {kind.value} over m={m} shards")
    print(f"wrote {pred_path}")
    return 0


def run_selftest(instances: int, seed: int) -> int:
    """Check the engine, and its scan's first crossing, against the plain-loop
    oracle in one pass over random instances.

    Returns the number of failed checks (0 means healthy).
    """
    rng = np.random.default_rng(seed)
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    mismatches = bad_scans = scans = crossings = 0
    for _ in range(instances):
        layout = rng.random()
        # several hundred points: shards wide enough for every selection path
        big = layout < 0.2
        # about sqrt(2n) >= 64 proportional shards of as many sizes: one row at
        # a time, the profiles take the candidate sort (SEGMENT_RUNS_PER_ROW)
        wide = layout >= 0.95
        if big:
            n = int(rng.integers(520, 700))
        elif wide:
            n = int(rng.integers(2100, 3001))
        else:
            n = int(rng.integers(2, 120))
        d = int(rng.integers(1, 17))
        tie_prone = wide or rng.random() < (0.5 if big else 0.3)
        feats = rng.choice(grid, size=(n, d)) if tie_prone else rng.random((n, d))
        labels = rng.integers(0, 2, n)
        if 0.15 <= layout < 0.2:
            # labels with signal, so that walks cross the paper's threshold and
            # stop early; chosen by layout, so no draw is added
            labels |= feats[:, 0] <= 0.5
        data = Shard(1, feats, labels)
        if layout < 0.1:
            # one or two shards: full sorts of rows far wider than SORT_WIDTH
            part = partition_uniform(data, int(rng.integers(1, 3)), rng)
        elif big:
            # 8 to 24 equal shards: full sorts of rows on either side of SORT_WIDTH
            part = partition_uniform(data, int(rng.integers(8, 25)), rng)
        elif wide:
            part = partition_proportional(data, math.isqrt(2 * n), rng)
        elif layout < 0.45:
            # many shards: from m ~ sqrt(2n) (most sizes distinct) up to m = n
            # (nearly all of size 1), so most shards are read at depth 1
            part = partition_proportional(data, int(rng.integers(int(np.sqrt(n)), n + 1)), rng)
        else:
            m = int(rng.integers(1, min(n, 8) + 1))
            part = _partition_for("uniform" if rng.random() < 0.5 else "proportional", data, m, rng)
        cfg = StoppingConfig(N=n, d=d)
        queries = rng.choice(grid, size=(2, d)) if tie_prone else rng.random((2, d))
        dist = query_distance_matrix(part.features, queries)
        blocks = [slice(0, 1), slice(1, 2)] if wide else [slice(0, None)]
        # every shard's whole profile: the neighbor order itself, not just the
        # walk's outcome, which a reorder inside a tie group rarely changes
        full = np.concatenate([build_prefix_tensor(part, dist[b], part.sizes) for b in blocks])
        refs = [oracle.shard_profiles(part, q) for q in queries]
        for shards, row, got in zip(refs, dist, full):
            for j, (ref, prefix) in enumerate(shards):
                mismatches += np.sort(row[part.offsets[j] : part.offsets[j + 1]]).tolist() != ref
                mismatches += got[part.offsets[j] : part.offsets[j + 1]].tolist() != prefix
        # one or two shards of 260 to 700 points: the classifiers also take the
        # first two training points, a block of 4 rows that the float32 screen
        # takes (SCREEN_ROWS, SCREEN_WIDTH); a training point lies at distance
        # 0 from itself, and the grid's points tie, so the screen meets ties
        classified = np.concatenate([queries, feats[:2]]) if layout < 0.1 else queries
        for kind in ClassifierKind:
            got = [r for b in blocks for r in zip(*(a.tolist() for a in evaluate_queries(part, classified[b], kind, cfg)))]
            if got != [oracle.classify(part, q, kind, cfg) for q in classified]:
                mismatches += 1
        # the scan on the builder's rows at each walk's last depths: its stop
        # and crossed flag against the oracle's statistics, at the paper's
        # threshold, which the signal band's walks cross and random labels
        # almost never do, and at the walk's median statistic, which it
        # crosses unless the steps tie
        for kind in (ClassifierKind.DANN, ClassifierKind.DANN_NES):
            kj = depths(kind, part.sizes, cfg)
            walk = np.concatenate([build_prefix_tensor(part, dist[b], kj[-1]) for b in blocks])
            for shards, row in zip(refs, walk):
                steps = oracle.walk_steps([p for _, p in shards], part.sizes.tolist())
                stats = [r for _, _, r in islice(steps, len(kj))]
                crossings += max(stats) > stopping_threshold(cfg)
                for threshold in (stopping_threshold(cfg), float(np.median(stats))):
                    stop, _, crossed = scan_first_crossing(row, kj, threshold)
                    first = next((i for i, r in enumerate(stats) if r > threshold), len(stats) - 1)
                    bad_scans += (int(stop), bool(crossed)) != (first, stats[first] > threshold)
                    scans += 1
    state = "ok" if mismatches == 0 else f"{mismatches} MISMATCHES"
    print(f"selftest: engine vs plain-loop oracle on {instances} instances: {state}")
    state = "ok" if bad_scans == 0 else f"{bad_scans} MISMATCHES"
    print(f"selftest: first crossing vs the oracle's walk on {scans} scans: {state}; "
          f"{crossings} crossed the paper's threshold")
    return mismatches + bad_scans


def cmd_selftest(args) -> int:
    failures = run_selftest(args.instances, _settings(args, {}, (SEED,))["seed"])
    if failures:
        print(f"selftest FAILED with {failures} mismatching checks", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


# ---------------------------------------------------------------------------
# parser

def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _classifier(text: str) -> ClassifierKind:
    try:
        return ClassifierKind.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threads", type=_at_least_one, default=1, help="worker processes (at least 1)")
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
    _add_settings(sim, SIMULATE_SETTINGS)
    _add_common_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    adult = subs.add_parser("adult", help="run the census-income pipeline")
    adult.add_argument("--config", help="key = value config file")
    adult.add_argument("--data", help=f"path to adult.data (default ${DATA_DIR_ENV}/adult.data)")
    _add_settings(adult, ADULT_SETTINGS)
    _add_common_flags(adult)
    adult.set_defaults(func=cmd_adult)

    cls = subs.add_parser("classify", help="classify query rows from CSV files")
    cls.add_argument("--train", required=True, help="labeled CSV with header")
    cls.add_argument("--queries", required=True, help="CSV with the same feature columns")
    cls.add_argument("--label-col", default="label")
    cls.add_argument("--classifier", type=_classifier, default="dann",
                     help=f"one of {', '.join(k.value for k in ClassifierKind)}")
    shards = cls.add_mutually_exclusive_group()
    shards.add_argument("--shards", type=_at_least_one, default=None, help="explicit shard count m (at least 1)")
    shards.add_argument("--epsilon", type=_epsilon, default=0.0, help="m = ceil(N^eps), eps in [0, 1), when --shards is absent")
    _add_settings(cls, CLASSIFY_SETTINGS)
    _add_common_flags(cls)
    cls.set_defaults(func=cmd_classify)

    selftest = subs.add_parser("selftest", help="oracle-equivalence and audit checks")
    selftest.add_argument("--instances", type=_at_least_one, default=200)
    _add_settings(selftest, (SEED,))  # single process, writes nothing
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
