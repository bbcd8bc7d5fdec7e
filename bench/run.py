"""distknn benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid_uniform --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``. Set-up time is the median over
several fresh interpreters of the wall time from start to the end of the
untimed warm-up (``import distknn``, input generation, warm-up). The
measurement itself runs in one more fresh interpreter, so that peak memory
covers that process and its pool workers only.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones. The line before it is the run record:
machine, versions, thread settings, failure share and failure messages.
BLAS and OpenMP are pinned to one thread per process, and no workload starts
more pool workers than there are usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4  # set-up-only interpreters, in addition to the measuring one
TIMEOUT_S = 170.0
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(RuntimeError):
    pass


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def start_measure(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start measure.py; return it and its set-up time (start to its ``ready`` line)."""
    env = {**os.environ, **THREAD_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "measure.py"), *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise BenchError(f"measure.py did not finish set-up (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("measure.py ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"measure.py exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIMEOUT_S
    if not (ROOT / "src" / "distknn" / "__init__.py").is_file():
        print(f"error: no distknn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, setup = start_measure([*common, "--setup-only"])
            finish(proc, deadline)
            setups.append(setup)
        proc, setup = start_measure([*common, "--trace", str(args.trace)])
        setups.append(setup)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = result.pop("failures")
    record = {
        **result.pop("record"),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "threads": THREAD_ENV,
        "setup_samples_s": setups,
        "failed_share": result["failed"] / result["attempted"],
        "failures": failures,
    }
    for message in failures:
        print(f"failure: {message}", file=sys.stderr)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
