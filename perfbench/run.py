"""Benchmark of the opflow command-line interface.

Run from the root of a checkout:

    python3 perfbench/run.py --workload robin-flow --seed 1 --seconds 10 --trace 0

One run measures set-up (fresh interpreters importing ``opflow.cli`` and
building its parser), then starts one fresh child interpreter that runs the
workload's op in a closed loop for ``--seconds`` seconds (see ``child.py``).
With ``--trace 0`` it prints the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is the result object; the line before it
holds the facts of the run (machine, library versions, revision, op counts).

The child is hermetic: ``OPFLOW_CONFIG`` is removed from its environment,
``--config`` and ``--workers`` are never passed, the BLAS thread count is set
to the number of usable cores, and ``PYTHONPATH`` is the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench_runs"
sys.path.insert(0, str(BENCH_DIR))

from tracer import SPAN_METRIC_NAMES  # noqa: E402
from workloads import WORKLOADS, opflow_seed  # noqa: E402

SETUP_CODE = "import opflow.cli; opflow.cli.build_parser()"
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUT_FACTS = ("specflow.segments", "specflow.bisections", "manifest.bytes_out")


def child_env(threads: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPFLOW_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: str(threads) for name in BLAS_THREAD_VARS})
    return env


def setup_seconds(env: dict[str, str], cwd: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI and building its parser.

    One extra, untimed start comes first: it may compile the bytecode cache.
    """
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=cwd,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    ops = result["ops"]
    failed = sum(op["error"] is not None for op in ops)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(op["seconds"] for op in ops if not op["warmup"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_ratio": 1.0 - failed / len(ops),
    }


def per_layer(result: dict) -> dict[str, float]:
    timed = [op for op in result["ops"] if not op["warmup"]]
    traced = statistics.median(op["seconds"] for op in timed if op["traced"])
    untraced = statistics.median(op["seconds"] for op in timed if not op["traced"])
    values = {name: 0 for name in SPAN_METRIC_NAMES + OUTPUT_FACTS + ("trace.spans",)}
    values.update(result["layers"])
    values["trace.overhead_s"] = traced - untraced
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "opflow" / "cli.py").is_file():
        print(f"no opflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.perf_counter() + RUN_DEADLINE_S

    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    RUNS_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    try:
        setup_s = None if args.trace else setup_seconds(env, tmp)
        result_path = tmp / "result.json"
        spans_path = RUNS_DIR / f"{args.workload}.spans.csv"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(tmp), str(result_path), str(spans_path)],
            env=env, cwd=tmp, check=True, stdout=sys.stderr,
            timeout=max(1.0, deadline - time.perf_counter()))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = result["ops"]
    failed = [op for op in ops if op["error"] is not None]
    for op in failed:
        print(f"failed op: {op['error']}", file=sys.stderr)
    if args.trace:
        values = per_layer(result)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(result, setup_s)
        wanted = spec["end_to_end"]
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "opflow_seed": opflow_seed(args.seed),
        "git_sha": git_sha(ROOT),
        "nproc": threads,
        **result["environment"],
        "run_seconds": args.seconds,
        "ops_per_run": {
            "warmup": sum(op["warmup"] for op in ops),
            "timed": sum(not op["warmup"] and not op["traced"] for op in ops),
            "traced": sum(op["traced"] for op in ops),
        },
        "op_seconds": [round(op["seconds"], 6) for op in ops],
        "setup_samples": 0 if args.trace else SETUP_SAMPLES,
    }
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
