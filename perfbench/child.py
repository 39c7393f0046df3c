"""One benchmark run inside a fresh interpreter: ops in a closed loop, then checks.

A single client runs one op at a time by calling ``opflow.cli.main(argv)``
in-process.  Each op writes into its own fresh ``--out`` directory, which is
checked and removed after the op's timer has stopped.  The first op is a
warm-up and is not timed into the result.

Untraced runs time every op.  Traced runs alternate a traced op with an
untraced one, so the tracing overhead is measured in the same process, and
report per-layer metrics from the traced ops.

Usage: python3 child.py WORKLOAD SEED SECONDS TRACE TMPDIR RESULT_JSON SPANS_CSV
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, op_metrics
from workloads import WORKLOADS, OpOutput, argv, load_reference


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(main, commands, seed: int, tmp: Path, check, reference, tracer=None) -> dict:
    """Run one op; return its seconds, error (None when correct) and facts."""
    out = Path(tempfile.mkdtemp(prefix="op-", dir=tmp))
    stdout = io.StringIO()
    argvs = [argv(command, out, seed) for command in commands]

    def op():
        with contextlib.redirect_stdout(stdout):
            return [main(args) for args in argvs]

    root = None
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            codes = op()
        else:
            root, codes = tracer.root(op)
    except SystemExit as exc:  # argparse usage errors exit
        codes, error = [exc.code], f"exit {exc.code}"
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        codes, error = [], f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    facts: dict = {}
    if error is None and any(code != 0 for code in codes):
        error = f"exit codes {codes}"
    if error is None:
        try:
            facts = check(OpOutput(commands, out, stdout.getvalue(), seed, reference))
        except Exception as exc:  # any defect in the output fails the op
            error = f"{type(exc).__name__}: {exc}"
    facts["manifest.bytes_out"] = _tree_bytes(out)
    shutil.rmtree(out)
    return {"seconds": seconds, "error": error, "facts": facts, "root": root}


def _blas() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
        spans_path: Path | None = None, commands=None) -> dict:
    """One run: warm-up op, then ops until ``seconds`` of measuring have passed.

    A traced run writes its spans to ``spans_path`` when one is given.
    """
    spec = WORKLOADS[workload]
    commands = spec.commands if commands is None else commands
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()  # before opflow is imported, so import-time bindings are wrapped
    import numpy
    import scipy
    import opflow.cli

    if tracer is not None:
        tracer.install()
        tracer.uninstall()
    reference = load_reference()

    def once(traced: bool) -> dict:
        if traced:
            tracer.install()
        try:
            # look main up per call: the tracer rebinds it
            return run_op(lambda args: opflow.cli.main(args), commands, seed, tmp,
                          spec.check, reference, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()

    ops = [dict(once(False), warmup=True, traced=False)]
    start = time.perf_counter()
    while True:
        if trace:
            ops.append(dict(once(True), warmup=False, traced=True))
        ops.append(dict(once(False), warmup=False, traced=False))
        if time.perf_counter() - start >= seconds:
            break

    layers = {}
    traced_ops = [op for op in ops if op["traced"]]
    if traced_ops:
        per_op = [{**op_metrics(tracer.spans, op["root"]), **op["facts"]}
                  for op in traced_ops if op["error"] is None]
        if per_op:
            layers = {key: statistics.median(m.get(key, 0) for m in per_op)
                      for key in sorted(set().union(*per_op))}
        if spans_path is not None:
            tracer.write(spans_path)
    return {
        "ops": [{k: op[k] for k in ("seconds", "error", "warmup", "traced")} for op in ops],
        "layers": layers,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "opflow": opflow.__version__,
            "blas": _blas(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


def main(args: list[str]) -> int:
    workload, seed, seconds, trace, tmp, result_path, spans_path = args
    result = run(workload, int(seed), float(seconds), trace == "1", Path(tmp), Path(spans_path))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
