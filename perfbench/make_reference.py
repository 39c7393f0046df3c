"""Record the reference values the benchmark's output checks compare against.

Run from the root of a checkout, at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the dichotomy and homotopy commands of every workload (full and smoke
sizes; homotopy once per reference seed) and writes ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from opflow.cli import main

from workloads import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, argv, command_key


def _run(command, out: Path, seed: int) -> Path:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv(command, out, seed))
    if code != 0:
        raise SystemExit(f"{' '.join(command)} exited {code}")
    return out / command[0]


def record() -> dict:
    reference: dict = {"dichotomy": {}, "homotopy": {}}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        spec = WORKLOADS["gap-dichotomy"]
        for command in spec.commands + spec.smoke:
            with open(_run(command, out, 0) / "dichotomy.csv", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            reference["dichotomy"][command_key(command)] = [
                [float(r["x1"]), float(r["riesz_lower_bound"]), float(r["gap_dist"])]
                for r in rows]
        spec = WORKLOADS["homotopy"]
        for command in spec.commands + spec.smoke:
            margins = {}
            for seed in range(REFERENCE_SEEDS):
                path = _run(command, out, seed) / "homotopy_demo.json"
                report = json.loads(path.read_text(encoding="utf-8"))
                margins[str(seed)] = report["zk_min_singular_value"]
            reference["homotopy"][command_key(command)] = {
                "delta_by_grid": report["delta_by_grid"],
                "zk_min_singular_value": margins,
            }
    return reference


if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
