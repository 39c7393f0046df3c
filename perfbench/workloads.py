"""The benchmark's workloads: the CLI commands of one op and the checks on their output.

Every flag is passed explicitly and equals the CLI default at the time the
benchmark was defined, so a later change of a default does not silently
change a workload.  ``--config`` and ``--workers`` are never passed.

Checks run outside the timed region.  Each raises ``CheckFailed`` (or any
other exception) on a wrong output and returns the output facts that feed
per-layer metrics.  Reference values come from ``reference.json``, recorded
by ``make_reference.py``, keyed by the command line that produced them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# The workload seed is reduced modulo this before it reaches ``--seed``, so
# every seed the benchmark is run with has a recorded reference.
REFERENCE_SEEDS = 16
VALUE_ATOL = 1e-9
GATED_IDENTITIES = (
    "graph_factorization",
    "cayley_factorization",
    "resolvent_vs_ball",
    "fredholm_factorization",
    "lagrangian_anticommutator",
    "odd_commuting_square",
)


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class OpOutput:
    """What one op left behind: one output directory per command, and stdout."""

    commands: tuple[tuple[str, ...], ...]
    out: Path
    stdout: str
    seed: int
    reference: dict

    def dir(self, command: tuple[str, ...]) -> Path:
        return self.out / command[0]


def opflow_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def command_key(command: tuple[str, ...]) -> str:
    return " ".join(command)


def argv(command: tuple[str, ...], out: Path, seed: int) -> list[str]:
    return [*command, "--out", str(out / command[0]), "--seed", str(opflow_seed(seed))]


def flag(command: tuple[str, ...], name: str) -> str:
    return command[command.index(name) + 1]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(actual: float, expected: float, what: str) -> None:
    _require(abs(actual - expected) <= VALUE_ATOL,
             f"{what} = {actual!r}, reference {expected!r} (atol {VALUE_ATOL:g})")


def verified(directory: Path, filename: str) -> Path:
    """Path of ``filename`` after the directory's manifest vouches for it."""
    from opflow.manifest import validate_manifest, verify_outputs

    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    validate_manifest(manifest)
    verify_outputs(manifest, directory)
    listed = {entry["path"] for entry in manifest["output_files"]}
    _require(filename in listed, f"manifest in {directory.name} does not list {filename}")
    return directory / filename


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_robin_flow(op: OpOutput) -> dict:
    (command,) = op.commands
    report = json.loads(verified(op.dir(command), "specflow.json").read_text(encoding="utf-8"))
    _require(report["flow"] == 1, f"flow {report['flow']}, expected 1")
    crossings = report["crossings"]
    _require(len(crossings) == 1, f"{len(crossings)} crossing brackets, expected 1")
    lo, hi = crossings[0]["theta_lo"], crossings[0]["theta_hi"]
    _require(lo <= math.pi / 4 <= hi, f"crossing bracket [{lo}, {hi}] misses pi/4")
    segments = len(report["partition"]) - 1
    return {"specflow.segments": segments,
            "specflow.bisections": segments - int(flag(command, "--samples"))}


def check_gap_dichotomy(op: OpOutput) -> dict:
    (command,) = op.commands
    rows = _rows(verified(op.dir(command), "dichotomy.csv"))
    _require(len(rows) == int(flag(command, "--points")),
             f"{len(rows)} rows, expected {flag(command, '--points')}")
    for row in rows:
        gap = float(row["gap_dist"])
        _require(0.0 <= gap <= 1.0, f"gap {gap!r} outside [0, 1] at x1={row['x1']}")
    first = rows[0]
    _require(float(first["x1"]) == float(flag(command, "--x1-min")),
             f"first row has x1={first['x1']}")
    _require(float(first["riesz_lower_bound"]) >= 0.9 and float(first["gap_dist"]) <= 0.2,
             f"no dichotomy at x1={first['x1']}: riesz {first['riesz_lower_bound']}, "
             f"gap {first['gap_dist']}")
    reference = op.reference["dichotomy"][command_key(command)]
    for row, expected in zip(rows, reference):
        for column, value in zip(("x1", "riesz_lower_bound", "gap_dist"), expected):
            _close(float(row[column]), value, f"{column} at x1={row['x1']}")
    return {}


def check_small_dense(op: OpOutput) -> dict:
    identities, surgery = op.commands
    path = verified(op.dir(identities), "identities.json")
    deviations = json.loads(path.read_text(encoding="utf-8"))["deviations"]
    worst = max(deviations[name] for name in GATED_IDENTITIES)
    _require(worst <= float(flag(identities, "--tolerance")),
             f"worst gated deviation {worst:.3e}")
    rows = _rows(verified(op.dir(surgery), "surgery.csv"))
    expected = int(flag(surgery, "--instances")) * len(flag(surgery, "--eps").split(","))
    _require(len(rows) == expected, f"{len(rows)} surgery instances, expected {expected}")
    violations = sum(row["holds"] != "1" for row in rows)
    _require(violations == 0, f"{violations} surgery bound violations")
    return {}


def check_homotopy(op: OpOutput) -> dict:
    (command,) = op.commands
    _require("homotopy checks passed" in op.stdout, "homotopy checks did not pass")
    report = json.loads(
        verified(op.dir(command), "homotopy_demo.json").read_text(encoding="utf-8"))
    reference = op.reference["homotopy"][command_key(command)]
    _require(report["delta_by_grid"].keys() == reference["delta_by_grid"].keys(),
             f"grids {sorted(report['delta_by_grid'])}")
    for grid, delta in reference["delta_by_grid"].items():
        _close(report["delta_by_grid"][grid], delta, f"delta({grid})")
    _close(report["zk_min_singular_value"],
           reference["zk_min_singular_value"][str(opflow_seed(op.seed))], "zk margin")
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    smoke: tuple[tuple[str, ...], ...]  # same checks at tiny sizes, for the tests
    check: Callable[[OpOutput], dict]


WORKLOADS = {w.name: w for w in (
    Workload(
        "robin-flow",
        (("specflow", "--path", "robin", "--grid", "800", "--samples", "64",
          "--window", "1.0", "--max-depth", "24"),),
        (("specflow", "--path", "robin", "--grid", "64", "--samples", "16",
          "--window", "1.0", "--max-depth", "24"),),
        check_robin_flow,
    ),
    Workload(
        "gap-dichotomy",
        (("dichotomy", "--grid", "400", "--points", "9",
          "--x1-min", "1e-4", "--x1-max", "0.9"),),
        (("dichotomy", "--grid", "40", "--points", "3",
          "--x1-min", "1e-4", "--x1-max", "0.9"),),
        check_gap_dichotomy,
    ),
    Workload(
        "small-dense",
        (("identities", "--dim", "16", "--trials", "500", "--tolerance", "1e-9"),
         ("surgery", "--instances", "100", "--eps", "0.5,0.1,0.02")),
        (("identities", "--dim", "6", "--trials", "20", "--tolerance", "1e-9"),
         ("surgery", "--instances", "5", "--eps", "0.5,0.1,0.02")),
        check_small_dense,
    ),
    Workload(
        "homotopy",
        (("homotopy-demo", "--grids", "128,256,512", "--modes", "12"),),
        (("homotopy-demo", "--grids", "16,32", "--modes", "4"),),
        check_homotopy,
    ),
)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
