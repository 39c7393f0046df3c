"""Every CLI command at reduced flags, against the committed ``golden.json``.

Integers, booleans and strings compare exactly, and so do the flow's
``partition`` and ``crossings``; other floats compare at ``RTOL``, which holds
under both one and two BLAS threads.  The ``identities`` deviations are
rounding noise, so they are checked only against the tolerance the run gates
them by.  ``python tests/test_golden.py`` (with ``src`` on the path) rewrites
``golden.json``; CHANGES.md says each time it is regenerated, and why.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from opflow.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-12
EXACT = ("partition", "crossings")
RUNS = {
    "specgraph": (("specgraph", "--samples", "16", "--grid", "40"), "specgraph.csv"),
    "specflow": (("specflow", "--path", "robin", "--grid", "64", "--samples", "16"), "specflow.json"),
    "dichotomy": (("dichotomy", "--grid", "40", "--points", "3"), "dichotomy.csv"),
    "identities": (("identities", "--dim", "6", "--trials", "40"), "identities.json"),
    "homotopy-demo": (("homotopy-demo", "--grids", "16,32", "--modes", "4"), "homotopy_demo.json"),
    "surgery": (("surgery", "--instances", "5", "--eps", "0.5,0.1"), "surgery.csv"),
}


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)  # the CLI writes every float with a '.' or an exponent


def run(name: str, out: Path):
    """The data file one command writes, parsed: a JSON document, or a CSV header and rows."""
    argv, filename = RUNS[name]
    assert main([*argv, "--out", str(out)]) == 0
    path = out / filename
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    return {"header": header, "rows": [[_cell(c) for c in row] for row in rows]}


def assert_matches(actual, expected, where: str, exact: bool = False) -> None:
    assert type(actual) is type(expected), f"{where}: {actual!r} vs golden {expected!r}"
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}", exact or key in EXACT)
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: length {len(actual)} vs {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]", exact)
    elif isinstance(expected, float) and not exact:
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0), \
            f"{where}: {actual!r} vs golden {expected!r} (rtol {RTOL:g})"
    else:
        assert actual == expected, f"{where}: {actual!r} vs golden {expected!r}"


@pytest.mark.parametrize("name", list(RUNS))
def test_command_matches_golden(name, tmp_path):
    actual, expected = run(name, tmp_path), json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    if name == "identities":
        assert actual["tolerance"] == expected["tolerance"]
        assert actual["deviations"].keys() == expected["deviations"].keys()
        assert max(actual["deviations"].values()) <= actual["tolerance"]
    else:
        assert_matches(actual, expected, name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        golden = {name: run(name, Path(scratch) / name) for name in RUNS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
