"""Mutation probe: flip one operator at a time in a module and run that module's tests.

    python tools/mutation_probe.py [MODULE ...]

MODULE names a file of ``src/opflow`` (default: specflow metrics linalg).
Each comparison (``<``/``<=``, ``>``/``>=``, ``==``/``!=``) and arithmetic
operator (``+``/``-``, ``*``/``/``, also augmented) is flipped on its own.
The mutant is written with ``ast.unparse`` into a temporary copy of ``src``
and ``tests``, and ``tests/test_MODULE.py`` runs there with ``pytest -x``;
the checkout is never written.  A failing run, or one past 5x the
unmutated run + 10 s, kills the mutant.  Survivors are listed with their
line and mutated expression, for a reader to judge which are equivalent.
Hypothesis runs derandomized and without its example database, so a rerun
gives the same counts.  It takes minutes, so it is not part of the test
suite.

``tools/mutation_probe_known.txt`` lists the survivors judged equivalent or
not worth a test, one per line as ``module  expression`` (the mutated
expression as printed, not the line number, so edits elsewhere in a module
do not stale it; ``#`` starts a comment line).  A survivor missing from that
list is marked ``NEW`` and makes the probe exit 1; a listed survivor of a
probed module that is now killed, or no longer exists, is reported as stale.
Judge each new one, then kill it with a test or list it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN = Path(__file__).with_name("mutation_probe_known.txt")
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
CONFTEST = ("from hypothesis import settings\n"
            "settings.register_profile('probe', database=None, derandomize=True)\n"
            "settings.load_profile('probe')\n")


def mutants(source: str):
    """(line, mutated expression, mutated module) for every single-operator flip, in source order."""
    tree = ast.parse(source)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
            sites.append((node, None))
    sites.sort(key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))
    for node, i in sites:
        old = node.op if i is None else node.ops[i]
        new = FLIPS[type(old)]()
        _set(node, i, new)
        yield node.lineno, ast.unparse(node).splitlines()[0], ast.unparse(tree)
        _set(node, i, old)


def _set(node, i, op) -> None:
    if i is None:
        node.op = op
    else:
        node.ops[i] = op


def run_tests(work: Path, module: str, timeout: float | None) -> str:
    """'pass', 'fail' or 'timeout' for the module's tests in the work tree."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("OPFLOW_CONFIG", None)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"tests/test_{module}.py"]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def probe(work: Path, module: str, known: set[tuple[str, str]]) -> list[tuple[str, str]] | None:
    """The module's survivors as (module, mutated expression), or None if its tests fail unmutated."""
    target = work / "src" / "opflow" / f"{module}.py"
    source = target.read_text(encoding="utf-8")
    target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    start = time.perf_counter()
    if run_tests(work, module, None) != "pass":
        print(f"{module}.py: its tests fail on the unmutated module; not probed")
        return None
    timeout = 5.0 * (time.perf_counter() - start) + 10.0
    counts = {"pass": 0, "fail": 0, "timeout": 0}
    survivors = []
    for line, expression, mutated in mutants(source):
        target.write_text(mutated, encoding="utf-8")
        result = run_tests(work, module, timeout)
        counts[result] += 1
        if result == "pass":
            survivors.append((line, expression))
    target.write_text(source, encoding="utf-8")
    total = sum(counts.values())
    print(f"{module}.py: {total} mutants, {total - counts['pass']} killed "
          f"({counts['timeout']} by timeout), {counts['pass']} survived", flush=True)
    for line, expression in survivors:
        print(f"  {module}.py:{line}  {expression}{'' if (module, expression) in known else '  NEW'}")
    found = [(module, expression) for _, expression in survivors]
    for stale in sorted(key for key in known.difference(found) if key[0] == module):
        print(f"  stale entry in {KNOWN.name}: {stale[0]}  {stale[1]}")
    return found


def read_known() -> set[tuple[str, str]]:
    """The listed survivors, as (module, mutated expression)."""
    known = set()
    for line in KNOWN.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            module, text = line.split(maxsplit=1)
            known.add((module, text.strip()))
    return known


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", default=["specflow", "metrics", "linalg"])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / "conftest.py").write_text(CONFTEST, encoding="utf-8")
        known = read_known()
        found = [probe(work, module, known) for module in args.modules]
    if any(survivors is None for survivors in found):
        return 2
    new = sum(key not in known for survivors in found for key in survivors)
    print(f"{new} survivors not in {KNOWN.name}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
