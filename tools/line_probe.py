"""Line probe: list the statements of ``src/opflow`` that the tier-1 tests never run.

    python tools/line_probe.py [PYTEST_ARG ...]

Runs pytest in this process (default arguments: ``-q -p no:cacheprovider
tests``) under a ``sys.settrace`` line tracer that records only frames of
``src/opflow``, then prints every statement inside a function whose lines
never ran, as ``module line  source``.  A compound statement (``if``,
``for``, ``while``, ``with``) counts by its header; ``try`` and ``global``
emit no line of their own and are skipped.  Code run in a subprocess is not
seen.  A stdlib stand-in for a coverage tool; the traced run takes about
twice as long as the plain one.

It is also a gate: ``tools/line_probe_known.txt`` lists the never-run
statements judged unreachable or not worth a test, one per line as
``module  source`` (the stripped source text, not the line number, so edits
elsewhere in a module do not stale it; ``#`` starts a comment line).  A
never-run statement missing from that list is marked ``NEW`` and makes the
probe exit 1; a listed statement that now runs, or no longer exists, is
reported as stale.  Judge each new one, then test it or list it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opflow"
KNOWN = Path(__file__).with_name("line_probe_known.txt")
SILENT = (ast.Try, ast.Global, ast.Nonlocal)


def statements(source: str) -> dict[int, range]:
    """First line -> the lines whose execution marks it run, for each statement inside a function."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        for top in body:
            for node in ast.walk(top):
                if not isinstance(node, ast.stmt) or isinstance(node, SILENT):
                    continue
                inner = getattr(node, "body", None)
                last = inner[0].lineno - 1 if isinstance(inner, list) and inner else node.end_lineno
                found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def main(argv=None) -> int:
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or ["-q", "-p", "no:cacheprovider", "tests"]
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    known = set()
    for line in KNOWN.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            module, text = line.split(maxsplit=1)
            known.add((module, text.strip()))
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, seen = source.splitlines(), ran.get(str(path), set())
        for first, span in sorted(statements(source).items()):
            if seen.isdisjoint(span):
                key = (path.stem, lines[first - 1].strip())
                never.append(key)
                print(f"{path.stem:<12}{first:>5}  {key[1]}{'' if key in known else '  NEW'}")
    for module, text in sorted(known.difference(never)):
        print(f"stale entry in {KNOWN.name}: {module}  {text}")
    new = sum(key not in known for key in never)
    print(f"{len(never)} statements never ran, {new} not in {KNOWN.name} (pytest exit status {int(status)})")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
