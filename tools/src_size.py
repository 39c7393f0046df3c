"""Size of the package source: each module's line count and code-line count, and the totals.

    python tools/src_size.py [PATH ...]

PATH is a ``.py`` file or a directory whose ``*.py`` files are counted
(default: ``src/opflow``).  Lines are what ``wc -l`` counts.  Code lines
are the lines that hold a token other than a comment, less the lines of
every docstring ``ast`` finds (module, class and function), so neither
prose nor blank lines count.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def sizes(source: str) -> tuple[int, int]:
    """(lines as ``wc -l`` counts them, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return source.count("\n"), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "opflow"])
    args = parser.parse_args(argv)
    files = [f for p in args.paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    total_lines = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for f in files:
        lines, code = sizes(f.read_text(encoding="utf-8"))
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{f.stem:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total_lines:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
