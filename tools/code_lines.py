"""Count Python code lines: lines that are not blank, comments or docstrings.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a .py file or a directory searched for .py files.  Prints
one count per file and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    files = sorted(
        f for p in map(Path, paths) for f in ([p] if p.is_file() else p.rglob("*.py"))
    )
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
