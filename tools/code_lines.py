"""Count Python code lines: lines that are not blank, comments or docstrings.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a .py file or a directory searched for .py files.  Prints
one count per file and the total.  With no PATH, or one that does not
exist, prints usage to stderr and exits 2.
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


def main(paths: list[str]) -> int:
    missing = [p for p in paths if not Path(p).exists()]
    if not paths or missing:
        for p in missing:
            print(f"code_lines.py: no such file or directory: {p}", file=sys.stderr)
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = sorted(
        f for p in map(Path, paths) for f in ([p] if p.is_file() else p.rglob("*.py"))
    )
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
