"""Print the two size figures of `src/zspairs/*.py` that ROADMAP aim 2 tracks.

    python tools/src_lines.py

The first is the `wc -l` total: every line of every module.  The second
counts code: lines that are not blank and hold more than a comment or a
docstring, docstrings being found by an AST pass (the string that opens
a module, class or function body).  Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zspairs"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(text: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> None:
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    total = sum(text.count("\n") for text in texts)
    code = sum(_code_lines(text) for text in texts)
    print(f"wc -l total: {total:,}")
    print(f"code lines:  {code:,}")


if __name__ == "__main__":
    main()
