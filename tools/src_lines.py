"""Print the two size figures of `src/zspairs/*.py` that ROADMAP aim 2 tracks.

    python tools/src_lines.py

The first is the `wc -l` total: every line of every module.  The second
counts code: lines that are not blank and hold more than a comment or a
docstring, docstrings being found by an AST pass (the string that opens
a module, class or function body).  Below the totals, each module's two
figures, in the same order.  Uses the standard library only.
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
    sizes = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        sizes[path.name] = (text.count("\n"), _code_lines(text))
    print(f"wc -l total: {sum(lines for lines, _ in sizes.values()):,}")
    print(f"code lines:  {sum(code for _, code in sizes.values()):,}")
    for name, (lines, code) in sizes.items():
        print(f"  {name:<20} {lines:>5,} {code:>5,}")


if __name__ == "__main__":
    main()
