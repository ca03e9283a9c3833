"""Count the code lines of the paraopt_kit package, module by module.

A line counts when it holds a token other than a comment, a NL, NEWLINE,
INDENT or DEDENT, or a docstring: a string that is a whole statement, on
any line it spans. A token that spans several lines, as a multi-line string
in an expression does, counts on each of them.

Run from the repository root:

    python tools/code_lines.py [package directory]

It prints one line per module and the total, for ``src/paraopt_kit`` by
default.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    source = path.read_text()
    # the (start, end) positions of the string statements
    docstrings = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)]
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in SKIPPED or any(
                    start <= tok.start < end for start, end in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src/paraopt_kit")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:<20} {n:>6,}")
    print(f"{'total':<20} {total:>6,}")


if __name__ == "__main__":
    main(sys.argv)
