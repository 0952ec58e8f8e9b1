"""Count the code lines of the package, per module and in total.

A code line is a physical line that holds at least one token which is not
a comment, a docstring or line structure (NEWLINE, NL, INDENT, DEDENT): so
blank lines, comment lines and docstrings do not count.  A docstring is a
string literal that makes up a whole expression statement.

Usage: python scripts/code_lines.py [DIR]   (default: src/sparse_kacrice)

Prints one "<lines>  <module>" row per module, then "<lines>  total".
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_STRUCTURE = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER, tokenize.COMMENT}


def code_lines(source: str) -> int:
    """Number of code lines in the Python source."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _STRUCTURE:
            if tok.type == tokenize.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "sparse_kacrice")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
