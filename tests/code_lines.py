"""Print the code-line count of a Python source tree, per file and in all.

    python tests/code_lines.py src/pebbletools

A code line is a line that holds a token of a logical line other than a
docstring: comments, blank lines and docstrings (a logical line that is
only string literals) are not counted, and a statement spread over
several lines counts each of them.  ROADMAP.md and CHANGES.md quote this
count for `src/pebbletools`.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines, logical = set(), []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in logical):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
        elif token.type not in _LAYOUT:
            logical.append(token)
    return len(lines)


def main(root: str) -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1])
