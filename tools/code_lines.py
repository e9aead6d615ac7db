"""Count the code lines of Python sources, per module and in total.

Usage:
    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files; the default
is the package, src/spikeconvert. A code line is a line that holds a token
other than a comment, a docstring or a layout token (newlines, indents,
dedents). A docstring is a string that makes up a whole statement, such as
a module's, class's or function's first line, and none of its lines count.
A token that spans several lines, such as a multi-line string argument,
counts on every line it spans.
"""
from __future__ import annotations

import argparse
import os
import sys
import tokenize

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
# tokens after which a new statement starts
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path: str) -> int:
    """The number of code lines in one Python source file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        # a string that is a whole statement is a docstring
        if (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def sources(paths: list[str]) -> list[str]:
    """The .py files under paths, in sorted order."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                found += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
        else:
            found.append(path)
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("paths", nargs="*", metavar="PATH",
                   default=[os.path.join(_ROOT, "src", "spikeconvert")])
    args = p.parse_args(argv)
    files = sources(args.paths)
    if not files:
        print("error: no Python sources found", file=sys.stderr)
        return 2
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
