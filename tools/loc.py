"""Line counts of Python sources by kind: code, docstring, comment, blank.

Run from anywhere:

    python tools/loc.py            # every .py file under src/
    python tools/loc.py PATH [...] # the named files and directories

Each physical line gets one kind, from the tokens (``tokenize``) that touch
it.  A line is code when any token on it is neither a comment nor part of a
docstring; else docstring when a docstring spans it; else comment when it
holds a comment; else blank.  A docstring is a string literal that is a
whole statement, so a docstring moved from one place to another keeps its
count, and a line with code and a trailing comment is code.  The table
lists each file and the total.  Standard library only; pytest does not
collect this directory.
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
# tokens that hold no text of their own; NEWLINE, which ends a statement, is kept
_LAYOUT = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def line_kinds(path):
    """The kind of every line of one file, in order."""
    with tokenize.open(path) as f:
        lines = f.read().splitlines()
    with tokenize.open(path) as f:
        tokens = [t for t in tokenize.generate_tokens(f.readline) if t.type not in _LAYOUT]
    seen = [set() for _ in range(len(lines) + 2)]
    starts = True
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            starts = True
            continue
        kind = "code"
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif tok.type == tokenize.STRING and starts:
            after = next(t for t in islice(tokens, i + 1, None) if t.type != tokenize.COMMENT)
            if after.type == tokenize.NEWLINE:
                kind = "docstring"
        if tok.type != tokenize.COMMENT:
            starts = False
        for n in range(tok.start[0], tok.end[0] + 1):
            seen[n].add(kind)
    return [next((k for k in KINDS[:3] if k in seen[n]), "blank") for n in range(1, len(lines) + 1)]


def count(paths):
    """{file: {kind: lines}} over the .py files of ``paths``."""
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    table = {}
    for f in files:
        kinds = line_kinds(f)
        table[f] = {k: kinds.count(k) for k in KINDS}
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories (default: src/)")
    args = parser.parse_args(argv)
    table = count(args.paths or [ROOT / "src"])
    total = {k: sum(row[k] for row in table.values()) for k in KINDS}
    print(f"{'file':40} {'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for name, row in [*((str(f), row) for f, row in table.items()), ("total", total)]:
        print(f"{name[-40:]:40} {sum(row.values()):6} " + " ".join(f"{row[k]:9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
