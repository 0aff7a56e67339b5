"""Recompute the pinned command-line transcript of ``tests/test_transcript.py``.

Run from anywhere, with the interpreter that runs the test suite:

    python tools/transcript.py           # list the entries that changed
    python tools/transcript.py --record  # print the whole table

Every argv list of ``CORPUS`` runs through ``cli.main`` in process; its
digest covers the exit code, the standard error and the standard output
without ``wall_time_ms``.  Without ``--record`` the script prints each entry
whose digest differs from ``TRANSCRIPT_SHA256``, with its exit code and the
first line of its standard error, and exits 1 if any differs.  With
``--record`` it prints the ``TRANSCRIPT_SHA256`` literal to paste into the
test file.  Standard library and the package only; pytest does not collect
this directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_transcript  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="print the whole table")
    args = parser.parse_args(argv)
    pinned = test_transcript.TRANSCRIPT_SHA256
    if args.record:
        print("TRANSCRIPT_SHA256 = {")
        for entry in test_transcript.CORPUS:
            print(f'    "{" ".join(entry)}":')
            print(f'        "{test_transcript.digest(entry)}",')
        print("}")
        return 0
    changed = 0
    for entry in test_transcript.CORPUS:
        key = " ".join(entry)
        if test_transcript.digest(entry) == pinned.get(key):
            continue
        changed += 1
        code, err, _ = test_transcript.transcript(entry)
        state = "new" if key not in pinned else "changed"
        print(f"{state}: {key}  (exit {code}{', ' + err.splitlines()[0] if err else ''})")
    print(f"{changed} of {len(test_transcript.CORPUS)} entries differ from the pinned table")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
