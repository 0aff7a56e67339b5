"""Run one dp5brauer CLI command with layer tracing.

usage: python3 perfbench/clitrace.py SPAN_FILE [--import-only | CLI ARGS...]

Times ``import dp5brauer.cli`` as the span ``cli.import``, wraps the layer
functions as `spans.Tracer` does in-process, runs ``dp5brauer.cli.main``
with the remaining arguments and writes the spans to SPAN_FILE.  The
standard output and exit code are the CLI's own.  dp5brauer must be
importable (PYTHONPATH).
"""

import sys

from spans import Tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import dp5brauer.cli
    code = 0
    if argv != ["--import-only"]:
        tracer.install()
        tracer.enabled = True
        try:
            code = dp5brauer.cli.main(argv)
        finally:
            tracer.enabled = False
            tracer.uninstall()
    tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
