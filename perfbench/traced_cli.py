"""Run one ``linewidth`` CLI command with span recording on.

Usage: python perfbench/traced_cli.py SPANS_OUT [cli arguments...]

Behaves like ``python -m linewidth.cli [cli arguments...]`` (same stdout,
stderr and exit code) and writes the recorded spans to SPANS_OUT as JSON.
``PYTHONPATH`` must make ``linewidth`` importable, as for the plain command.
"""

import sys

from tracing import Recorder

import linewidth.cli


def _main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    rec.active = True
    try:
        code = linewidth.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.active = False
        rec.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(_main())
