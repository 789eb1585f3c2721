"""Traced CLI op: ``python bench/cli_child.py SPANS_OUT CLI_ARGS...``.

Times the import of ``spintomo.cli`` in this fresh process, installs the span
wrappers, runs ``spintomo.cli.main(CLI_ARGS)`` and writes the spans to
SPANS_OUT for the parent benchmark.  Exits with the CLI's exit code.
"""

import sys
from time import perf_counter

from spans import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import spintomo.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = spintomo.cli.main(argv)
    except SystemExit as exc:  # argparse refusals exit from inside main
        code = exc.code
    finally:
        tracer.active = False
        tracer.dump_child(spans_out, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
