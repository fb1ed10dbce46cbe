"""One command-line call with spans around the package's functions.

The traced ``cli_quote`` run starts this instead of ``python -m
intrinsicprice``:

    python3 perfbench/tracecli.py SPANS_JSON ARG...

It times the package import as a span of its own, runs ``cli.main`` on the
arguments, writes the spans to SPANS_JSON and exits with the CLI's code.
"""

import importlib
import sys
import time

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.span("import", importlib.import_module, "intrinsicprice.cli")
    tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        tracer.dump(out, "cli_quote", main_s=main_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
