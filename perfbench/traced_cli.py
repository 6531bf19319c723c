"""Run matchain's command line in this process, with spans on its layers.

    python perfbench/traced_cli.py <trace.json> <matchain arguments...>

Prints what ``python -m matchain <arguments>`` prints, writes the spans
and their per-layer sums to <trace.json>, and exits with the CLI's code.
"""

from __future__ import annotations

import sys
from time import perf_counter

from spans import CLI_HOOKS, Tracer


def main(argv) -> int:
    out_path, args = argv[0], argv[1:]
    t0 = perf_counter()
    import matchain.cli

    import_s = perf_counter() - t0
    numpy_loaded = "numpy" in sys.modules
    tracer = Tracer()
    tracer.install(CLI_HOOKS)
    try:
        with tracer.span("cli.main"):
            code = matchain.cli.main(args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write(out_path, {"import_s": import_s, "numpy_loaded": numpy_loaded})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
