"""Run the qlab CLI under the benchmark tracer.

    python bench/traced_cli.py TRACE_FILE <qlab CLI arguments...>

Imports qlab.cli (timed as the import cost), wraps the layer functions,
runs ``qlab.cli.main`` on the remaining arguments, writes the spans and
counts to TRACE_FILE and exits with main's return code.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def main(argv) -> int:
    trace_file, cli_args = argv[1], argv[2:]
    t0 = time.perf_counter()
    import qlab
    import qlab.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(qlab)
    tracer.job = cli_args[0] if cli_args else None
    try:
        return qlab.cli.main(cli_args)
    finally:
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(trace_file, "w") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
