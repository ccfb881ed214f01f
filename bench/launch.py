"""Run one torelli-graphs CLI command with the benchmark's tracer installed.

Usage: python3 launch.py SPANS_OUT ITEM_ID -- CLI_ARGS...

Used by the cli-warm workload in traced runs only; untraced runs start the
CLI through sampler.py.  The command's spans (and the time
the CLI module took to import) are written to SPANS_OUT when it returns.
Spans inside ``--jobs`` pool workers stay in those processes and are not
recorded.
"""

import json
import sys
import time

if __name__ == "__main__":
    spans_out, item = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        sys.exit("usage: launch.py SPANS_OUT ITEM_ID -- CLI_ARGS...")
    t0 = time.perf_counter()
    from torelli_graphs import cli

    import_ms = (time.perf_counter() - t0) * 1e3
    from tracer import Tracer

    tracer = Tracer()
    tracer.current_item = item
    tracer.install()
    try:
        code = cli.main(sys.argv[4:])
    finally:
        tracer.uninstall()
        table = tracer.span_table()
        table["import_ms"] = [import_ms]
        with open(spans_out, "w") as fh:
            json.dump(table, fh, separators=(",", ":"))
    sys.exit(code)
