"""One pass of one workload, in a fresh interpreter.

Started by run.py, never imported.  The pass sets up its inputs, runs its
items in order (timed one by one), checks the outputs against the pins and
prints one JSON line.  A fresh process per pass keeps module-level caches
(``SEPARATING_BRIDGES``'s mask cache, the ``lru_cache`` on
``leaf_labeled_trees``) from carrying over between repeats.

setup_s runs from the moment run.py started this process (``--started``,
on the monotonic clock all processes share) to the first timed call, so it
covers interpreter start, imports, catalog loads and input building.

While the set-up and the items run, the worker also runs the calibration
kernel (calib.py), about one sample per ``CALIBRATE_EVERY_S`` of timed work
(see sampler.py), so the samples follow the machine's speed; a set-up
gets at least ``SETUP_SAMPLES``.  No reported time includes a sample, and
run.py does the scaling.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from sampler import Sampler

BENCH = Path(__file__).resolve().parent
# samples a set-up takes at least, so that a short one gets a factor too
SETUP_SAMPLES = 8


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--pins", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the set-up is sampled like an item, from inside
    setup_sampler = Sampler(timer=True)
    setup_sampler.start()
    setup_sampler.begin()
    t0 = time.perf_counter()
    import torelli_graphs.cli  # noqa: F401  (the import whose cost is measured)

    import_ms = (time.perf_counter() - t0 - setup_sampler.item_spent) * 1e3
    import torelli_graphs

    src = Path(args.src).resolve()
    if src not in Path(torelli_graphs.__file__).resolve().parents:
        print(f"error: imported {torelli_graphs.__file__}, not the package under {src}",
              file=sys.stderr)
        return 1

    from tracer import Tracer, layer_metrics, merge_tables, restored
    from workloads import WORKLOADS, Checker

    work_dir = Path(args.work_dir)
    pins = json.loads(Path(args.pins).read_text())[args.size][args.workload]
    workload = WORKLOADS[args.workload](args.size, args.seed, work_dir)
    traced = bool(args.trace)
    span_files = []
    child_samples = None
    if args.workload == "cli-warm" and not traced:
        # each command samples inside its own process, where its time goes
        child_samples = work_dir / "samples.json"
        workload.launcher = lambda: [sys.executable, str(BENCH / "sampler.py"),
                                     str(child_samples), "--"]
    if traced and args.workload == "cli-warm":
        def launcher():
            span_files.append(work_dir / f"spans-{len(span_files)}.json")
            return [sys.executable, str(BENCH / "launch.py"), str(span_files[-1]),
                    str(len(span_files)), "--"]

        workload.launcher = launcher

    items = workload.setup()
    setup_sampler.end()
    setup_sampler.stop(min_samples=SETUP_SAMPLES)
    setup_s = time.monotonic() - args.started - setup_sampler.spent
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calib_s": setup_sampler.samples}))
        return 0

    checker = Checker()
    tracer = Tracer() if traced and args.workload != "cli-warm" else None
    outputs, durations = [], []
    # traced passes sample only between items: a sample inside a span would
    # count as the span's own time
    sampler = Sampler(timer=not traced)
    if tracer:
        tracer.install()
    pass_start = time.perf_counter()
    try:
        sampler.start()
        for i, (label, call) in enumerate(items):
            if tracer:
                tracer.current_item = i
            sampler.begin()
            try:
                out = call()
            except Exception as exc:  # a failing item is counted, not fatal
                out = None
                checker.fail(f"{label}: {type(exc).__name__}: {exc}")
            if child_samples is not None and child_samples.exists():
                sampler.absorb(child_samples)
                child_samples.unlink()
            durations.append(sampler.end())
            outputs.append(out)
    finally:
        sampler.stop()
        wall = time.perf_counter() - pass_start - sampler.spent
        if tracer:
            replaced = tracer.uninstall()
    rss = peak_rss_mb()

    if tracer:
        checker.expect("trace.wrappers_restored", restored(replaced), True)
    try:
        workload.check(outputs, pins, checker)
    except Exception as exc:  # outputs missing after a failed item
        checker.fail(f"check raised {type(exc).__name__}: {exc}")

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "durations": durations,
        "setup_calib_s": setup_sampler.samples,
        "calib_s": sampler.samples,
        "calib_at": sampler.at,
        "units": workload.units(pins),
        "peak_rss_mb": rss,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "messages": checker.messages,
    }
    if traced:
        if tracer:
            table = tracer.span_table()
            table["import_ms"] = [import_ms]
        else:
            table = merge_tables([json.loads(p.read_text()) for p in span_files])
        metrics = layer_metrics(table)
        metrics["cli.import_ms"] = statistics.median(table["import_ms"])
        result["layers"] = metrics
        spans_out = work_dir / "spans.json"
        spans_out.write_text(json.dumps(table, separators=(",", ":")))
        result["spans_file"] = str(spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
