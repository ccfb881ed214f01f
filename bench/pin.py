"""Compute the values bench/pins.json holds.

    python3 bench/pin.py [--write]

Runs every workload once, at both sizes, on the canonical inputs (no
relabelling, sorted slot order) and prints the summaries; ``--write``
stores them.  Canonical keys and class keys are a persisted contract, so
the pins are made once, from the commit that introduced the benchmark, and
a change that alters them must show up as failed checks; do not rewrite
them to make a change pass.  The full-size values are cross-checked here
against counts known independently of this code (catalog sizes, the number
of stable trees on 7 leaves, the class count of (5,0)).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets sys.path for the benchmark modules
from tracer import schroeder
from workloads import SIZES, WORKLOADS

KNOWN_FULL = {
    ("catalog-cold", "0,7,all.size"): 2752,
    ("catalog-cold", "1,5,all.size"): 1576,
    ("catalog-cold", "2,4,single.size"): 5608,
    ("catalog-cold", "2,4,single.degenerations_checked"): 27575,
    ("class-table", "size"): 4555,
    ("class-table", "class_count"): 983,
    ("fiber-check", "sweep.count"): 700,
    ("fiber-check", "separating.strata"): schroeder(7),
    ("fiber-check", "general.strata"): schroeder(7),
    ("fiber-check", "separating.verdict"): "constant",
    ("fiber-check", "general.verdict"): "varies",
    ("cli-warm", "enumerate.count"): 19340,
}


def pin_workload(name: str, size: str, scratch: Path) -> dict:
    cls = WORKLOADS[name]
    cache = scratch / f"{size}-{name}-cache"
    if cls.needs_warm_cache:
        shutil.copytree(run.ensure_warm_cache(size), cache)
    else:
        cache.mkdir()
    os.environ.update(run.child_env(cache))
    work_dir = scratch / f"{size}-{name}"
    work_dir.mkdir()
    workload = cls(size, None, work_dir)
    outputs = [call() for _, call in workload.setup()]
    return workload.summarize(outputs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    pins = {}
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for size in SIZES:
            pins[size] = {name: pin_workload(name, size, Path(tmp)) for name in WORKLOADS}
    for (name, field), want in KNOWN_FULL.items():
        got = pins["full"][name][field]
        if got != want:
            print(f"error: {name}.{field} = {got!r}, expected {want!r}", file=sys.stderr)
            return 1
    text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    if args.write:
        run.PINS.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
