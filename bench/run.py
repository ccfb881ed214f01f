"""Benchmark runner for torelli-graphs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --out FILE

A run spends about ``--seconds`` seconds on one workload.  It first starts
a few set-up-only probes, then full passes over the workload's fixed inputs
until the next pass would end past the deadline (always at least one).
Every probe and pass is a fresh interpreter (bench/worker.py) with its own
``TORELLI_GRAPHS_CACHE``: an empty directory for catalog-cold, a copy of
the warm cache for the others.  The warm cache is built once per source
tree under .bench_work/ by the code being measured; the user's own cache
(~/.cache/torelli-graphs) is never touched.

Every time the run reports is scaled to one fixed machine speed.  While a
worker times its items it also samples the calibration kernel of calib.py,
about every 0.05 s of timed work and inside long items too; each time is
multiplied by ``calib.NOMINAL_S`` over the mean of the samples taken
during and next to it (its speed factor), see ``scale_pass``.  The
unscaled metrics are printed and stored as well.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` its first pass runs untraced and the rest traced; it reports
the per-layer metrics of the traced passes and the tracing overhead.
Every output is checked against bench/pins.json; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and a results file with the environment record goes to ``--out`` (default
.bench_work/results/).  ``--workload all`` runs every workload untraced and
traced and prints every metric by name, including the per-workload names.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "torelli_graphs"
WORK = ROOT / ".bench_work"
PINS = BENCH / "pins.json"

sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
# seconds of timed work on either side of an item whose calibration samples
# give the item's speed factor
LOCAL_WINDOW_S = 0.5
# seconds into a run at which its worker is killed and the run fails, so
# that every run ends within 180 s
RUN_LIMIT_S = 165
# building the warm cache happens once per source tree, in the first run
WARM_LIMIT_S = 600

# end_to_end metrics of BENCHMARK.json: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
}

# The names the metrics carry on each workload: alias -> (metric, unit).
# throughput_per_s counts the workload's own unit (workloads.Workload.unit)
# and an item is one catalog type, class key, axis graph or CLI command.
NAMED = {
    "catalog-cold": {"catalog_graphs_per_s": ("throughput_per_s", "graphs/s")},
    "class-table": {
        "class_keys_per_s": ("throughput_per_s", "keys/s"),
        "class_key_p50_ms": ("item_p50_ms", "ms"),
        "class_key_p99_ms": ("item_p99_ms", "ms"),
    },
    "fiber-check": {
        "strata_per_s": ("throughput_per_s", "strata/s"),
        "fiber_check_p50_ms": ("item_p50_ms", "ms"),
        "fiber_check_p90_ms": ("item_p90_ms", "ms"),
    },
    "cli-warm": {"cli_cmd_p50_ms": ("item_p50_ms", "ms")},
}


class BenchError(Exception):
    pass


# -- environment ------------------------------------------------------------------

def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, seconds: int, size: str) -> dict:
    # dirty means uncommitted changes to the measured package
    status = _git("status", "--porcelain", "--", str(PACKAGE_DIR))
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_digest(),
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
    }


# -- processes ------------------------------------------------------------------

def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TORELLI_GRAPHS_CACHE"] = str(cache_dir)
    # str and bytes hashing otherwise differs per process, and with it the
    # iteration order of sets and the work some passes do
    env["PYTHONHASHSEED"] = "0"
    # every pass compiles its imports, whether or not a bytecode cache exists
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list, env: dict, timeout: float) -> dict:
    """Run a child interpreter to completion and parse its last stdout line.

    The child leads its own process group, which is killed once the child
    has exited or timed out, so no CLI process or ``--jobs`` pool worker it
    started outlives it."""
    timeout = max(timeout, 1.0)
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            proc.communicate()
    if stdout is None:
        raise BenchError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def ensure_warm_cache(size: str) -> Path:
    """Catalog cache built by the code under measurement, once per source
    tree and size."""
    warm = SIZES[size]["warm"]
    tag = hashlib.sha256((src_digest() + repr(warm)).encode()).hexdigest()[:16]
    target = WORK / f"warm-{size}-{tag}"
    if (target / "COMPLETE").is_file():
        return target
    tmp = WORK / f"warm-{size}-{tag}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    code = ("from torelli_graphs.cli import load_or_enumerate\n"
            f"for g, n, b in {warm!r}:\n    load_or_enumerate(g, n, b)\n"
            "print('{}')")
    try:
        run_child([sys.executable, "-c", code], child_env(tmp), WARM_LIMIT_S)
        (tmp / "COMPLETE").write_text("")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return target


# -- one run --------------------------------------------------------------------

def speed_factor(samples: list) -> float:
    """calib.NOMINAL_S over the mean of some calibration samples: below 1
    while the machine runs slower than the reference speed."""
    return calib.NOMINAL_S / statistics.fmean(samples)


def local_factor(result: dict, start: float, end: float) -> float:
    """Speed factor of the stretch [start, end] of a pass's timed work, from
    the samples taken within LOCAL_WINDOW_S of it (else the nearest one)."""
    at, samples = result["calib_at"], result["calib_s"]
    lo = bisect.bisect_left(at, start - LOCAL_WINDOW_S)
    hi = bisect.bisect_right(at, end + LOCAL_WINDOW_S)
    return speed_factor(samples[lo:hi] or [samples[min(lo, len(samples) - 1)]])


def scale_pass(result: dict) -> None:
    """Scale the times of a pass in place: each item by its local speed
    factor, the wall time by the mean item factor weighted by item time,
    and the set-up by the factor of its own samples.  The unscaled times
    are kept under ``unscaled``."""
    durations = result["durations"]
    scaled, start = [], 0.0
    for took in durations:
        scaled.append(took * local_factor(result, start, start + took))
        start += took
    result["unscaled"] = {k: result[k] for k in ("setup_s", "wall_s", "durations")}
    result["factor"] = sum(scaled) / start if start > 0 else speed_factor(result["calib_s"])
    result["setup_s"] *= speed_factor(result["setup_calib_s"])
    result["wall_s"] *= result["factor"]
    result["durations"] = scaled


def quantile(values: list, q: int) -> float:
    """q-th percentile (inclusive method); a single value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 pins: Path, why: str) -> dict:
    workload = WORKLOADS[name]
    warm = ensure_warm_cache(size) if workload.needs_warm_cache else None
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + seconds
    setups, raw_setups, factors, passes, traced_passes = [], [], [], [], []
    counter = 0

    def spawn(extra: list) -> tuple:
        nonlocal counter
        counter += 1
        pass_dir = run_dir / f"p{counter}"
        cache = pass_dir / "cache"
        if warm is None:
            cache.mkdir(parents=True)
        else:
            shutil.copytree(warm, cache)
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
                "--size", size, "--seed", str(seed), "--pins", str(pins),
                "--work-dir", str(pass_dir), "--src", str(SRC)] + extra
        t0 = time.monotonic()
        result = run_child(argv + ["--started", repr(t0)], child_env(cache),
                           start + RUN_LIMIT_S - t0)
        return result, time.monotonic() - t0

    try:
        for _ in range(SETUP_PROBES):
            result, _ = spawn(["--setup-only"])
            factor = speed_factor(result["setup_calib_s"])
            setups.append(result["setup_s"] * factor)
            raw_setups.append(result["setup_s"])
            factors.append(factor)
        durations = []
        while True:
            traced = trace and bool(passes)
            result, took = spawn(["--trace", "1" if traced else "0"])
            durations.append(took)
            scale_pass(result)
            setups.append(result["setup_s"])
            raw_setups.append(result["unscaled"]["setup_s"])
            factors.append(result["factor"])
            (traced_passes if traced else passes).append(result)
            if traced:
                spans = WORK / "spans" / f"{name}.json"
                spans.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(result.pop("spans_file"), spans)
            if trace and not traced_passes:
                continue
            if time.monotonic() + statistics.median(durations) > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = passes + traced_passes
    e2e = end_to_end(passes, setups)
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    out = {
        "workload": name,
        "why": why,
        "unit": workload.unit,
        "trace": int(trace),
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "setup_samples": len(setups),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "speed_factors": factors,
        "item_samples": len(passes[0]["durations"]),
        "run_s": time.monotonic() - start,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "messages": [m for p in everything for m in p["messages"]][:20],
        "end_to_end": e2e,
        "unscaled_end_to_end": end_to_end([{**p, **p["unscaled"]} for p in passes],
                                          raw_setups),
        "named": {alias: (e2e[metric], unit)
                  for alias, (metric, unit) in NAMED[name].items()},
    }
    if trace:
        def scaled(p, metric):
            time_unit = LAYER_METRICS.get(metric) in ("s", "ms")
            return p["layers"][metric] * (p["factor"] if time_unit else 1)

        layers = {
            metric: statistics.median(scaled(p, metric) for p in traced_passes)
            for metric in traced_passes[0]["layers"]
        }
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        layers["trace.overhead_ratio"] = traced_wall / e2e["wall_s"]
        out["layers"] = layers
    return out


def end_to_end(passes: list, setups: list) -> dict:
    """The end-to-end metrics of the untraced passes and set-up times."""
    walls = [p["wall_s"] for p in passes]
    # Latency percentiles are taken over the items, each at its median over
    # the passes.  Pooling every sample instead would put cli-warm's median
    # in the gap between its third and fourth commands, where it is set by
    # the extreme samples of both.
    items = [statistics.median(d) for d in zip(*(p["durations"] for p in passes))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "throughput_per_s": sum(p["units"] for p in passes) / sum(walls),
        "item_p50_ms": quantile(items, 50) * 1e3,
        "item_p90_ms": quantile(items, 90) * 1e3,
        "item_p99_ms": quantile(items, 99) * 1e3,
    }


# -- output ---------------------------------------------------------------------

def describe(res: dict) -> list:
    """Human-readable lines: every metric with its unit and sample count."""
    name = res["workload"]
    lines = [f"# {name}: {res['passes']} untraced + {res['traced_passes']} traced passes, "
             f"{res['setup_samples']} set-ups, {res['item_samples']} items, "
             f"{res['run_s']:.1f} s; throughput counts {res['unit']}"]
    e2e, raw = res["end_to_end"], res["unscaled_end_to_end"]
    factors = res["speed_factors"]
    lines.append(f"# {name}: speed factor median {statistics.median(factors):.4g}, "
                 f"range {min(factors):.4g}-{max(factors):.4g} over {len(factors)} workers; "
                 "times are scaled by it")
    for metric, unit in END_TO_END.items():
        lines.append(f"{name} {metric} = {e2e[metric]:.6g} {unit}")
    for metric, unit in END_TO_END.items():
        lines.append(f"{name} {metric}.unscaled = {raw[metric]:.6g} {unit}")
    for alias, (value, unit) in res["named"].items():
        lines.append(f"{name} {alias} = {value:.6g} {unit} "
                     f"(n={res['item_samples']} items x {res['passes']} passes)")
    lines.append(f"{name} failed_ratio = {res['failed_ratio']:.6g} "
                 f"({res['failed']}/{res['attempted']} checks)")
    for metric, value in res.get("layers", {}).items():
        lines.append(f"{name} {metric} = {value:.6g} {LAYER_METRICS[metric]}")
    lines += [f"{name} check failed: {m}" for m in res["messages"]]
    return lines


def metric_block(res: dict) -> dict:
    """The metrics of the result line: per-layer for a traced run."""
    if res["trace"]:
        return {m: {"value": res["layers"][m], "unit": u} for m, u in LAYER_METRICS.items()}
    return {m: {"value": res["end_to_end"][m], "unit": u} for m, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--pins", type=Path, default=PINS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    env = environment(args.seed, args.seconds, args.size)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    try:
        for name in names:
            for trace in modes:
                res = run_workload(name, args.seed, args.seconds, trace, args.size,
                                   args.pins.resolve(), why[name])
                results.append(res)
                print("\n".join(describe(res)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = args.out or WORK / "results" / (
        f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": env, "runs": results}, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload == "all":
        metrics = {f"{r['workload']}.{m}": v for r in results
                   for m, v in metric_block(r).items()}
    else:
        metrics = metric_block(results[0])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
