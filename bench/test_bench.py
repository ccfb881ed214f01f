"""Self-test of the benchmark at toy size.

    python3 -m pytest bench/test_bench.py

Runs every workload on the toy inputs ((0,5) and (2,1) catalogs, a 5-slot
point, one CLI command) for about a second each.  Not part of the
library's test suite, which lives in tests/.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, restored  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_the_runner():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)
    assert sorted(run.NAMED) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    human, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{workload} {m['name']} = ") and line.endswith(m["unit"])
                   for line in human)
    if not trace:
        for alias, (_, unit) in run.NAMED[workload].items():
            assert any(line.startswith(f"{workload} {alias} = ") and f" {unit} " in line
                       for line in human), alias
        assert any(line.startswith(f"{workload} failed_ratio = 0 ") for line in human)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_wrong_pin_is_a_failure(workload, tmp_path):
    pins = json.loads(run.PINS.read_text())
    toy = pins["toy"][workload]
    # the first scalar pin of the workload, made wrong
    field = sorted(k for k, v in toy.items() if isinstance(v, (int, str)) and not isinstance(v, bool))[0]
    toy[field] = toy[field] + 1 if isinstance(toy[field], int) else toy[field] + "x"
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins))
    human, result = bench(workload, 0, "--pins", str(bad))
    assert result["failed"] > 0 and not result["correct"]
    assert any(line.startswith(f"{workload} failed_ratio = ") and not line.endswith("= 0")
               for line in human)


def test_tracer_restores_every_attribute():
    sys.path.insert(0, str(run.SRC))
    import torelli_graphs as tg
    from torelli_graphs import cli

    modules = [m for n, m in sys.modules.items() if n.startswith("torelli_graphs")]
    before = {id(m): dict(vars(m)) for m in modules}
    classes = (tg.StableGraph, tg.ExtremalAssignment)
    class_before = {c: dict(vars(c)) for c in classes}

    tracer = Tracer()
    tracer.install()
    try:
        graph = tg.StableGraph.build({0: 0, 1: 0}, [(0, 1)] * 3)
        tg.torelli_key(graph)
        assert len(tracer.start) > 0
    finally:
        replaced = tracer.uninstall()
    assert restored(replaced)
    for m in modules:
        now = vars(m)
        assert all(now[k] is v for k, v in before[id(m)].items()), m.__name__
    for c, snapshot in class_before.items():
        assert all(vars(c)[k] is v for k, v in snapshot.items())
    assert cli.load_or_enumerate is before[id(cli)]["load_or_enumerate"]


def test_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_times_are_scaled_by_nearby_samples():
    nominal = run.calib.NOMINAL_S
    # the machine ran at half speed during the first item, full speed later
    result = {"setup_s": 1.0, "wall_s": 3.0, "durations": [1.0, 2.0],
              "setup_calib_s": [2 * nominal] * 3,
              "calib_s": [2 * nominal] * 5 + [nominal] * 5,
              "calib_at": [0.1, 0.3, 0.5, 0.7, 0.9, 2.1, 2.3, 2.5, 2.7, 2.9]}
    run.scale_pass(result)
    assert result["unscaled"]["durations"] == [1.0, 2.0]
    # the first item sees only the slow samples, the second mostly fast ones
    assert result["durations"][0] == pytest.approx(0.5)
    assert 1.0 < result["durations"][1] < 2.0
    assert result["setup_s"] == pytest.approx(0.5)
    assert result["wall_s"] == pytest.approx(sum(result["durations"]))


def test_sampler_samples_inside_a_long_item():
    from sampler import Sampler

    sampler = Sampler(timer=True)
    sampler.start()
    try:
        sampler.begin()
        t = time.process_time()
        while time.process_time() - t < 0.5:
            pass
        took = sampler.end()
    finally:
        sampler.stop()
    inside = [at for at in sampler.at if at < took]
    assert len(inside) >= 2
    assert took < 0.5 + 0.05 and took + sampler.spent >= 0.5
