"""Tests of the repo benchmark (run with ``python3 -m pytest perfbench/tests``).

They run the benchmark at smoke size: every named metric must print with
its unit, a tampered result payload must trip the digest check, and in a
tiny traced run the self times must sum to no more than the wall time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", child.WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    text = "\n".join(lines[:-1])
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f" {metric['unit']}" in next(
            line for line in text.splitlines() if line.split()[:1] == [metric["name"]]
        )


def test_layer_map_matches_benchmark_json():
    assert set(run.LAYER_MAP) == {m["name"] for m in SPEC["per_layer"]}


def test_seed_window_is_deterministic_and_pinned():
    pinned = child.load_pinned("full")
    for seed in range(50):
        seeds = child.seed_window(seed, "full")
        assert seeds == child.seed_window(seed, "full")
        for assoc in child.L2_ASSOCIATIVITIES:
            assert all(str(s) in pinned["exp1"][str(assoc)] for s in seeds)
        for rob in child.ROB_ENTRIES:
            assert all(str(s) in pinned["exp2"][str(rob)] for s in seeds)


def test_timings_are_reported_at_reference_speed():
    """A host twice as slow doubles every wall and every reference
    reading, and leaves the reported runs_per_s and setup_s unchanged."""

    def repetition(slow: float) -> dict:
        ref = child.REF_KERNEL_S * slow
        return {
            "units": [[2, 0.5 * slow, ref], [2, 0.4 * slow, ref], [2, 0.6 * slow, ref]],
            "setup_s": 3.0 * slow,
            "ref_setup": ref,
            "attempted": 6,
            "failed": 0,
            "problems": [],
            "rss_mb": 100.0,
        }

    args = SimpleNamespace(trace=0)
    fast, fast_raw, *_ = run.summarize(args, [repetition(1.0)], [], (1.0, 1.0))
    slow, slow_raw, *_ = run.summarize(args, [repetition(2.0)], [], (2.0, 1.0))
    assert fast["runs_per_s"] == pytest.approx(4.0) == pytest.approx(slow["runs_per_s"])
    assert fast["setup_s"] == pytest.approx(4.0) == pytest.approx(slow["setup_s"])
    assert fast_raw["runs_per_s"] == pytest.approx(4.0)
    assert slow_raw["runs_per_s"] == pytest.approx(2.0)
    assert slow_raw["setup_s"] == pytest.approx(8.0)


def test_spread_reading_restores_cpu_affinity():
    allowed = os.sched_getaffinity(0)
    assert child.reference_s(spread=True) > 0
    assert os.sched_getaffinity(0) == allowed


def test_tampered_payload_trips_digest_check(tmp_path):
    from dataclasses import replace

    from repro.store import RunStore

    store = RunStore(tmp_path / "store", backend="dir")
    seeds = child.seed_window(0, "smoke")
    checkpoint = child.exp1_checkpoint("smoke", store)
    results, failures = child.exp1_grid("smoke", seeds, checkpoint, store)
    pinned = child.load_pinned("smoke")
    assert not failures
    assert child.check_exp1(results, pinned) == []

    tampered = dict(results)
    first = tampered[1][0]
    tampered[1] = [replace(first, elapsed_ns=first.elapsed_ns + 1)] + tampered[1][1:]
    problems = child.check_exp1(tampered, pinned)
    assert len(problems) == 1 and "digest differs" in problems[0]


def test_tracer_self_times_cover_nested_calls():
    tracer = Tracer()
    tracer.phase = "measure"

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap(leaf, "leaf", aggregate=True)

    def outer():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    traced_outer = tracer.wrap(outer, "outer")
    start = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - start

    assert tracer.calls("leaf") == 2 and tracer.calls("outer") == 1
    selfs = tracer.self_times()
    assert selfs["outer"] < tracer.seconds("outer")
    assert sum(selfs.values()) <= wall
    # only the non-aggregated span is recorded, with no parent
    assert [(s[1], s[5]) for s in tracer.spans] == [("outer", None)]


def test_tiny_traced_run_self_times_within_wall(tmp_path):
    script = textwrap.dedent(
        f"""
        import json, sys, time
        sys.path.insert(0, {str(HERE)!r})
        import child
        from tracer import Tracer
        tracer = Tracer()
        child.install_tracer(tracer)
        rep = child.Repetition(
            {{"workload": "exp1_cold", "size": "smoke", "seed": 1,
              "store": {str(tmp_path / "store")!r}}},
            tracer,
        )
        rep.exp1_cold()
        wall = rep.end_measure()
        print(json.dumps({{"wall": wall, "selfs": tracer.self_times("measure"),
                           "problems": rep.problems}}))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["problems"] == []
    assert {"memory.access", "workloads.next_ops", "system.run_until"} <= set(out["selfs"])
    assert sum(out["selfs"].values()) <= out["wall"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "exp1_cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
