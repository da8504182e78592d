"""Checkpoint layer ledger: what one warm checkpoint costs, leg by leg.

Every Experiment 1 sample starts from one shared warm checkpoint (paper
section 3.2.2), so each sample pays some of these legs: the store
resolves the checkpoint (load), the run key hashes it (``digest``), and
each run rebuilds a machine from it (``materialize``).  The checkpoint
is the one ``perfbench`` builds for Experiment 1: the 16-CPU default
system after a timed 1000-transaction OLTP warm-up under the shared
warm-up perturbation stream.

Legs, each the median wall milliseconds of ``--timings`` calls on one
warm checkpoint:

- ``capture``: :meth:`Checkpoint.capture` of the warm machine;
- ``digest``: :meth:`Checkpoint.digest`;
- ``save_dir``/``load_dir`` and ``save_sqlite``/``load_sqlite``:
  ``RunStore.put_checkpoint``/``get_checkpoint`` on each store backend;
- ``materialize``: :meth:`Checkpoint.materialize` under the capture's
  own configuration.

Every repetition runs in a fresh interpreter that warms its own
checkpoint.  With ``--baseline SRC`` the same script also runs against
the ``repro`` package under ``SRC`` (e.g. ``src/`` of a checkout of the
parent commit), alternating with the current tree, and records those
legs as ``before``; without it an existing ``before`` is carried over.
Writes ``BENCH_checkpoint.json`` at the repo root.  Usage::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --baseline ../parent/src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_checkpoint.json"

N_CPUS = 16
WARMUP_TXNS = 1000
MAX_TIME_NS = 10**13
LEGS = (
    "capture",
    "digest",
    "save_dir",
    "load_dir",
    "save_sqlite",
    "load_sqlite",
    "materialize",
)


def _median_ms(fn, timings: int) -> float:
    times = []
    for i in range(timings):
        start = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1000, 2)


def measure_legs(timings: int) -> dict:
    """One repetition: warm the checkpoint, then time every leg."""
    from repro.config import SystemConfig
    from repro.store import RunStore
    from repro.system.checkpoint import Checkpoint, warm_checkpoint
    from repro.workloads.registry import make_workload

    config = SystemConfig(n_cpus=N_CPUS)
    checkpoint = warm_checkpoint(
        config, make_workload("oltp"),
        warmup_transactions=WARMUP_TXNS, max_time_ns=MAX_TIME_NS,
    )
    machine = checkpoint.materialize(config)
    legs = {
        "capture": _median_ms(lambda i: Checkpoint.capture(machine), timings),
        "digest": _median_ms(lambda i: checkpoint.digest(), timings),
        "materialize": _median_ms(lambda i: checkpoint.materialize(config), timings),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("dir", "sqlite"):
            store = RunStore(Path(tmp) / kind, backend=kind)
            legs[f"save_{kind}"] = _median_ms(
                lambda i: store.put_checkpoint(f"k{i}", checkpoint), timings
            )
            legs[f"load_{kind}"] = _median_ms(
                lambda i: store.get_checkpoint(f"k{i}"), timings
            )
    return {leg: legs[leg] for leg in LEGS}


def run_child(src: Path, timings: int) -> dict:
    """One repetition in a fresh interpreter importing ``repro`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", "--timings", str(timings)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(reps: list[dict]) -> dict:
    return {
        "median_ms": {leg: round(statistics.median(r[leg] for r in reps), 2) for leg in LEGS},
        "reps_ms": {leg: [r[leg] for r in reps] for leg in LEGS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=5, help="fresh-interpreter repetitions per side")
    parser.add_argument("--timings", type=int, default=5, help="timed calls per leg per repetition")
    parser.add_argument("--baseline", type=Path, help="src/ directory of the commit to compare against")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure_legs(args.timings)))
        return 0

    current_src = ROOT / "src"
    after, before = [], []
    for rep in range(args.reps):
        # alternate which side runs first so host drift biases neither
        sides = [("after", current_src), ("before", args.baseline)]
        if rep % 2:
            sides.reverse()
        for label, src in sides:
            if src is None:
                continue
            legs = run_child(src, args.timings)
            (after if label == "after" else before).append(legs)
            print(f"rep {rep} {label:6s} " + "  ".join(f"{k} {v:.1f}" for k, v in legs.items()))

    doc = {
        "scenario": {
            "workload": "oltp",
            "n_cpus": N_CPUS,
            "warmup_transactions": WARMUP_TXNS,
            "warmup_mode": "timed",
            "reps": args.reps,
            "timings_per_leg": args.timings,
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
            "note": (
                "median wall ms per leg on the Experiment 1 warm checkpoint; "
                "each rep is a fresh interpreter; 'before' is this script run "
                "against the --baseline tree, its reps alternating with these"
            ),
        },
        **_summary(after),
    }
    if before:
        doc["before"] = _summary(before)
    elif OUT_PATH.exists():
        previous = json.loads(OUT_PATH.read_text()).get("before")
        if previous is not None:
            doc["before"] = previous
    if "before" in doc:
        doc["digest_speedup_vs_before"] = round(
            doc["before"]["median_ms"]["digest"] / doc["median_ms"]["digest"], 1
        )
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\ndigest {doc['median_ms']['digest']} ms"
          + (f" (before {doc['before']['median_ms']['digest']} ms)" if "before" in doc else ""))
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
