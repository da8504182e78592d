"""Regenerate the pinned references in ``pinned.json``.

Runs every seed of the pinned pool once, in this process:

- Experiment 1: each result's payload digest and cycles per transaction
  for DM/2/4-way L2 (the exp1_cold / exp1_resume output check);
- Experiment 2: the all-timed (``sampling_mode="fixed"``) cycles per
  transaction of each seed for ROB 16/32/64 (the reference of
  ``est_err_rel``), and the limit on ``est_err_rel``: the worst error any
  seed window of the pool gives with live sampling, plus a quarter.

Only needed when the simulator's results change on purpose::

    python3 perfbench/pin.py --size full
"""

from __future__ import annotations

import argparse
import json
import math
import tempfile

import child


def pin(size: str) -> dict:
    from repro.store import RunStore

    shape = child.SIZES[size]
    pool = [child.SEED_POOL_BASE + i for i in range(shape["pool"])]
    pinned: dict = {"exp1": {}, "exp2": {}}
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(f"{root}/exp1", backend="dir")
        checkpoint = child.exp1_checkpoint(size, store)
        samples, failures = child.exp1_grid(size, pool, checkpoint, store)
        if failures:
            raise SystemExit(f"Experiment 1 failed: {failures}")
        for assoc, runs in samples.items():
            pinned["exp1"][str(assoc)] = {
                str(r.seed): {
                    "sha256": child.payload_hash(r.to_dict()),
                    "cycles_per_transaction": r.cycles_per_transaction,
                }
                for r in runs
            }

        store = RunStore(f"{root}/exp2", backend="sqlite")
        child.exp2_warm(size, store)
        by_mode = {}
        for mode in ("fixed", "live"):
            report = child.exp2_campaign(size, pool, store, sampling_mode=mode).run()
            if report.n_failures:
                raise SystemExit(f"Experiment 2 ({mode}) failed")
            by_mode[mode] = dict(zip(child.ROB_ENTRIES, (c.sample.results for c in report.cells)))
        for rob, runs in by_mode["fixed"].items():
            pinned["exp2"][str(rob)] = {str(r.seed): r.cycles_per_transaction for r in runs}

    worst = 0.0
    k = shape["runs"]
    for start in range(len(pool) - k + 1):
        window = {rob: runs[start : start + k] for rob, runs in by_mode["live"].items()}
        worst = max(worst, child.exp2_est_err(window, pinned))
    pinned["exp2_err_limit"] = math.ceil(worst * 1.25 * 1000) / 1000
    return pinned


def main() -> None:
    parser = argparse.ArgumentParser(description="regenerate pinned.json")
    parser.add_argument("--size", choices=sorted(child.SIZES), required=True)
    args = parser.parse_args()
    try:
        with open(child.PINNED_PATH) as f:
            data = json.load(f)
    except FileNotFoundError:
        data = {}
    data[args.size] = pin(args.size)
    with open(child.PINNED_PATH, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
