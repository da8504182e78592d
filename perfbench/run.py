"""The repo benchmark: how fast a paper artefact is reproduced.

The paper's method runs every design point about twenty times from one
warm checkpoint, so what users of this repo wait for is a perturbed
sample: cold, re-requested from the store, and live-sampled.  One
command runs one workload as a closed loop with a single caller (each
call starts after the previous one returned)::

    python3 perfbench/run.py --workload exp1_cold --seed 1 --seconds 15 --trace 0

and prints every metric with its unit, then one JSON object as its last
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones from separately traced repetitions.  The exit code is 1
when an output check fails or a run fails or times out.

Workloads, and why each was chosen
----------------------------------
- ``exp1_cold``: the paper's Experiment 1 (``benchmarks/experiments.py``)
  sized for a 2-core host: a fresh dir-backend store, one OLTP
  checkpoint warmed on timed warm-up (set-up), then DM/2/4-way L2 x the
  seed window x 200 measured transactions with the simple core and
  fixed sampling through ``run_space(checkpoint=..., store=...)``,
  ``n_jobs=1``.  Almost all the work is simulation (``workloads/``,
  ``system/machine``, ``memory/``); the store and checkpoint layers only
  write.
- ``exp1_resume``: the same grid re-requested against a store that
  set-up filled with it, each pass resolving the checkpoint from the
  store the way ``benchmarks/common.warm_checkpoint`` does.  Nothing is
  simulated: store reads, run keys and checkpoint fetch/digest do all
  the work, so it exercises the exp1_cold layers as reads, not writes.
- ``exp2_live``: the paper's Experiment 2 as a ``Campaign`` over ROB
  16/32/64 on the OOO core with ``warm_start=True``,
  ``warmup_mode="functional"``, ``sampling_mode="live"``, a sqlite store
  and ``n_jobs=2`` fan-out workers; set-up builds the three functional
  warm checkpoints through ``warm_checkpoint(mode="functional")``.  It
  exercises ``core/ffwd``, ``core/livesample``, ``proc/ooo``,
  ``core/fanout``, ``campaign`` and the sqlite backend, which both
  exp1 workloads bypass.

Inputs come from ``--seed``: it picks a window of perturbation seeds
inside a pinned pool (``child.seed_window``), so every output can be
checked against ``pinned.json``.  Every repetition runs in a fresh
interpreter (``child.py``) with a fresh temporary store, so no
process-global cache carries over; ``workloads.memo_hit_rate`` shows it
if one does.  Repetitions continue until ``--seconds`` of measured time
have passed (at least three).  ``runs_per_s`` is the median, over
every configuration's sample a repetition requested, of runs returned /
sample wall (a sample is one ``run_space`` call, or one campaign cell,
including its checkpoint resolve); ``setup_s`` is the median set-up of a
repetition (plus the one store fill for exp1_resume) and
``peak_rss_mb`` the largest repetition's self + children peak RSS.

Host speed: on a shared host the speed of pure-Python code drifts by
tens of percent within a minute, and every timing here drifts with it.
So the repetition process also times a fixed integer loop
(``child.reference_s``) before and after each sample and at both ends
of its set-up, outside every timed interval, and ``runs_per_s`` and
``setup_s`` are reported at the host speed at which that loop takes
``child.REF_KERNEL_S`` (``child.at_ref_speed``): each sample's wall is
scaled by ``REF_KERNEL_S`` / the mean of the readings around it.  The
loop builds no containers, so state the simulator leaves in the process
does not change its time.  The drift differs between CPUs: exp1's
readings are taken where its work runs, in the repetition process;
exp2_live's runs execute in fan-out workers on every CPU, so each of its
readings is the mean of one taken pinned to each CPU.  The uncorrected
medians and the median reading are printed too.

Output checks
-------------
- exp1_cold and exp1_resume: the SHA-256 of every result's canonical
  ``SimulationResult.to_dict()`` payload must equal the pinned one.
- exp2_live: ``est_err_rel``, the largest relative error of a ROB
  config's live-sampled mean against the pinned all-timed (fixed-mode)
  means of the same seeds, must stay within the pinned limit.
- Any failed or timed-out run fails the command.

Per-layer map: :data:`LAYER_MAP` gives, for each per-layer metric, its
module and the end-to-end metric and workload it should move.
exp2_live's per-seed work runs in forked fan-out workers whose spans
cannot reach the parent: its layer times are parent-side only, and its
``livesample.*`` counts come from the result payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import REF_KERNEL_S, SIZES, WORKLOADS, at_ref_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space (temporary stores) and span files, inside the checkout
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

#: fewest repetitions a median is taken over (pairs when tracing)
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
MAX_REPS = 40
#: the whole command ends within this many seconds of host time
DEADLINE_S = 165.0

#: per-layer metric -> (module, what it should move)
LAYER_MAP = {
    "workloads.next_ops_s": ("workloads", "runs_per_s on exp1_cold; nothing on exp1_resume"),
    "workloads.next_ops_calls": ("workloads", "runs_per_s on exp1_cold; nothing on exp1_resume"),
    "workloads.memo_hit_rate": ("workloads", "runs_per_s on exp1_cold; nothing on exp1_resume"),
    "memory.access_s": ("memory", "runs_per_s on exp1_cold and exp2_live"),
    "memory.access_calls": ("memory", "runs_per_s on exp1_cold and exp2_live"),
    "memory.l1_hit_rate": ("memory", "must stay identical"),
    "memory.l2_miss_rate": ("memory", "must stay identical"),
    "memory.access_functional_s": ("memory", "setup_s and runs_per_s on exp2_live"),
    "memory.access_functional_calls": ("memory", "setup_s and runs_per_s on exp2_live"),
    "system.run_until_s": ("system", "runs_per_s on exp1_cold"),
    "system.run_until_self_s": ("system", "runs_per_s on exp1_cold"),
    "system.events": ("system", "runs_per_s on exp1_cold"),
    "ffwd.fast_forward_s": ("core.ffwd", "setup_s and runs_per_s on exp2_live"),
    "checkpoint.warm_s": ("system.checkpoint", "setup_s on exp1_cold"),
    "checkpoint.digest_s": ("system.checkpoint", "runs_per_s on exp1_resume"),
    "checkpoint.digest_calls": ("system.checkpoint", "runs_per_s on exp1_resume"),
    "checkpoint.digest_frac": ("system.checkpoint", "runs_per_s on exp1_resume"),
    "checkpoint.materialize_s": ("system.checkpoint", "runs_per_s on exp1_cold"),
    "checkpoint.materialize_calls": ("system.checkpoint", "runs_per_s on exp1_cold"),
    "store.get_many_s": ("store", "runs_per_s on exp1_resume"),
    "store.get_checkpoint_s": ("store", "runs_per_s on exp1_resume"),
    "store.hit_ratio": ("store", "runs_per_s on exp1_resume"),
    "store.put_s": ("store", "runs_per_s on exp1_cold (dir) and exp2_live (sqlite)"),
    "store.put_calls": ("store", "runs_per_s on exp1_cold (dir) and exp2_live (sqlite)"),
    "runner.run_key_s": ("core.request", "runs_per_s on exp1_resume"),
    "fanout.execute_shared_s": ("core.fanout", "runs_per_s on exp2_live"),
    "campaign.plan_s": ("campaign", "runs_per_s on exp2_live"),
    "livesample.timed_txn_frac": ("core.livesample", "runs_per_s and ci_halfwidth_rel on exp2_live"),
    "livesample.timed_windows": ("core.livesample", "runs_per_s and ci_halfwidth_rel on exp2_live"),
    "livesample.n_strata": ("core.livesample", "runs_per_s and ci_halfwidth_rel on exp2_live"),
    "ci_halfwidth_rel": ("core.confidence", "precision of every workload's estimate"),
    "est_err_rel": ("core.livesample", "accuracy on exp2_live; 0 on exp1 (fixed mode)"),
    "trace.overhead_frac": ("tracing", "traced / untraced measured wall - 1"),
    "trace.residual_frac": ("tracing", "share of measured wall no top-level span covers"),
}


class ChildFailed(RuntimeError):
    """A repetition process failed, timed out or printed no result."""


def run_child(params: dict, deadline: float) -> tuple[dict, float]:
    """Run ``child.py`` with ``params``; returns (its JSON, spawn time).

    The child runs in its own session so that, on a timeout, it and any
    fan-out workers it started are killed together and waited for.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(params)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{params['workload']} repetition ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise ChildFailed(
            f"{params['workload']} repetition exited {proc.returncode}:\n{stderr[-2000:]}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{params['workload']} repetition printed no result")
    return json.loads(lines[-1]), spawned


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``kind`` metrics declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def measure(args, work: Path) -> tuple[list, list, tuple[float, float]]:
    """Run repetitions; returns (untraced, traced, extra set-up seconds
    as measured and at reference speed)."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    base = {"workload": args.workload, "size": args.size, "seed": args.seed}
    extra_setup = (0.0, 0.0)  # (seconds, at reference speed)
    if args.workload == "exp1_resume":
        filled = str(work / "filled")
        out, spawned = run_child({**base, "mode": "fill", "store": filled}, deadline)
        seconds = time.monotonic() - spawned - out["ref_spent"]
        extra_setup = (seconds, at_ref_speed(seconds, out["ref"]))
        base["source_store"] = filled

    plain: list[dict] = []
    traced: list[dict] = []
    measured = 0.0
    longest = 0.0
    index = 0

    def one(trace: bool) -> None:
        nonlocal measured, longest, index
        params = {**base, "store": str(work / f"store{index}"), "trace": trace}
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            params["trace_out"] = str(OUT_DIR / f"{args.workload}.spans.jsonl")
        index += 1
        before = time.monotonic()
        out, spawned = run_child(params, deadline)
        out["setup_s"] = out["measure_start"] - spawned - out["ref_setup_spent"]
        (traced if trace else plain).append(out)
        measured += out["measure_s"]
        longest = max(longest, time.monotonic() - before)
        shutil.rmtree(params["store"], ignore_errors=True)

    while len(plain) < MAX_REPS:
        if args.trace:
            enough = len(traced) >= MIN_TRACED_PAIRS
        else:
            enough = len(plain) >= MIN_REPS
        if enough and measured >= args.seconds:
            break
        pair = 2 if args.trace else 1
        if plain and time.monotonic() + pair * 1.5 * longest > deadline:
            break
        if args.trace:
            # alternate which side runs first
            for trace in (False, True) if len(plain) % 2 == 0 else (True, False):
                one(trace)
        else:
            one(False)
    return plain, traced, extra_setup


def summarize(args, plain, traced, extra_setup) -> tuple[dict, dict, int, int, list]:
    """Medians of the repetitions; returns (metrics, uncorrected timings,
    attempted, failed, problems)."""
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    median = statistics.median
    units = [unit for r in plain for unit in r["units"]]
    raw = {
        "runs_per_s": median(runs / secs for runs, secs, _ref in units),
        "setup_s": extra_setup[0] + median(r["setup_s"] for r in plain),
        "ref_s": median([ref for _runs, _secs, ref in units] + [r["ref_setup"] for r in plain]),
    }
    if args.trace:
        metrics = {
            name: median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_frac"] = (
            median(r["measure_s"] for r in traced) / median(r["measure_s"] for r in plain) - 1.0
        )
    else:
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "runs_per_s": median(runs / at_ref_speed(secs, ref) for runs, secs, ref in units),
            "setup_s": extra_setup[1]
            + median(at_ref_speed(r["setup_s"], r["ref_setup"]) for r in plain),
            "peak_rss_mb": own_rss + max(r["rss_mb"] for r in plain),
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        }
    return metrics, raw, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'smoke' shrinks every input, for the benchmark's tests")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child kills its child group
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = metric_units("per_layer" if args.trace else "end_to_end")

    TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        plain, traced, extra_setup = measure(args, work)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, raw, attempted, failed, problems = summarize(args, plain, traced, extra_setup)
    if set(metrics) != set(specs):
        print(f"metrics {sorted(set(metrics) ^ set(specs))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    correct = not problems and failed == 0
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {attempted} runs, {failed} failed")
    if args.trace and args.workload == "exp2_live":
        print("note: exp2_live layer times are parent-side spans only (per-seed work "
              "runs in forked fan-out workers); livesample.* come from result payloads")
    for name, unit in specs.items():
        where = f"  [{LAYER_MAP[name][0]} -> {LAYER_MAP[name][1]}]" if args.trace else ""
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}{where}")
    print(f"host reference loop: median {raw['ref_s'] * 1e3:.3f} ms "
          f"(timings reported at {REF_KERNEL_S * 1e3:.2f} ms); uncorrected "
          f"runs_per_s {raw['runs_per_s']:.6g} 1/s, setup_s {raw['setup_s']:.6g} s")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
