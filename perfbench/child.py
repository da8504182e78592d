"""One repetition of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per repetition, so the process-global
transaction-stream memo (``repro.workloads.base``), the fan-out worker
cache and any warm-checkpoint cache start empty every time, and each
repetition gets its own temporary store.  Usage (internal)::

    python3 perfbench/child.py '<json parameters>'

The parameters name the workload, the size, the seed, the store
directory and whether to trace.  The script prints one JSON object as
the last line of its standard output.  The ``fill`` mode builds
``exp1_resume``'s filled store and prints only its host readings.

With tracing on, the span recorder of :mod:`tracer` is installed before
any machine is built: ``Machine._make_simple_handlers`` binds
``hierarchy.access`` when a machine is built, so a wrapper installed
later would miss those calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: run sizes; "full" is what the benchmark measures, "smoke" is for tests
SIZES = {
    "full": {
        "n_cpus": 16,
        "warmup": 1000,
        "txns": 200,
        "runs": 2,
        "pool": 12,
        "resume_passes": 3,
    },
    "smoke": {
        "n_cpus": 4,
        "warmup": 40,
        "txns": 32,
        "runs": 2,
        "pool": 3,
        "resume_passes": 1,
    },
}

#: first perturbation seed of the pinned pool
SEED_POOL_BASE = 1000
#: Experiment 1 configurations (L2 associativity) and Experiment 2 (ROB)
L2_ASSOCIATIVITIES = (1, 2, 4)
ROB_ENTRIES = (16, 32, 64)
#: simulated-time cap of every run and warm-up (as benchmarks/common.py)
MAX_TIME_NS = 10**13
#: fan-out workers of exp2_live
EXP2_JOBS = 2

PINNED_PATH = HERE / "pinned.json"

#: the host reference kernel: an integer loop of this many iterations,
#: timed this many times per reading (the median is the reading)
REF_ITERATIONS = 300_000
REF_TIMINGS = 5
#: roughly the kernel's time on the host the benchmark was sized on (a
#: 2-vCPU Xeon VM, idle); timings are reported at this host speed
REF_KERNEL_S = 0.025

WORKLOADS = ("exp1_cold", "exp1_resume", "exp2_live")


def seed_window(seed: int, size: str) -> list[int]:
    """The perturbation seeds a benchmark seed selects.

    A contiguous window of ``runs`` seeds inside the pinned pool, so
    every seed's outputs can be checked against pinned references.
    """
    shape = SIZES[size]
    offset = random.Random(seed).randrange(shape["pool"] - shape["runs"] + 1)
    start = SEED_POOL_BASE + offset
    return list(range(start, start + shape["runs"]))


def reference_s(spread: bool = False) -> float:
    """One reading of the host's current speed: the median time of a
    fixed integer loop.

    The loop builds no containers, so nothing the simulator leaves in
    the process (heap size, gc settings, its caches) changes its time;
    only the host does.  On a shared host the speed of pure-Python code
    drifts by tens of percent within a minute, and the simulator's
    times drift with it, so each timing is scaled by the reading taken
    next to it (see ``at_ref_speed``).  The drift differs between CPUs,
    so for work ``spread`` over every CPU (fan-out workers) the reading
    is the mean of one taken on each CPU this process may use.
    """
    if not spread:
        return _kernel_s()
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            readings.append(_kernel_s())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(readings)


def _kernel_s() -> float:
    times = []
    for _ in range(REF_TIMINGS):
        start = time.perf_counter()
        x = 0
        for i in range(REF_ITERATIONS):
            x += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_ref_speed(seconds: float, ref: float) -> float:
    """``seconds`` measured while the kernel took ``ref``, scaled to the
    host speed at which it takes ``REF_KERNEL_S``."""
    return seconds * REF_KERNEL_S / ref


def payload_hash(payload: dict) -> str:
    """SHA-256 of a ``SimulationResult.to_dict()`` payload in canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_pinned(size: str) -> dict:
    """The pinned references of one size (see pin.py)."""
    with open(PINNED_PATH) as f:
        return json.load(f)[size]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def base_config(size: str):
    from repro.config import SystemConfig

    return SystemConfig(n_cpus=SIZES[size]["n_cpus"])


def measured_run(size: str, seed: int, *, warmup: int = 0):
    from repro.config import RunConfig

    return RunConfig(
        measured_transactions=SIZES[size]["txns"],
        warmup_transactions=warmup,
        seed=seed,
        max_time_ns=MAX_TIME_NS,
    )


def exp1_checkpoint(size: str, store):
    """The warm OLTP checkpoint of Experiment 1, resolved through the
    store the way ``benchmarks/common.warm_checkpoint`` does."""
    from repro.system import checkpoint
    from repro.workloads.registry import make_workload

    return checkpoint.warm_checkpoint(
        base_config(size),
        make_workload("oltp"),
        warmup_transactions=SIZES[size]["warmup"],
        max_time_ns=MAX_TIME_NS,
        store=store,
    )


def exp1_grid(size: str, seeds: list[int], checkpoint, store, on_sample=None) -> tuple[dict, list]:
    """DM/2/4-way L2 x seeds through ``run_space``, one configuration's
    sample at a time; returns the results by associativity and the failures.

    With ``checkpoint=None`` every sample first resolves the checkpoint
    from the store, as a user re-running one configuration does.
    ``on_sample(n_runs)`` is called as each sample returns.
    """
    from repro.core.runner import RunSpaceError, run_space
    from repro.workloads.registry import make_workload

    base = base_config(size)
    results, failures = {}, []
    for assoc in L2_ASSOCIATIVITIES:
        resolved = checkpoint if checkpoint is not None else exp1_checkpoint(size, store)
        try:
            sample = run_space(
                base.with_l2_associativity(assoc),
                make_workload("oltp"),
                measured_run(size, seeds[0]),
                len(seeds),
                seeds=seeds,
                checkpoint=resolved,
                store=store,
            )
        except RunSpaceError as exc:
            failures.extend(str(f) for f in exc.failures)
        else:
            results[assoc] = sample.results
        if on_sample is not None:
            on_sample(len(results.get(assoc, ())))
    return results, failures


def exp2_configs(size: str) -> list:
    base = base_config(size)
    return [(f"rob{rob}", base.with_rob_entries(rob)) for rob in ROB_ENTRIES]


def exp2_warm(size: str, store) -> None:
    """Build the three functional warm checkpoints into the store."""
    from repro.system import checkpoint
    from repro.workloads.registry import make_workload

    for _label, config in exp2_configs(size):
        checkpoint.warm_checkpoint(
            config,
            make_workload("oltp"),
            warmup_transactions=SIZES[size]["warmup"],
            max_time_ns=MAX_TIME_NS,
            store=store,
            mode="functional",
        )


def exp2_campaign(size: str, seeds: list[int], store, *, sampling_mode: str = "live"):
    """Experiment 2 as a warm-started campaign over ROB 16/32/64."""
    from repro.campaign import Campaign, CampaignSpec
    from repro.core.request import WorkloadSpec

    spec = CampaignSpec(
        configs=exp2_configs(size),
        workloads=[WorkloadSpec.resolve("oltp")],
        run=measured_run(size, seeds[0], warmup=SIZES[size]["warmup"]),
        n_runs=len(seeds),
        name="exp2",
        warm_start=True,
        warmup_mode="functional",
        sampling_mode=sampling_mode,
    )
    return Campaign(spec, store, n_jobs=EXP2_JOBS)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_exp1(results: dict, pinned: dict) -> list[str]:
    """Every result's payload hash must equal the pinned one."""
    problems = []
    for assoc, runs in results.items():
        for result in runs:
            want = pinned["exp1"][str(assoc)].get(str(result.seed))
            if want is None:
                problems.append(f"{assoc}-way seed {result.seed}: no pinned digest")
            elif payload_hash(result.to_dict()) != want["sha256"]:
                problems.append(f"{assoc}-way seed {result.seed}: payload digest differs")
    return problems


def mean_error(means: dict, references: dict) -> float:
    """Largest relative error of a config's mean against its reference."""
    return max(abs(means[key] - ref) / ref for key, ref in references.items())


def exp1_est_err(results: dict, pinned: dict) -> float:
    means, refs = {}, {}
    for assoc, runs in results.items():
        means[assoc] = sum(r.cycles_per_transaction for r in runs) / len(runs)
        pins = pinned["exp1"][str(assoc)]
        refs[assoc] = sum(pins[str(r.seed)]["cycles_per_transaction"] for r in runs) / len(runs)
    return mean_error(means, refs)


def exp2_est_err(samples: dict, pinned: dict) -> float:
    """Live-sampled means against the pinned all-timed means of the same seeds."""
    means, refs = {}, {}
    for rob, runs in samples.items():
        means[rob] = sum(r.cycles_per_transaction for r in runs) / len(runs)
        pins = pinned["exp2"][str(rob)]
        refs[rob] = sum(pins[str(r.seed)] for r in runs) / len(runs)
    return mean_error(means, refs)


def ci_halfwidth_rel(samples: dict) -> float:
    """Largest 95% CI half-width of a config's mean, relative to the mean."""
    from repro.core.confidence import confidence_interval

    worst = 0.0
    for runs in samples.values():
        ci = confidence_interval([r.cycles_per_transaction for r in runs], 0.95)
        worst = max(worst, ci.half_width / ci.mean)
    return worst


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def install_tracer(tracer) -> None:
    """Wrap the public functions of every measured layer."""
    from repro.campaign import campaign as campaign_module
    from repro.campaign import executor
    from repro.campaign.campaign import Campaign
    from repro.core import fanout
    from repro.core.request import RunRequest
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.store import RunStore
    from repro.system import checkpoint
    from repro.system.checkpoint import Checkpoint
    from repro.system.machine import Machine
    from repro.workloads.base import WorkloadProgram

    tracer.wrap_method(WorkloadProgram, "next_ops", "workloads.next_ops", aggregate=True)
    tracer.wrap_method(MemoryHierarchy, "access", "memory.access", aggregate=True)
    tracer.wrap_method(
        MemoryHierarchy, "access_functional", "memory.access_functional", aggregate=True
    )

    run_until = Machine.run_until_transactions

    def run_until_counted(machine, *args, **kwargs):
        before = machine.events_processed
        try:
            return run_until(machine, *args, **kwargs)
        finally:
            tracer.count("system.events", machine.events_processed - before)

    Machine.run_until_transactions = tracer.wrap(run_until_counted, "system.run_until")
    tracer.wrap_method(Machine, "fast_forward_transactions", "ffwd.fast_forward")

    tracer.wrap_function([checkpoint], "warm_checkpoint", "checkpoint.warm")
    tracer.wrap_method(Checkpoint, "digest", "checkpoint.digest")
    tracer.wrap_method(Checkpoint, "materialize", "checkpoint.materialize")

    get_many = RunStore.get_many

    def get_many_counted(store, keys):
        found = get_many(store, keys)
        tracer.count("store.keys", len(keys))
        tracer.count("store.found", len(found))
        return found

    RunStore.get_many = tracer.wrap(get_many_counted, "store.get_many")
    tracer.wrap_method(RunStore, "get_checkpoint", "store.get_checkpoint")
    tracer.wrap_method(RunStore, "put", "store.put")

    tracer.wrap_property(RunRequest, "run_key", "runner.run_key")
    tracer.wrap_function([fanout, executor, campaign_module], "execute_shared", "fanout.execute_shared")
    tracer.wrap_method(Campaign, "plan", "campaign.plan")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, results: list, memo: tuple[int, int], wall: float) -> dict:
    """Per-layer metrics of one traced repetition.

    Times cover the measured region, except ``checkpoint.warm_s``
    (set-up) and the functional-path metrics, which cover both phases
    because they should move ``setup_s`` and ``runs_per_s`` alike.
    """
    both = ("setup", "measure")
    sec, calls = tracer.seconds, tracer.calls
    stats = [r.stats for r in results]
    l1 = sum(s.get("l1_hits", 0) for s in stats)
    l2_hits = sum(s.get("l2_hits", 0) for s in stats)
    l2_misses = sum(s.get("l2_misses", 0) for s in stats)
    live = [s["livesample"] for s in stats if "livesample" in s]
    counts = tracer.counts["measure"]
    return {
        "workloads.next_ops_s": sec("workloads.next_ops"),
        "workloads.next_ops_calls": calls("workloads.next_ops"),
        "workloads.memo_hit_rate": _ratio(memo[0], memo[0] + memo[1]),
        "memory.access_s": sec("memory.access"),
        "memory.access_calls": calls("memory.access"),
        "memory.l1_hit_rate": _ratio(l1, l1 + l2_hits + l2_misses),
        "memory.l2_miss_rate": _ratio(l2_misses, l2_hits + l2_misses),
        "memory.access_functional_s": sec("memory.access_functional", both),
        "memory.access_functional_calls": calls("memory.access_functional", both),
        "system.run_until_s": sec("system.run_until"),
        "system.run_until_self_s": sec("system.run_until", self_time=True),
        "system.events": counts["system.events"],
        "ffwd.fast_forward_s": sec("ffwd.fast_forward", both),
        "checkpoint.warm_s": sec("checkpoint.warm", ("setup",)),
        "checkpoint.digest_s": sec("checkpoint.digest"),
        "checkpoint.digest_calls": calls("checkpoint.digest"),
        "checkpoint.digest_frac": _ratio(sec("checkpoint.digest"), wall),
        "checkpoint.materialize_s": sec("checkpoint.materialize"),
        "checkpoint.materialize_calls": calls("checkpoint.materialize"),
        "store.get_many_s": sec("store.get_many"),
        "store.get_checkpoint_s": sec("store.get_checkpoint"),
        "store.hit_ratio": _ratio(counts["store.found"], counts["store.keys"]),
        "store.put_s": sec("store.put"),
        "store.put_calls": calls("store.put"),
        "runner.run_key_s": sec("runner.run_key"),
        "fanout.execute_shared_s": sec("fanout.execute_shared"),
        "campaign.plan_s": sec("campaign.plan"),
        "livesample.timed_txn_frac": _ratio(
            sum(s["timed_transactions"] for s in live),
            sum(s["n_intervals"] * s["interval_transactions"] for s in live),
        ),
        "livesample.timed_windows": _ratio(sum(s["n_timed_windows"] for s in live), len(live)),
        "livesample.n_strata": _ratio(sum(s["n_strata"] for s in live), len(live)),
        "trace.residual_frac": 1.0 - _ratio(tracer.top_level["measure"], wall),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Repetition:
    """State of one repetition: store, seeds, phase clock, outputs."""

    def __init__(self, params: dict, tracer) -> None:
        from repro.store import RunStore

        # exp2_live's runs execute in EXP2_JOBS fan-out workers
        self.spread = params["workload"] == "exp2_live"
        before = time.monotonic()
        self.ref_start = reference_s(self.spread)
        self.ref_setup_spent = time.monotonic() - before
        self.size = params["size"]
        self.seeds = seed_window(params["seed"], self.size)
        self.pinned = load_pinned(self.size)
        self.tracer = tracer
        backend = "sqlite" if params["workload"] == "exp2_live" else "dir"
        if params.get("source_store"):
            shutil.copytree(params["source_store"], params["store"], dirs_exist_ok=True)
        self.store = RunStore(params["store"], backend=backend)
        self.results: list = []  # every SimulationResult returned
        self.samples: dict = {}  # config -> results
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.est_err = 0.0
        self.measure_start = 0.0
        self.units: list[tuple[int, float, float]] = []  # (runs, seconds, ref)

    def begin_measure(self) -> None:
        from repro.workloads.base import stream_memo_stats

        if self.tracer is not None:
            self.tracer.phase = "measure"
        memo = stream_memo_stats()
        self.memo_before = (memo.hits, memo.misses)
        before = time.monotonic()
        self.ref_prev = reference_s(self.spread)
        self.ref_setup = (self.ref_start + self.ref_prev) / 2
        self.measure_start = self.resumed = time.monotonic()
        self.ref_setup_spent += self.measure_start - before
        self.ref_measure_spent = 0.0

    def end_measure(self) -> float:
        from repro.workloads.base import stream_memo_stats

        wall = time.monotonic() - self.measure_start - self.ref_measure_spent
        memo = stream_memo_stats()
        self.memo_delta = (memo.hits - self.memo_before[0], memo.misses - self.memo_before[1])
        return wall

    # -- the three workloads --------------------------------------------
    def exp1_cold(self) -> None:
        checkpoint = exp1_checkpoint(self.size, self.store)
        self.begin_measure()
        samples, self.failures = exp1_grid(
            self.size, self.seeds, checkpoint, self.store, on_sample=self._end_unit
        )
        self._exp1_outputs(samples)

    def exp1_resume(self) -> None:
        self.begin_measure()
        passes = [
            exp1_grid(self.size, self.seeds, None, self.store, on_sample=self._end_unit)
            for _ in range(SIZES[self.size]["resume_passes"])
        ]
        for samples, failures in passes:
            self.failures += failures
            self._exp1_outputs(samples)

    def exp2_live(self) -> None:
        exp2_warm(self.size, self.store)
        self.begin_measure()
        campaign = exp2_campaign(self.size, self.seeds, self.store)
        plan = campaign.plan()
        # a fixed-N campaign reports one progress line as each cell ends
        marks: list[tuple[float, float]] = []
        report = campaign.run(progress=lambda _line: marks.append(self._mark()))
        if len(marks) != len(report.cells):
            self.problems.append(f"{len(marks)} progress lines for {len(report.cells)} cells")
        for cell, mark in zip(report.cells, marks):
            self._end_unit(cell.n_runs, mark)
        if plan.n_cached:
            self.problems.append(f"fresh store served {plan.n_cached} runs")
        for cell, rob in zip(report.cells, ROB_ENTRIES):
            self.failures += [str(f) for f in cell.failures]
            self.samples[rob] = cell.sample.results
            self.results += cell.sample.results
        if not self.failures:
            self.est_err = exp2_est_err(self.samples, self.pinned)
            if self.est_err > self.pinned["exp2_err_limit"]:
                self.problems.append(
                    f"est_err_rel {self.est_err:.4f} exceeds the pinned limit "
                    f"{self.pinned['exp2_err_limit']}"
                )

    def _mark(self) -> tuple[float, float]:
        """End a sample: (seconds since the previous sample ended or the
        measured region began, the mean host reading before and after it).

        The reading after it is taken here, outside every sample.
        """
        end = time.monotonic()
        ref = reference_s(self.spread)
        self.resumed, start = time.monotonic(), self.resumed
        self.ref_measure_spent += self.resumed - end
        around = (self.ref_prev + ref) / 2
        self.ref_prev = ref
        return end - start, around

    def _end_unit(self, n_runs: int, mark: tuple[float, float] | None = None) -> None:
        """Record one configuration's sample: (runs returned, seconds, host reading)."""
        seconds, ref = self._mark() if mark is None else mark
        self.units.append((n_runs, seconds, ref))

    def _exp1_outputs(self, samples: dict) -> None:
        self.samples = samples
        for runs in samples.values():
            self.results += runs
        self.problems += check_exp1(samples, self.pinned)
        if not self.failures:
            self.est_err = max(self.est_err, exp1_est_err(samples, self.pinned))


def fill(params: dict) -> None:
    """exp1_resume's set-up: warm and run the grid into a store."""
    from repro.store import RunStore

    size = params["size"]
    before = time.monotonic()
    ref_start = reference_s()
    spent = time.monotonic() - before
    store = RunStore(params["store"], backend="dir")
    checkpoint = exp1_checkpoint(size, store)
    _samples, failures = exp1_grid(size, seed_window(params["seed"], size), checkpoint, store)
    if failures:
        raise SystemExit(f"filling the store failed: {failures}")
    before = time.monotonic()
    ref = (ref_start + reference_s()) / 2
    spent += time.monotonic() - before
    print(json.dumps({"filled": params["store"], "ref": ref, "ref_spent": spent}))


def repetition(params: dict) -> dict:
    """Run one repetition and return its measurements."""
    tracer = None
    if params["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer)
    rep = Repetition(params, tracer)
    getattr(rep, params["workload"])()
    wall = rep.end_measure()
    timed_out = sum(1 for r in rep.results if r.timed_out)
    out = {
        "measure_start": rep.measure_start,
        "measure_s": wall,
        "units": rep.units,
        "ref_setup": rep.ref_setup,
        "ref_setup_spent": rep.ref_setup_spent,
        "attempted": len(rep.results) + len(rep.failures),
        "failed": len(rep.failures) + timed_out,
        "problems": rep.problems + rep.failures,
        "rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, rep.results, rep.memo_delta, wall)
        layers["est_err_rel"] = rep.est_err
        layers["ci_halfwidth_rel"] = ci_halfwidth_rel(rep.samples) if not rep.failures else 0.0
        out["layers"] = layers
        if params.get("trace_out"):
            tracer.dump(params["trace_out"])
    return out


def main(argv: list[str]) -> int:
    params = json.loads(argv[1])
    if params.get("mode") == "fill":
        fill(params)
    else:
        print(json.dumps(repetition(params)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
