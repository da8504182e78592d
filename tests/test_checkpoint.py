"""Tests for checkpoint capture/restore."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import RunConfig, SystemConfig
from repro.core.runner import run_space
from repro.store import RunStore
from repro.system.checkpoint import Checkpoint, make_checkpoints
from repro.system.machine import Machine
from repro.workloads.registry import available_workloads, make_workload

REPO = Path(__file__).resolve().parent.parent
BACKENDS = ("dir", "sqlite")


def small_workload():
    return make_workload("oltp", threads_per_cpu=2)


def warmed_machine(n_cpus=4, txns=40) -> Machine:
    config = SystemConfig(n_cpus=n_cpus)
    machine = Machine(config, small_workload())
    machine.hierarchy.seed_perturbation(21)
    machine.run_until_transactions(txns, max_time_ns=10**12)
    return machine


class TestExactness:
    def test_restored_machine_continues_identically(self):
        """The critical property: capture + restore + continue must equal
        continue-without-checkpoint, event for event."""
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        expected_end = machine.run_until_transactions(80, max_time_ns=10**12)
        expected_txns = machine.completed_transactions

        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        actual_end = restored.run_until_transactions(80, max_time_ns=10**12)
        assert actual_end == expected_end
        assert restored.completed_transactions == expected_txns

    def test_restore_preserves_clock_and_counts(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        assert restored.clock.now == machine.clock.now
        assert restored.completed_transactions == machine.completed_transactions
        assert restored.workload_clock.total_started == machine.workload_clock.total_started

    def test_restore_preserves_cache_contents(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        for node in range(4):
            assert sorted(restored.hierarchy.l2[node].resident_blocks()) == sorted(
                machine.hierarchy.l2[node].resident_blocks()
            )

    def test_coherence_invariants_after_restore(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        assert restored.hierarchy.check_coherence_invariants() == []


class TestCrossConfigRestore:
    def test_restore_into_different_associativity(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        config = SystemConfig(n_cpus=4).with_l2_associativity(1)
        restored = checkpoint.materialize(config, small_workload())
        assert restored.hierarchy.check_coherence_invariants() == []
        restored.run_until_transactions(60, max_time_ns=10**12)
        assert restored.completed_transactions >= 60

    def test_restore_into_different_dram_latency(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        config = SystemConfig(n_cpus=4).with_dram_latency(90)
        restored = checkpoint.materialize(config, small_workload())
        restored.run_until_transactions(60, max_time_ns=10**12)
        assert restored.completed_transactions >= 60

    def test_restore_into_ooo_model(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        config = SystemConfig(n_cpus=4).with_rob_entries(32)
        restored = checkpoint.materialize(config, small_workload())
        restored.run_until_transactions(60, max_time_ns=10**12)
        assert restored.completed_transactions >= 60

    def test_same_checkpoint_different_configs_same_start(self):
        """Both configurations start from identical workload state --
        the paper's same-initial-conditions requirement."""
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        a = checkpoint.materialize(SystemConfig(n_cpus=4).with_l2_associativity(2))
        b = checkpoint.materialize(SystemConfig(n_cpus=4).with_l2_associativity(4))
        assert a.workload_clock.snapshot() == b.workload_clock.snapshot()
        assert a.clock.now == b.clock.now


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        path = tmp_path / "ckpt.pkl"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        restored = loaded.materialize(SystemConfig(n_cpus=4))
        assert restored.clock.now == machine.clock.now

    def test_load_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.pkl"
        import pickle

        with open(path, "wb") as f:
            pickle.dump({"not": "a checkpoint"}, f)
        with pytest.raises(TypeError):
            Checkpoint.load(path)


class TestValidation:
    def test_workload_mismatch_rejected(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        with pytest.raises(ValueError):
            checkpoint.materialize(SystemConfig(n_cpus=4), make_workload("apache"))

    def test_thread_count_mismatch_rejected(self):
        machine = warmed_machine(n_cpus=4)
        checkpoint = Checkpoint.capture(machine)
        with pytest.raises(ValueError):
            checkpoint.materialize(SystemConfig(n_cpus=8), small_workload())


class TestMakeCheckpoints:
    def test_multiple_points_from_one_run(self):
        config = SystemConfig(n_cpus=4)
        checkpoints = make_checkpoints(config, small_workload(), [20, 40, 60])
        assert [c.taken_at_transactions for c in checkpoints] == [20, 40, 60]
        clocks = [c.state["clock"] for c in checkpoints]
        assert clocks == sorted(clocks)

    def test_decreasing_counts_rejected(self):
        config = SystemConfig(n_cpus=4)
        with pytest.raises(ValueError):
            make_checkpoints(config, small_workload(), [40, 20])


#: the warm-up of :func:`warmed_machine`, as a script for a fresh interpreter
CAPTURE_SCRIPT = """
from repro.config import SystemConfig
from repro.system.checkpoint import Checkpoint
from repro.system.machine import Machine
from repro.workloads.registry import make_workload

machine = Machine(SystemConfig(n_cpus=4), make_workload("oltp", threads_per_cpu=2))
machine.hierarchy.seed_perturbation(21)
machine.run_until_transactions(40, max_time_ns=10**12)
print(Checkpoint.capture(machine).digest())
"""


def _rebuild(obj, pool=None):
    """A copy of snapshot state with every container a new object; with
    ``pool``, equal tuples become one shared object instead."""
    if isinstance(obj, dict):
        return {_rebuild(k, pool): _rebuild(v, pool) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rebuild(x, pool) for x in obj]
    if isinstance(obj, tuple):
        rebuilt = tuple(_rebuild(x, pool) for x in obj)
        # repr, not the tuple, keys the pool: (1, True) == (1, 1)
        return rebuilt if pool is None else pool.setdefault(repr(rebuilt), rebuilt)
    return obj


def _variant(checkpoint: Checkpoint, **changes) -> Checkpoint:
    variant = copy.deepcopy(checkpoint)
    for name, value in changes.items():
        setattr(variant, name, value)
    return variant


def _payload(checkpoint: Checkpoint) -> str:
    """Canonical JSON of one measured run started from ``checkpoint``."""
    run = RunConfig(measured_transactions=30, seed=5)
    (result,) = run_space(
        SystemConfig(n_cpus=4), "oltp", run, 1,
        workload_params={"threads_per_cpu": 2}, checkpoint=checkpoint,
    ).results
    return json.dumps(result.to_dict(), sort_keys=True)


class TestDigest:
    def test_deepcopy_keeps_digest(self):
        checkpoint = Checkpoint.capture(warmed_machine())
        assert copy.deepcopy(checkpoint).digest() == checkpoint.digest()

    def test_both_store_backends_keep_digest(self, tmp_path):
        checkpoint = Checkpoint.capture(warmed_machine())
        digests = set()
        for kind in BACKENDS:
            RunStore(tmp_path / kind, backend=kind).put_checkpoint("w", checkpoint)
            loaded = RunStore(tmp_path / kind, backend=kind).get_checkpoint("w")
            assert loaded is not checkpoint
            digests.add(loaded.digest())
        assert digests == {checkpoint.digest()}

    def test_fresh_process_capture_has_same_digest(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED="4321")
        proc = subprocess.run(
            [sys.executable, "-c", CAPTURE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == Checkpoint.capture(warmed_machine()).digest()

    def test_digest_ignores_object_identity(self):
        """Equal tuples shared as one object or held as distinct objects
        must hash alike (a memoizing pickler would tell them apart)."""
        checkpoint = Checkpoint.capture(warmed_machine())
        distinct = _variant(checkpoint, state=_rebuild(checkpoint.state))
        shared = _variant(checkpoint, state=_rebuild(checkpoint.state, pool={}))
        assert distinct.digest() == checkpoint.digest()
        assert shared.digest() == checkpoint.digest()

    def test_every_content_change_changes_digest(self):
        checkpoint = Checkpoint.capture(warmed_machine())
        base = checkpoint.digest()

        flipped_sharer = copy.deepcopy(checkpoint)
        sharers = flipped_sharer.state["hierarchy"]["sharers"]
        block, nodes = next(iter(sharers.items()))
        other = next(n for n in range(4) if n not in nodes)
        sharers[block] = tuple(sorted(nodes + (other,)))

        flipped_dirty = copy.deepcopy(checkpoint)
        lines = next(iter(flipped_dirty.state["hierarchy"]["l2"][0]["sets"].values()))
        line_block, line_state, dirty = lines[0]
        lines[0] = (line_block, line_state, not dirty)

        variants = [
            flipped_sharer,
            flipped_dirty,
            _variant(checkpoint, workload_params={"threads_per_cpu": 3}),
            _variant(checkpoint, taken_at_transactions=checkpoint.taken_at_transactions + 1),
        ]
        digests = [variant.digest() for variant in variants]
        assert base not in digests
        assert len(set(digests)) == len(digests)


def _assert_set_free_and_acyclic(obj, path="state", ancestors=()):
    """Fast-mode pickling (no memo) needs acyclic state, and content-stable
    bytes need no ``set``/``frozenset`` (pickled in insertion order)."""
    assert not isinstance(obj, (set, frozenset)), f"{path} is a {type(obj).__name__}"
    if isinstance(obj, (str, bytes, int, float, type(None))):
        return
    assert id(obj) not in ancestors, f"{path} refers back to an enclosing object"
    ancestors = ancestors + (id(obj),)
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        items = vars(obj).items()
    for key, value in items:
        _assert_set_free_and_acyclic(key, f"{path}[{key!r}]/key", ancestors)
        _assert_set_free_and_acyclic(value, f"{path}[{key!r}]", ancestors)


@pytest.mark.parametrize("core", ["simple", "ooo"])
@pytest.mark.parametrize("mode", ["timed", "functional"])
@pytest.mark.parametrize("name", available_workloads())
def test_captured_state_is_set_free_and_acyclic(name, mode, core):
    config = SystemConfig(n_cpus=2)
    if core == "ooo":
        config = config.with_rob_entries(32)
    machine = Machine(config, make_workload(name))
    machine.hierarchy.seed_perturbation(3)
    if mode == "functional":
        machine.fast_forward_transactions(10, max_time_ns=10**13)
    else:
        machine.run_until_transactions(10, max_time_ns=10**13)
    state = Checkpoint.capture(machine).state
    assert state["processor_model"] == core
    _assert_set_free_and_acyclic(state)


@pytest.mark.parametrize("kind", BACKENDS)
def test_set_valued_sharers_checkpoint_still_loads(tmp_path, kind):
    """Checkpoints saved before sharers became sorted tuples hold sets:
    they must load, run byte-identically, and digest stably."""
    checkpoint = Checkpoint.capture(warmed_machine())
    legacy = copy.deepcopy(checkpoint)
    sharers = legacy.state["hierarchy"]["sharers"]
    assert sharers and all(isinstance(nodes, tuple) for nodes in sharers.values())
    for block, nodes in sharers.items():
        sharers[block] = set(reversed(nodes))
    RunStore(tmp_path, backend=kind).put_checkpoint("legacy", legacy)

    first = RunStore(tmp_path, backend=kind).get_checkpoint("legacy")
    second = RunStore(tmp_path, backend=kind).get_checkpoint("legacy")
    assert first is not None and second is not None
    assert isinstance(next(iter(first.state["hierarchy"]["sharers"].values())), set)
    assert first.digest() == second.digest()
    assert _payload(first) == _payload(checkpoint)


def machine_l2_blocks(machine: Machine, node: int):
    return machine.hierarchy.l2[node].resident_blocks()
