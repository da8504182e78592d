"""In-memory span recorder, installed from outside the simulator.

The tracer wraps public functions of the simulator's modules (class
methods, properties and module-level functions) so that every call
opens a span and closes it on return.  Nothing under ``src/`` is
touched: the wrappers replace attributes on the classes and modules.

Two kinds of span:

- **recorded** spans keep ``(id, name, phase, start, end, parent)`` in memory
  and are written out by :meth:`Tracer.dump`; they are used for coarse
  calls (a checkpoint digest, a store read, one ``run_until``);
- **aggregated** spans are for the hot leaves called hundreds of
  thousands of times per run (``MemoryHierarchy.access``,
  ``WorkloadProgram.next_ops``).  They add their count and duration to
  per-name totals and to their parent's child time, but keep no record,
  so the trace stays small.

Self time of a span is its duration minus the time its child spans
cover.  Totals are kept per *phase* (``setup`` or ``measure``) so that
each layer metric can be taken over the phase of the end-to-end metric
it is meant to explain.

Forked children (fan-out workers) inherit the wrappers but not the
recorder: :func:`os.register_at_fork` switches recording off in the
child, whose spans could never reach the parent anyway.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

#: phase names; totals are kept per phase
PHASES = ("setup", "measure")


class Tracer:
    """Span stack, per-phase totals and the list of recorded spans."""

    def __init__(self) -> None:
        self.enabled = True
        self.phase = "setup"
        self.spans: list[tuple] = []  # (id, name, phase, start, end, parent_id)
        # name -> [calls, total seconds, self seconds], per phase
        self.totals = {phase: defaultdict(lambda: [0, 0.0, 0.0]) for phase in PHASES}
        # counters recorded at span boundaries (e.g. events processed)
        self.counts = {phase: defaultdict(int) for phase in PHASES}
        # open spans: [id, name, start, child seconds]
        self._stack: list[list] = []
        self._next_id = 0
        # summed duration of spans opened with an empty stack, per phase
        self.top_level = dict.fromkeys(PHASES, 0.0)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, record: bool) -> None:
        end = perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        duration = end - start
        entry = self.totals[self.phase][name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.top_level[self.phase] += duration
            parent_id = None
        if record:
            self.spans.append((span_id, name, self.phase, start, end, parent_id))

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to a boundary counter of the current phase."""
        if self.enabled:
            self.counts[self.phase][name] += amount

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, *, aggregate: bool = False):
        """A wrapper of ``fn`` that records one span per call."""
        tracer = self
        record = not aggregate

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, record)

        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, cls, attr: str, name: str, **kwargs) -> None:
        """Replace ``cls.attr`` (a plain method) by a traced wrapper."""
        setattr(cls, attr, self.wrap(getattr(cls, attr), name, **kwargs))

    def wrap_property(self, cls, attr: str, name: str) -> None:
        """Replace the getter of property ``cls.attr`` by a traced one."""
        prop = vars(cls)[attr]
        setattr(cls, attr, property(self.wrap(prop.fget, name), doc=prop.__doc__))

    def wrap_function(self, modules, attr: str, name: str) -> None:
        """Replace module-level function ``attr`` in every module that
        binds it (the defining module and each ``from ... import``)."""
        traced = self.wrap(getattr(modules[0], attr), name)
        for module in modules:
            setattr(module, attr, traced)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def seconds(self, name: str, phases=("measure",), *, self_time: bool = False) -> float:
        """Summed duration (or self time) of span ``name`` over ``phases``."""
        column = 2 if self_time else 1
        return sum(self.totals[p][name][column] for p in phases if name in self.totals[p])

    def calls(self, name: str, phases=("measure",)) -> int:
        """Number of ``name`` spans closed during ``phases``."""
        return sum(self.totals[p][name][0] for p in phases if name in self.totals[p])

    def self_times(self, phase: str = "measure") -> dict[str, float]:
        """Self time of every span name during ``phase``."""
        return {name: entry[2] for name, entry in self.totals[phase].items()}

    def dump(self, path) -> None:
        """Write the recorded spans (one JSON object per line)."""
        with open(path, "w") as out:
            for span_id, name, phase, start, end, parent in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "phase": phase,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                out.write(json.dumps(record) + "\n")
