"""Per-layer spans and counters, installed around the program's public
entry points for the length of one traced pass.

Nothing in ``src/`` knows about this module: :func:`traced` patches the
layer entry points (class attributes and module globals) on entry and
restores the originals on exit, so untraced passes in the same process
run the unmodified code.

A span is one call into a layer (or one resume of a layer's step
generator). Spans nest by the runtime call stack; a layer's *self* time
is its spans' duration minus the part covered by directly nested spans,
so the self times of all layers add up to the time spent inside any
span. A call into the layer that is already on top of the stack (a
subclass method calling ``super()``, ``successes`` calling
``successes_mask``) stays inside the outer span.

The untraced passes use no spans, only the lighter :class:`Clock` that
:func:`frame_clock` calls at every recorded frame and base-scheduler
call.
"""

from __future__ import annotations

import os
from bisect import bisect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import repro.scenario.batched as batched
import repro.sim.checkpoint as checkpoint
from repro.core.protocol import DynamicProtocol
from repro.core.steps import AlgorithmCall
from repro.core.transform import TransformedAlgorithm
from repro.injection.base import InjectionProcess
from repro.interference.base import BatchSuccessEvaluator, InterferenceModel
from repro.scenario.batched import BatchedExecutor
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import FrameSimulation
from repro.sim.metrics import MetricsRecorder
from repro.sim.sharding import SerialExecutor

#: Layer names in report order; each is also a span name.
LAYERS = (
    "staticsched",
    "staticsched.batchloop",
    "core.transform",
    "interference",
    "injection",
    "core.protocol",
    "sim.engine",
    "sim.metrics",
    "sim.checkpoint",
    "scenario.build",
    "scenario.executor",
)


class Tracer:
    """Span stack plus integer counters, all kept in memory."""

    def __init__(self):
        self._stack = []
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)

    def enter(self, name: str) -> bool:
        if self._stack and self._stack[-1][0] == name:
            return False
        self._stack.append([name, perf_counter_ns(), 0])
        return True

    def exit(self) -> None:
        name, start, child_ns = self._stack.pop()
        duration = perf_counter_ns() - start
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration


class _Patcher:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def call(self, owner, attr, span, after=None, bypass=None):
        """Time every call of ``owner.attr`` as a ``span`` span.

        ``after(args, result)`` updates counters; ``bypass(args)`` true
        means the call is not this layer's and runs untraced.
        """
        original = owner.__dict__[attr]
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if bypass is not None and bypass(args):
                return original(*args, **kwargs)
            entered = tracer.enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                if entered:
                    tracer.exit()
            if entered and after is not None:
                after(args, result)
            return result

        self._set(owner, attr, wrapper)

    def steps(self, owner, attr, span, on_item=None, on_return=None):
        """Time every resume of the generator ``owner.attr`` returns."""
        original = owner.__dict__[attr]
        tracer = self.tracer

        def traced_steps(steps):
            value = None
            while True:
                entered = tracer.enter(span)
                try:
                    item = steps.send(value)
                except StopIteration as stop:
                    if on_return is not None:
                        on_return(stop.value)
                    return stop.value
                finally:
                    if entered:
                        tracer.exit()
                if on_item is not None:
                    on_item(item)
                value = yield item

        def wrapper(*args, **kwargs):
            return traced_steps(original(*args, **kwargs))

        self._set(owner, attr, wrapper)


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _install(patch: _Patcher) -> None:
    counts = patch.tracer.counts

    def counted(name):
        def after(args, result):
            counts[name] += 1
        return after

    # Static scheduler: base-scheduler run() behind every AlgorithmCall.
    # A transformed call is the transform layer's; its base sub-runs
    # come back through here one by one.
    def scheduler_after(args, result):
        call = args[0]
        counts["staticsched.calls"] += 1
        counts["staticsched.slots"] += int(result.slots_used)
        counts["staticsched.requests"] += len(call.requests)
        counts["staticsched.served"] += len(result.delivered)

    patch.call(
        AlgorithmCall, "execute", "staticsched", after=scheduler_after,
        bypass=lambda args: isinstance(args[0].algorithm, TransformedAlgorithm),
    )

    # The wave engine as the batched executor calls it.
    def batchloop_after(args, result):
        counts["staticsched.batchloop.groups"] += 1
        counts["staticsched.batchloop.streams"] += len(args[0])

    patch.call(
        batched, "run_batched_streams", "staticsched.batchloop",
        after=batchloop_after,
    )

    def subrun(item):
        counts["core.transform.subruns"] += 1

    patch.steps(
        TransformedAlgorithm, "run_steps", "core.transform", on_item=subrun
    )

    for cls in _subclasses(InterferenceModel):
        for attr in ("interference_measure", "successes", "successes_mask",
                     "successes_with_powers", "batch_evaluator"):
            if attr in cls.__dict__:
                patch.call(cls, attr, "interference",
                           after=counted("interference.calls"))
    for cls in _subclasses(BatchSuccessEvaluator):
        if "successes_local" in cls.__dict__:
            patch.call(cls, "successes_local", "interference",
                       after=counted("interference.calls"))

    def injection_after(args, result):
        counts["injection.calls"] += 1
        counts["injection.packets"] += int(result.size)

    for cls in _subclasses(InjectionProcess):
        if "indices_for_range" in cls.__dict__:
            patch.call(cls, "indices_for_range", "injection",
                       after=injection_after)

    def frame_report(report):
        counts["core.protocol.frames"] += 1
        counts["core.protocol.phase1_calls"] += int(report.phase1_requests > 0)
        counts["core.protocol.cleanup_calls"] += int(report.cleanup_offered > 0)
        counts["core.protocol.requests"] += (
            report.phase1_requests + report.cleanup_offered
        )
        counts["core.protocol.served"] += (
            report.phase1_hops + report.cleanup_hops
        )

    patch.steps(
        DynamicProtocol, "run_frame_steps", "core.protocol",
        on_return=frame_report,
    )
    patch.steps(FrameSimulation, "run_steps", "sim.engine")

    for attr in ("record_frame", "absorb_latencies", "stability_verdict",
                 "latency_summary"):
        patch.call(MetricsRecorder, attr, "sim.metrics")
    patch.call(DynamicProtocol, "compact_store", "sim.metrics",
               after=counted("sim.metrics.compactions"))

    def saved(args, result):
        counts["sim.checkpoint.saves"] += 1
        counts["sim.checkpoint.bytes"] += os.path.getsize(args[0])

    patch.call(checkpoint, "save_checkpoint", "sim.checkpoint.save",
               after=saved)
    patch.call(checkpoint, "load_checkpoint_into", "sim.checkpoint.load",
               after=counted("sim.checkpoint.loads"))

    patch.call(ScenarioSpec, "build", "scenario.build",
               after=counted("scenario.builds"))
    patch.call(SerialExecutor, "map", "scenario.executor")
    patch.call(BatchedExecutor, "map", "scenario.executor")


class Clock:
    """Marks of program time: ``perf_counter()`` less the time spent in
    host probes.

    With ``probe`` (fixed work; returns its seconds), a call at least
    ``every`` seconds after the last probe (and the first call) runs the
    probe before marking and records ``(program time, probe seconds)``.
    :meth:`segments` then divides every segment by the host's slowdown
    around it: the fastest of the ``2 * NEAR`` nearest probes over
    ``reference_s``.
    """

    NEAR = 3

    def __init__(self, probe=None, reference_s=1.0, every=0.1):
        self.marks = []
        self.probe_at = []
        self.probe_s = []
        self._probe = probe
        self._reference_s = reference_s
        self._every = every
        self._offset = 0.0
        self._due = 0.0

    def __call__(self):
        now = perf_counter()
        if self._probe is not None and now >= self._due:
            self.probe_at.append(now - self._offset)
            self.probe_s.append(self._probe())
            after = perf_counter()
            self._offset += after - now
            self._due = after + self._every
            now = after
        self.marks.append(now - self._offset)

    def slowdown(self, at: float) -> float:
        if not self.probe_s:
            return 1.0
        index = bisect(self.probe_at, at)
        near = self.probe_s[max(0, index - self.NEAR):index + self.NEAR]
        return min(near) / self._reference_s

    def segments(self, start: int = 0, stop=None) -> list:
        """Seconds between consecutive marks ``start`` to ``stop``, each
        divided by the slowdown around it."""
        marks = self.marks[start:stop]
        return [(b - a) / self.slowdown(a) for a, b in zip(marks, marks[1:])]


@contextmanager
def frame_clock(clock):
    """Call ``clock`` on entry, after every frame a ``MetricsRecorder``
    records, after every ``AlgorithmCall`` the serial step driver
    executes, and on exit.

    One clock read per mark and no spans: the untraced passes use it to
    cut their time into short segments of the same work every pass.
    """
    undo = []
    for owner, attr in ((MetricsRecorder, "record_frame"),
                        (AlgorithmCall, "execute")):
        original = owner.__dict__[attr]

        def marked(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            clock()
            return result

        undo.append((owner, attr, original))
        setattr(owner, attr, marked)
    clock()
    try:
        yield clock
    finally:
        for owner, attr, original in undo:
            setattr(owner, attr, original)
        clock()


@contextmanager
def traced():
    """Install the layer spans; yields the :class:`Tracer` collecting them."""
    tracer = Tracer()
    patch = _Patcher(tracer)
    try:
        _install(patch)
        yield tracer
    finally:
        patch.restore()


def layer_self_ns(tracer: Tracer) -> dict:
    """Self time per layer; the checkpoint layer sums its save and load."""
    self_ns = dict(tracer.self_ns)
    self_ns["sim.checkpoint"] = self_ns.pop(
        "sim.checkpoint.save", 0
    ) + self_ns.pop("sim.checkpoint.load", 0)
    return {layer: self_ns.get(layer, 0) for layer in LAYERS}
