"""Batched fused runs: many networks' step generators in one wave loop.

Each network is a *step generator* (see :mod:`repro.core.steps`)
yielding :class:`~repro.core.steps.AlgorithmCall` items, so one driver
advances whole dynamic-protocol simulations frame by frame. Every
fused call becomes a :class:`~repro.staticsched.runloop.FusedTask` —
the same engine :func:`~repro.staticsched.runloop.run_fused` runs
serially — and the driver only interleaves the parked tasks: each wave
runs every parked task (:meth:`~repro.staticsched.runloop.FusedTask.run`)
and sends its result back into its stream, which parks the stream's
next task.

Bit-exactness contract: every network's :class:`RunResult` —
delivered order, remaining order, slots used, history — *and* its
generator's final state are identical to an unbatched serial run.
Tasks of different networks share no state (each scans its own coin
buffer against its own tiled thresholds; a transform's sub-runs share
their round's buffer, but a stream parks one task at a time), so the
interleaving cannot perturb any of them, and each task is the serial
engine itself.
"""

from __future__ import annotations

from typing import Dict, List

from repro.staticsched.runloop import FusedTask, resolve_backend


class _StreamDriver:
    """Advance N step generators, interleaving their fused tasks."""

    def __init__(self, streams):
        self.streams = list(streams)
        self.results: List = [None] * len(self.streams)
        self.tasks: Dict[int, FusedTask] = {}
        self.scalar = resolve_backend() == "scalar"

    def _drive(self, i: int, value, start: bool = False) -> None:
        """Push a result into stream ``i``; park its next fused task.

        Calls without a fused policy are executed synchronously in
        place.
        """
        stream = self.streams[i]
        try:
            call = next(stream) if start else stream.send(value)
            while getattr(call.algorithm, "fused_policy", None) is None:
                call = stream.send(call.execute())
            self.tasks[i] = FusedTask(
                call.algorithm.fused_policy(), call.model, call.requests,
                call.budget, call.rng, call.record_history, self.scalar,
            )
        except StopIteration as stop:
            self.results[i] = stop.value

    def run(self) -> List:
        for i in range(len(self.streams)):
            self._drive(i, None, start=True)
        while self.tasks:
            # One wave; a stream parks its next task under the same
            # key, which joins the next wave.
            for i, task in list(self.tasks.items()):
                del self.tasks[i]
                self._drive(i, task.run())
        return self.results


def run_batched_streams(streams) -> List:
    """Drive step generators to completion through the wave loop.

    Each stream yields :class:`~repro.core.steps.AlgorithmCall` items
    and receives each call's :class:`RunResult` back; its return value
    becomes the corresponding entry of the returned list. Every
    result — and every stream's RNG end state — is bit-identical to
    driving that stream alone with
    :func:`~repro.core.steps.drive_steps`.
    """
    return _StreamDriver(streams).run()


__all__ = ["run_batched_streams"]
