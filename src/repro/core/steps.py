"""Algorithm-invocation steps: one seam under the frame, protocol and
transform loops.

The dynamic protocol, the Section-3 transformation and the frame
engine all bottom out in the same primitive — "run a static algorithm
on these requests with this budget, consuming this generator". Each
layer writes its loop once, as a *generator* (``run_steps`` /
``run_frame_steps``) that yields :class:`AlgorithmCall` descriptions
and receives the resulting
:class:`~repro.staticsched.base.RunResult` back via ``send``. The
synchronous entry points (``run`` / ``run_frame``) drive the same
generator through :func:`drive_steps`, executing every call in place,
so there is exactly one copy of the bookkeeping logic. Because every
static-algorithm call passes through :meth:`AlgorithmCall.execute`,
a profiler can time and count them (``perfbench/tracing.py`` does)
without touching the loops.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class AlgorithmCall(NamedTuple):
    """One pending ``algorithm.run(...)`` invocation, as plain data.

    ``requests`` keeps whatever container the caller built (list or
    int array) so driving the generator reproduces the historical call
    byte for byte. ``rng`` is the live generator the call must consume
    — sharing it between the yielding layer and the executor is the
    whole point (the RNG stream order is part of the physics). A run
    on a generator leaves it where per-slot draws would. The Section-3
    transform instead hands a fused base a
    :class:`~repro.staticsched.runloop.ChunkedUniforms` over its
    generator, one per sparsification round: the call reads coins from
    it and the transform, which created it, finalizes it once the
    round's calls are done.
    """

    algorithm: Any
    model: Any
    requests: Any
    budget: int
    rng: Any
    record_history: bool = False

    def execute(self):
        """Run the call exactly as the synchronous path would."""
        return self.algorithm.run(
            self.model,
            self.requests,
            self.budget,
            rng=self.rng,
            record_history=self.record_history,
        )


def drive_steps(steps):
    """Execute a step generator synchronously; return its result.

    ``steps`` yields :class:`AlgorithmCall` items and receives each
    call's ``RunResult`` back; its ``return`` value becomes ours. This
    is the serial executor for the generator seam — bit-identical to
    the historical inline calls because it *is* the same calls in the
    same order.
    """
    try:
        call = next(steps)
        while True:
            call = steps.send(call.execute())
    except StopIteration as stop:
        return stop.value


__all__ = ["AlgorithmCall", "drive_steps"]
