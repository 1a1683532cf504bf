"""Algorithm 1: scaling repair for dense instances (paper Section 3).

The problem: a static algorithm with schedule length ``f(n) * I`` (e.g.
``O(I log n)``) *degrades* as instances get denser — doubling every
request doubles both ``I`` and ``n``, so the length more than doubles
and throughput falls. The repair exploits that there are only ``m``
distinct links:

1. **Sparsification rounds** (``i = 1 .. xi``). Every remaining packet
   draws a uniform delay below ``psi_i = ceil(2^{1-i} I / chi)``. Each
   delay class has expected measure ``<= chi/2`` where
   ``chi = 6 (ln m + 9)``, so the base algorithm — run per class with
   parameters ``(chi, m*chi)`` and budget ``f(m*chi) * chi`` — serves
   almost everything; Claim 2 of the paper shows the *leftover* measure
   halves per round whp (Chernoff + FKG for the class sizes, plus the
   algorithm's own failure probability).
2. **Mop-up**. After ``xi = ceil(log2(I / (2 phi chi log n)))`` rounds
   the leftover measure is ``O(log n log m)``; ``ceil(phi) + 1`` direct
   executions of the base algorithm finish it whp.

Total (Theorem 1): ``2 f(m chi) I + O(f(m chi) log n + f(n) log n log m)``
with probability ``>= 1 - 1/n^phi`` — linear in ``I`` for dense
instances, which is exactly what the Section-4 protocol needs.

``chi_scale`` scales ``chi`` below the paper's proof constant for
experiments (smaller classes, more rounds); the default is faithful.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.steps import AlgorithmCall, drive_steps
from repro.errors import ConfigurationError, SchedulingError
from repro.interference.base import InterferenceModel
from repro.staticsched.base import (
    LengthBound,
    RunResult,
    SlotRecord,
    StaticAlgorithm,
)
from repro.staticsched.runloop import ChunkedUniforms, FusedScheduler
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


def paper_chi(m: int, chi_scale: float = 1.0) -> float:
    """The class-measure parameter ``chi = 6 (ln m + 9)`` (scaled)."""
    return chi_scale * 6.0 * (math.log(max(m, 2)) + 9.0)


class TransformedAlgorithm(StaticAlgorithm):
    """Algorithm 1 wrapped around a base static algorithm.

    Parameters
    ----------
    base:
        The algorithm ``A(I, n)`` with length ``f(n) * I`` whp.
    m:
        The network size the transformation is tuned for (``max(|E|, D)``).
    phi:
        Failure exponent: overall success probability ``1 - 1/n^phi``.
    chi_scale:
        Scale on the paper's ``chi``; 1.0 is proof-faithful.
    charge_reserved:
        When True, ``slots_used`` charges every sub-execution its full
        reserved window (the distributed schedule's wall-clock, as in
        the paper's accounting). When False (default), only slots
        actually consumed are counted — the right measure for scaling
        experiments, since early-exiting classes leave idle air.
    """

    name = "transformed"

    def __init__(
        self,
        base: StaticAlgorithm,
        m: int,
        phi: float = 1.0,
        chi_scale: float = 1.0,
        charge_reserved: bool = False,
    ):
        if m < 1:
            raise ConfigurationError(f"m must be >= 1, got {m}")
        self._base = base
        self._m = int(m)
        self._phi = check_positive("phi", phi)
        self._chi_scale = check_positive("chi_scale", chi_scale)
        self._charge_reserved = bool(charge_reserved)
        self.name = f"transformed({base.name})"

    @property
    def base(self) -> StaticAlgorithm:
        return self._base

    def state_dict(self):
        return {
            "name": self.name,
            "m": self._m,
            "phi": self._phi,
            "chi_scale": self._chi_scale,
            "charge_reserved": self._charge_reserved,
            "base": self._base.state_dict(),
        }

    @property
    def chi(self) -> float:
        """The class-measure target ``chi``."""
        return paper_chi(self._m, self._chi_scale)

    # ------------------------------------------------------------------
    # Schedule-length accounting (Theorem 1)
    # ------------------------------------------------------------------

    def _class_budget(self) -> int:
        """Budget per delay-class execution: ``f(m chi) * chi`` slots."""
        chi = self.chi
        return self._base.budget_for(chi, max(1, math.ceil(self._m * chi)))

    def _mopup_measure(self, n: int) -> float:
        """Measure bound for the mop-up runs: ``2 phi chi log n``."""
        return 2.0 * self._phi * self.chi * math.log(n + 2)

    def _rounds(self, measure: float, n: int) -> int:
        """``xi``: sparsification rounds until mop-up takes over."""
        target = self._mopup_measure(n)
        if measure <= target:
            return 0
        return max(0, math.ceil(math.log2(measure / target)))

    def budget_for(self, measure: float, n: int) -> int:
        """The Theorem-1 total, computed exactly round by round."""
        measure = max(measure, 1.0)
        n = max(int(n), 1)
        chi = self.chi
        class_budget = self._class_budget()
        total = 0
        for i in range(1, self._rounds(measure, n) + 1):
            psi = max(1, math.ceil(2.0 ** (1 - i) * measure / chi))
            total += psi * class_budget
        mopup_runs = math.ceil(self._phi) + 1
        total += mopup_runs * self._base.budget_for(self._mopup_measure(n), n)
        return max(1, total)

    def network_bound(self, m: int) -> LengthBound:
        """``f(m) I + g(m, n)`` per Theorem 1.

        ``f(m) = 2 f_base(m chi)`` (the geometric series over rounds);
        ``g`` covers the per-round ceilings (at most ``log2`` of the
        worst measure, itself at most ``n * m``) plus the mop-up.
        """
        chi = paper_chi(m, self._chi_scale)
        class_budget = self._base.budget_for(chi, max(1, math.ceil(m * chi)))
        phi = self._phi
        base = self._base
        mopup_runs = math.ceil(phi) + 1

        def multiplicative(m_: int) -> float:
            return 2.0 * class_budget / chi

        def additive(m_: int, n: int) -> float:
            max_rounds = math.log2(n + 2) + math.log2(m_ + 2)
            mopup_measure = 2.0 * phi * chi * math.log(n + 2)
            return (
                max_rounds * class_budget
                + mopup_runs * base.budget_for(mopup_measure, max(n, 1))
            )

        return LengthBound(
            multiplicative=multiplicative,
            additive=additive,
            description=f"2 f(m chi) I + O~(f(m chi) + f(n) log n) [{self.name}]",
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        model: InterferenceModel,
        requests: Sequence[int],
        budget: int,
        rng: RngLike = None,
        record_history: bool = False,
    ) -> RunResult:
        return drive_steps(
            self.run_steps(
                model, requests, budget, ensure_rng(rng), record_history
            )
        )

    def run_steps(
        self,
        model: InterferenceModel,
        requests: Sequence[int],
        budget: int,
        gen,
        record_history: bool = False,
    ):
        """Generator form of :meth:`run` (see :mod:`repro.core.steps`).

        Yields one :class:`~repro.core.steps.AlgorithmCall` per base
        sub-execution and receives its ``RunResult`` back; all
        transformation randomness (the per-round delay draws) stays in
        here, interleaved with the sub-runs exactly as the synchronous
        path draws it. The batched fleet kernel drives this to advance
        many networks' sub-runs inside one fused call.

        A :class:`~repro.staticsched.runloop.FusedScheduler` base gets
        its coins from one
        :class:`~repro.staticsched.runloop.ChunkedUniforms` per
        sparsification round, plus one for the mop-up runs, in place
        of ``gen``: each class's run reads on from where the previous
        one stopped, and the buffer is finalized here, once, before the
        next draw on ``gen`` and before returning — so ``gen`` ends
        where per-slot draws would leave it, as when every sub-run
        owned its coins. Any other base receives ``gen`` itself.
        """
        if budget < 0:
            raise SchedulingError(f"budget must be >= 0, got {budget}")
        requests = [int(e) for e in requests]
        n = len(requests)
        if n == 0:
            return RunResult(history=[] if record_history else None)

        chi = self.chi
        measure = max(model.interference_measure(requests), 1.0)
        class_budget = self._class_budget()

        delivered: List[int] = []
        history: Optional[List[SlotRecord]] = [] if record_history else None
        remaining = list(range(n))
        slots_used = 0
        fused = isinstance(self._base, FusedScheduler)
        coins = gen

        def sub_run(indices: List[int], sub_budget: int):
            """Run the base algorithm on a subset; return surviving indices."""
            nonlocal slots_used
            if not indices:
                return []
            # Never hand a sub-run more than what is left of `budget`.
            sub_budget = min(sub_budget, budget - slots_used)
            sub_requests = [requests[k] for k in indices]
            result = yield AlgorithmCall(
                self._base,
                model,
                sub_requests,
                sub_budget,
                coins,
                record_history,
            )
            slots_used += result.slots_used
            if self._charge_reserved:
                # The distributed schedule reserves the full window.
                slots_used += max(0, sub_budget - result.slots_used)
            for local in result.delivered:
                delivered.append(indices[local])
            if history is not None and result.history is not None:
                history.extend(result.history)
            return [indices[local] for local in result.remaining]

        # Stage 1: sparsification rounds.
        for i in range(1, self._rounds(measure, n) + 1):
            if slots_used >= budget or not remaining:
                break
            psi = max(1, math.ceil(2.0 ** (1 - i) * measure / chi))
            delays = gen.integers(psi, size=len(remaining))
            # One stable sort partitions the classes: each class keeps
            # `remaining` order. Empty classes run nothing, so visiting
            # only the non-empty ones sees the same budget checks.
            if fused:
                coins = ChunkedUniforms(gen)
            by_delay = np.argsort(delays, kind="stable")
            sorted_delays = delays[by_delay]
            classes = np.unique(sorted_delays)
            bounds = np.searchsorted(sorted_delays, classes)
            ends = np.append(bounds[1:], len(remaining))
            indices = np.asarray(remaining)
            members = indices[by_delay].tolist()
            survivors: List[int] = []
            for j, start, end in zip(classes, bounds, ends):
                if slots_used >= budget:
                    # Out of budget: the unprocessed classes survive as-is.
                    survivors.extend(indices[delays >= j].tolist())
                    break
                survivors.extend((yield from sub_run(
                    members[start:end], class_budget
                )))
            if fused:
                coins.finalize()
            remaining = survivors

        # Stage 2: mop-up executions of the base algorithm.
        mopup_budget = self._base.budget_for(self._mopup_measure(n), n)
        if fused:
            coins = ChunkedUniforms(gen)
        for _ in range(math.ceil(self._phi) + 1):
            if slots_used >= budget or not remaining:
                break
            remaining = yield from sub_run(remaining, mopup_budget)
        if fused:
            coins.finalize()

        return RunResult(
            delivered=delivered,
            remaining=remaining,
            slots_used=slots_used,
            history=history,
        )


__all__ = ["TransformedAlgorithm", "paper_chi"]
