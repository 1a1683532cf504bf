"""Algorithm 2: the symmetric multiple-access-channel scheduler.

Paper Section 7.1, Lemma 15: a *symmetric* (anonymous, id-free),
acknowledgement-based algorithm transmitting ``n`` packets over a
multiple-access channel in ``(1 + delta) e n + O(phi^2 log^2 n)`` slots
with probability at least ``1 - 1/n^phi``. Feeding it to the dynamic
transformation yields a stable symmetric protocol for every injection
rate ``lambda < 1/e`` (Corollary 16) — matching the classic bound of
Goldberg et al., and extending it to adversarial injection.

Structure (verbatim from the paper's pseudocode, with the loop count
``xi`` solved from the recurrence the proof uses — the printed closed
form in the arXiv version garbles the fraction):

* **Stage 1** (sifting): for ``i = 1 .. xi``, every surviving packet
  picks a uniform delay below ``(1 - 1/(e(1+delta)))^i * n`` and
  transmits in that slot of the round. Each round shrinks the surviving
  population by the factor ``(1 - 1/(e(1+delta)))`` whp (Lemma 2 of
  Goldberg et al.), so round lengths shrink geometrically and sum to
  ``(1 + delta) e n``. Stage 1 ends when the population is down to
  ``s = O(phi log n)``.
* **Stage 2** (polling): for ``s e (phi+1) ln n`` slots every packet
  transmits independently with probability ``1/s`` — each survivor
  succeeds per slot with probability at least ``1/(e s)``, so all
  finish whp.

The channel here is *packet-granular*: each packet is its own
contender, and a slot succeeds iff exactly one packet in the whole
system transmits. (Two packets queued at the same station still
collide — the anonymous model gives stations no way to merge them.)
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.interference.base import InterferenceModel
from repro.interference.mac import MultipleAccessChannel
from repro.staticsched.base import (
    LengthBound,
    RunResult,
    SlotRecord,
    StaticAlgorithm,
)
from repro.utils.rng import RngLike, ensure_rng


class MacBackoffScheduler(StaticAlgorithm):
    """Paper Algorithm 2: sift-then-poll on a multiple-access channel.

    Parameters
    ----------
    phi:
        Failure-probability exponent (success whp ``1 - 1/n^phi``).
    delta:
        Slack factor; the leading term of the schedule length is
        ``(1 + delta) e n``.
    """

    name = "mac-backoff"

    def __init__(self, phi: float = 1.0, delta: float = 0.5):
        if phi < 1:
            raise SchedulingError(f"phi must be >= 1, got {phi}")
        if delta <= 0:
            raise SchedulingError(f"delta must be positive, got {delta}")
        self._phi = float(phi)
        self._delta = float(delta)

    def state_dict(self):
        return {"name": self.name, "phi": self._phi, "delta": self._delta}

    # ------------------------------------------------------------------
    # Parameters from the paper's proof
    # ------------------------------------------------------------------

    def _survival_factor(self) -> float:
        """Per-round population shrink factor ``1 - 1/(e(1+delta))``."""
        return 1.0 - 1.0 / (math.e * (1.0 + self._delta))

    def _stage2_population(self, n: int) -> float:
        """``s``: the population at which stage 2 takes over."""
        log_n = math.log(n + 2)
        return (
            2.0
            * self._phi
            * math.e**2
            * (1.0 + self._delta) ** 2
            / self._delta**2
            * log_n
        )

    def _stage1_rounds(self, n: int) -> int:
        """``xi``: rounds to shrink ``n`` survivors down to ``s`` whp."""
        s = self._stage2_population(n)
        if n <= s:
            return 0
        return math.ceil(math.log(n / s) / -math.log(self._survival_factor()))

    def _stage2_slots(self, n: int) -> int:
        s = self._stage2_population(n)
        return math.ceil(s * math.e * (self._phi + 1.0) * math.log(n + 2))

    def budget_for(self, measure: float, n: int) -> int:
        """``(1 + delta) e n + O(phi^2 log^2 n)`` — measure on a MAC *is* n."""
        n = max(int(max(measure, n)), 1)
        factor = self._survival_factor()
        stage1 = sum(
            max(1, math.floor(factor**i * n))
            for i in range(1, self._stage1_rounds(n) + 1)
        )
        return max(1, stage1 + self._stage2_slots(n))

    def network_bound(self, m: int) -> LengthBound:
        """Native ``f(m) I + g(m, n)`` form: ``f = (1+delta) e``, ``g = O(log^2 n)``.

        On the MAC the measure of ``n`` packets is exactly ``n``, so
        Algorithm 2's bound is already network-size independent — no
        Section-3 wrapping needed.
        """
        phi, delta = self._phi, self._delta

        def additive(m_: int, n: int) -> float:
            s = (
                2.0 * phi * math.e**2 * (1.0 + delta) ** 2 / delta**2
                * math.log(n + 2)
            )
            return s * math.e * (phi + 1.0) * math.log(n + 2) + 1.0

        return LengthBound(
            multiplicative=lambda m_: (1.0 + delta) * math.e * 1.25,
            additive=additive,
            description="(1+delta)e I + O(phi^2 log^2 n) [Algorithm 2]",
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
        if budget < 0:
            raise SchedulingError(f"budget must be >= 0, got {budget}")
        if not isinstance(model, MultipleAccessChannel):
            raise SchedulingError(
                "Algorithm 2 is a multiple-access-channel algorithm; got "
                f"{type(model).__name__}"
            )
        gen = ensure_rng(rng)
        requests = list(requests)
        for index, link_id in enumerate(requests):
            if not 0 <= link_id < model.num_links:
                raise SchedulingError(
                    f"request {index} references unknown link {link_id}"
                )
        n = len(requests)
        pending: List[int] = list(range(n))
        delivered: List[int] = []
        history: Optional[List[SlotRecord]] = [] if record_history else None
        slots = 0

        # Stage 1: geometric sifting rounds. Only the per-delay packet
        # *counts* decide who is served (singleton buckets win), so the
        # whole round collapses to one batched delay draw plus a
        # bincount — no Python-level bucket dict on the hot path. The
        # bucket walk is kept only when per-slot history is recorded.
        factor = self._survival_factor()
        for i in range(1, self._stage1_rounds(n) + 1):
            if slots >= budget or not pending:
                break
            round_length = max(1, math.floor(factor**i * n))
            delays = gen.integers(round_length, size=len(pending))
            effective = min(round_length, budget - slots)
            if history is None:
                pending_arr = np.asarray(pending, dtype=np.int64)
                counts = np.bincount(delays, minlength=round_length)
                served = (counts[delays] == 1) & (delays < effective)
                # Stable sort by delay reproduces the slot-order walk:
                # delivered in slot order, survivors by (delay, index).
                order = np.argsort(delays, kind="stable")
                served_ordered = served[order]
                ordered = pending_arr[order]
                delivered.extend(int(p) for p in ordered[served_ordered])
                pending = [int(p) for p in ordered[~served_ordered]]
                slots += effective
                continue
            buckets: dict = {}
            for packet, delay in zip(pending, delays):
                buckets.setdefault(int(delay), []).append(packet)
            survivors: List[int] = []
            for delay in range(effective):
                bucket = buckets.get(delay, ())
                if len(bucket) == 1:
                    delivered.append(bucket[0])
                    link = requests[bucket[0]]
                    history.append(SlotRecord((link,), (link,)))
                else:
                    survivors.extend(bucket)
                    links = tuple(sorted(requests[p] for p in bucket))
                    history.append(SlotRecord(links, ()))
            slots += effective
            # Budget cut the round short: unplayed buckets survive as-is.
            for delay in range(effective, round_length):
                survivors.extend(buckets.get(delay, ()))
            pending = survivors

        # Stage 2: memoryless polling at probability 1/s. Only the
        # *count* of transmitters matters for the channel outcome, so a
        # binomial draw replaces per-packet coins (identical law); the
        # winner of a singleton slot is uniform among the pending. A
        # collision's transmitters matter only to the history, so they
        # come from a child generator: ``gen``'s stream, and with it
        # the run, is the same with history on or off.
        sampler = None
        s = max(self._stage2_population(n), 1.0)
        probability = min(1.0, 1.0 / s)
        stage2_budget = self._stage2_slots(n)
        stage2_done = 0
        while (
            slots < budget
            and pending
            and stage2_done < max(stage2_budget, budget - slots)
        ):
            transmitter_count = int(gen.binomial(len(pending), probability))
            if transmitter_count == 1:
                index = int(gen.integers(len(pending)))
                winner = pending.pop(index)
                delivered.append(winner)
                if history is not None:
                    link = requests[winner]
                    history.append(SlotRecord((link,), (link,)))
            elif history is not None:
                if transmitter_count == 0:
                    history.append(SlotRecord((), ()))
                else:
                    if sampler is None:
                        sampler = gen.spawn(1)[0]
                    sample = sampler.choice(
                        len(pending), size=transmitter_count, replace=False
                    )
                    links = tuple(
                        sorted(requests[pending[k]] for k in sample)
                    )
                    history.append(SlotRecord(links, ()))
            slots += 1
            stage2_done += 1

        return RunResult(
            delivered=delivered,
            remaining=sorted(pending),
            slots_used=slots,
            history=history,
        )


__all__ = ["MacBackoffScheduler"]
