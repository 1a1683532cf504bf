"""The fused slot loop and its backend selection.

Every randomized static scheduler (kv, decay, fkv, hm, single-hop) is
defined once, as a :class:`FusedPolicy`: per-link adaptive state plus
one "who transmits" answer per slot. :func:`run_fused` drives a policy
to completion; the *backend* only chooses how each slot's successes are
evaluated:

``numpy``
    One :class:`FusedTask` per run, for every policy and model alike
    (whole runs and transform sub-runs): Bernoulli coins
    pre-drawn in chunks from the same PCG64 stream (bit-identical to
    per-slot draws, with the generator rewound to the exact per-slot
    position at run end), window scans that retire event-free slots
    in closed form, sparse attempter-set bookkeeping (full-length work
    only where the busy set genuinely changes), head pops straight off
    CSR queue arrays built over the busy links only
    (:func:`~repro.staticsched.base.busy_csr`, so a run's set-up
    scales with its requests, not with ``num_links``) and lazy
    array-backed history. Each slot's successes come from the model's
    own :meth:`~repro.interference.base.InterferenceModel.batch_evaluator`,
    asked once per event slot with the attempters' local indices
    (:meth:`~repro.interference.base.BatchSuccessEvaluator.successes_local`;
    see :class:`FusedTask`).
    Decay binds from a column-subset estimate of its measure, guarded:
    coins are checked against a :data:`GUARD_BAND` around each
    threshold the run can still use before any is compared against an
    estimated threshold, and a coin inside a band makes the run switch
    to the exact measure (see :class:`DecayPolicy`).
``scalar``
    The ground-truth reference: the same loop and the same policy, but
    every slot is stepped and each slot's successes come from one
    scalar ``successes()`` call on the model (through
    :class:`~repro.interference.base.ScalarBatchEvaluator`).
    :func:`scalar_reference` forces this backend and *wins ties*
    against any other selection, so verification code can always
    trust it.
``auto``
    ``numpy``. The default.

Both backends consume the caller's generator stream exactly like a
per-slot loop (one uniform per busy link per slot, none on idle
schedulers), so a run replays identically across backends from one
seed. A run on a generator leaves it where the per-slot loop would;
a run on a borrowed :class:`ChunkedUniforms` (a transform sub-run)
leaves that to the buffer's owner, which finalizes it once for many
runs. ``tests/test_kernel_parity.py`` pins ``RunResult`` equality
against literal per-link transcriptions of every policy, and
``tests/test_golden_runs.py`` pins the results themselves.
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import bisect_left
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.interference.base import InterferenceModel, ScalarBatchEvaluator
from repro.staticsched.base import (
    LazySlotHistory,
    RunResult,
    StaticAlgorithm,
    busy_csr,
)
from repro.utils.rng import RngLike, ensure_rng

#: Backend names (the CLI's ``--backend`` choices).
BACKENDS = ("auto", "numpy", "scalar")
#: Names of removed lanes, rejected with a message saying so.
_RETIRED_BACKENDS = ("numba", "kernel")

_default_backend = "auto"
#: Stack of nested ``use_backend`` overrides; the innermost wins...
_override_stack: List[str] = []
#: ...except ``scalar``, which is sticky: any enclosing scalar request
#: (``scalar_reference()`` included) pins the resolution to scalar.
_scalar_depth = 0


def check_backend(name: str) -> str:
    """Return ``name`` if it is a backend, else raise ConfigurationError."""
    if name in _RETIRED_BACKENDS:
        raise ConfigurationError(
            f"run-loop backend '{name}' has been retired; choose from "
            f"{', '.join(BACKENDS)}"
        )
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown run-loop backend '{name}'; choose from "
            f"{', '.join(BACKENDS)}"
        )
    return name


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (``auto`` on startup)."""
    global _default_backend
    _default_backend = check_backend(name)


def default_backend() -> str:
    """The process-wide default backend name (possibly ``auto``)."""
    return _default_backend


@contextmanager
def use_backend(name: str):
    """Run the enclosed code with ``name`` as the selected backend.

    Nested uses stack (innermost wins), with one exception: a
    ``scalar`` selection anywhere on the stack pins the resolution to
    the scalar reference — verification contexts must not be
    overridden from below.
    """
    global _scalar_depth
    check_backend(name)
    _override_stack.append(name)
    if name == "scalar":
        _scalar_depth += 1
    try:
        yield
    finally:
        _override_stack.pop()
        if name == "scalar":
            _scalar_depth -= 1


def scalar_reference():
    """Force runs started in this context onto the scalar reference.

    Used by verification: the numpy backend must reproduce the
    reference run exactly (same RNG stream, same ``RunResult``). A
    scalar context wins ties against every other backend selection
    (see :func:`use_backend`).
    """
    return use_backend("scalar")


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete backend.

    A given ``name`` is validated first. Resolution order: an active
    scalar-reference context beats everything; then ``name`` if given;
    then the innermost ``use_backend`` override; then the process
    default. ``auto`` resolves to ``numpy``.
    """
    if name is not None:
        check_backend(name)
    if _scalar_depth > 0:
        return "scalar"
    if name is None:
        name = _override_stack[-1] if _override_stack else _default_backend
    return "numpy" if name == "auto" else name


def available_backends() -> Tuple[str, ...]:
    """The concrete backends runnable in this process."""
    return ("scalar", "numpy")


# ----------------------------------------------------------------------
# Chunked uniform draws
# ----------------------------------------------------------------------


class ChunkedUniforms:
    """Pre-draw uniforms in chunks, bit-identical to per-slot draws.

    numpy generators fill ``random(n)`` from the PCG64 stream exactly
    like ``n`` successive smaller draws, so any re-chunking of the
    draw sequence yields the same values — :meth:`take` hands out the
    next ``k`` stream values whatever the chunk boundaries were.

    The only observable difference a chunk could introduce is
    *overdraw*: at run end the buffer may hold values the per-slot
    loop would never have drawn, leaving the caller's generator too
    far ahead (the dynamic protocol keeps using the same generator for
    the clean-up lottery and later frames). :meth:`finalize` repairs
    this exactly: the bit-generator state is snapshotted before each
    refill, and an under-consumed final chunk rewinds to the snapshot
    and re-draws precisely the consumed count, leaving the generator
    in the same state as per-slot draws would have.

    Whoever creates a buffer finalizes it. A :class:`FusedTask` built
    on a generator owns its buffer and finalizes it when the run ends.
    The Section-3 transform instead opens one buffer per sparsification
    round (and one for its mop-up runs) and hands it to each class's
    task: such a task *borrows* the buffer, reads from its cursor,
    triggers refills like any task and leaves its cursor behind for the
    next class; the transform finalizes the buffer once, before its
    next draw on the generator and before it returns. Between
    finalizations the generator runs ahead of the handed-out coins, so
    nothing else may draw from it then.
    """

    __slots__ = ("_gen", "_chunk_slots", "_buf", "_cursor", "_state",
                 "_consumed")

    def __init__(self, gen: np.random.Generator, chunk_slots: int = 64):
        self._gen = gen
        self._chunk_slots = max(1, int(chunk_slots))
        self._buf = np.empty(0)
        self._cursor = 0
        self._state = None
        self._consumed = 0

    def refill(self, k: int, slots: Optional[int] = None) -> np.ndarray:
        """Splice the unconsumed tail with a fresh chunk (no consume).

        The chunk holds ``slots`` slots of ``k`` coins (default: the
        constructor's ``chunk_slots``). Resets the cursor to 0 and
        returns the new buffer; callers that consume straight off the
        buffer (the inlined slot loop) must keep
        :attr:`_cursor`/:attr:`_consumed` in sync so :meth:`finalize`
        can rewind exactly. A tail of ``k`` or more (an early splice)
        may outlive the buffer's use, so it keeps the older snapshot.
        """
        if slots is None:
            slots = self._chunk_slots
        leftover = self._buf[self._cursor:]
        if leftover.size < k:
            # Snapshot *before* drawing: the next slot consumes past
            # the leftover, and finalize() replays from here.
            self._state = self._gen.bit_generator.state
            self._consumed = -int(leftover.size)
        fresh = self._gen.random(max(slots * k, k - leftover.size))
        if leftover.size:
            self._buf = np.concatenate([leftover, fresh])
        else:
            self._buf = fresh
        self._cursor = 0
        return self._buf

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` uniforms from the stream (a buffer view)."""
        if self._cursor + k > self._buf.size:
            self.refill(k)
        cursor = self._cursor
        out = self._buf[cursor:cursor + k]
        self._cursor = cursor + k
        self._consumed += k
        return out

    def finalize(self) -> None:
        """Rewind overdraw so the generator matches per-slot draws."""
        if self._state is not None and self._cursor < self._buf.size:
            # A snapshot is only taken for a slot that then consumes
            # past the leftover, so _consumed > 0 here.
            self._gen.bit_generator.state = self._state
            if self._consumed > 0:
                self._gen.random(self._consumed)
        self._buf = np.empty(0)
        self._cursor = 0
        self._state = None


# ----------------------------------------------------------------------
# Fused slot policies (one per randomized scheduler)
# ----------------------------------------------------------------------


class FusedPolicy:
    """Per-scheduler state hooks for the fused run loop.

    The engine owns the busy set, queue depths, delivery and history;
    a policy owns the scheduler's adaptive state and answers one
    question per slot — who transmits — via :meth:`attempt`, then
    observes the outcome via :meth:`update` (called every slot, in
    *pre-compaction* indexing) and shrinks its arrays in
    :meth:`compact`. A policy is its scheduler's only definition: the
    numpy backend and the scalar reference drive the same object, so
    their runs agree bit-for-bit by construction.

    The exchange format is sparse: :meth:`attempt` returns the local
    transmit mask *and* the attempter index array, and the outcome
    comes back as ``ok`` — a boolean verdict per attempter — so
    adaptive updates touch O(attempters), not O(busy), elements.
    A scanned event slot takes its attempters from the scan instead,
    so :meth:`attempt` changes no state but its caches.
    """

    #: Whether the policy consumes one uniform per busy link per slot.
    uses_rng: bool = True
    #: The coin thresholds by local link, or one float all links share
    #: for the run; None when stale (``attempt`` calls ``_refresh``).
    thresholds = None
    #: A float no threshold exceeds for the rest of the run, or None.
    ceiling = None

    def bind(self, model, requests, busy, depths, exact=True) -> None:
        """Allocate per-run state for the initial busy set.

        With ``exact`` false (the numpy backend) a policy may bind from
        a cheaper estimate that it certifies before any coin is
        compared against it (see :class:`DecayPolicy`); the scalar
        reference always binds exactly.
        """

    def attempt(self, u: Optional[np.ndarray], depths: np.ndarray):
        """Return ``(mask, att_idx)``: the local transmit mask (possibly
        a reusable buffer) and the attempters' local indices: by default
        the links whose coins fall below their thresholds."""
        lp = self.thresholds
        if lp is None:
            lp = self.thresholds = self._refresh(depths)
        mask = u < lp
        return mask, mask.nonzero()[0]

    def update(self, att_idx: np.ndarray, ok: np.ndarray) -> None:
        """Apply the post-slot recurrence (pre-compaction indexing)."""

    def compact(self, keep: np.ndarray) -> None:
        """Shrink state to the surviving busy links."""


class KvPolicy(FusedPolicy):
    """Ack-feedback multiplicative adaptation (KV / DISC'10).

    A link's idle streak is kept as ``last_reset``, the slot during
    which it last restarted (an attempt or a recovery; -1 before the
    first slot), against the policy's own slot counter ``slot``: the
    streak after slot ``s`` is ``s - last_reset``. The streak is checked
    and reset every slot and ``recovery_slots >= 1``, so it can only
    ever *hit* the threshold, and "streak >= R" is exactly
    ``last_reset == slot - R`` — one comparison per slot, with the
    recovery applied to the recovered links only.
    """

    def __init__(self, p0: float, p_min: float, backoff: float,
                 recovery_slots: int):
        if recovery_slots < 1:
            raise SchedulingError(
                f"recovery_slots must be >= 1, got {recovery_slots}"
            )
        self.p0 = p0
        self.p_min = p_min
        self.backoff = backoff
        self.recovery_slots = recovery_slots

    def bind(self, model, requests, busy, depths, exact=True) -> None:
        k = busy.size
        self.thresholds = self.probability = np.full(k, self.p0)
        self.last_reset = np.full(k, -1, dtype=np.int64)
        self.slot = 0

    def update(self, att_idx, ok):
        # The per-link rule on the attempter subset only: successes
        # reset to p0, failures back off with the p_min clamp — the
        # values match full-array masked updates element for element.
        p = self.probability
        last_reset = self.last_reset
        slot = self.slot
        if att_idx.size:
            last_reset[att_idx] = slot
            backed = np.maximum(
                p.take(att_idx) * self.backoff, self.p_min
            )
            backed[ok] = self.p0
            p[att_idx] = backed
        # This slot's attempters were stamped with it, so no recovered
        # link attempted and its probability is untouched above.
        rec_idx = (last_reset == slot - self.recovery_slots).nonzero()[0]
        if rec_idx.size:
            doubled = p.take(rec_idx) * 2.0
            np.minimum(doubled, self.p0, out=doubled)
            p[rec_idx] = doubled
            last_reset[rec_idx] = slot
        self.slot = slot + 1

    def compact(self, keep):
        self.thresholds = self.probability = self.probability[keep]
        self.last_reset = self.last_reset[keep]


class DecayPolicy(FusedPolicy):
    """Non-adaptive ``1/(cI)`` transmission (paper Theorem 19).

    The measure ``I = max(W @ v)`` reaches a run only through the coin
    tests ``u < lp``, ``lp(d) = 1 - (1 - 1/(cI))**d`` at depth ``d``,
    read by ``take`` from a ``ladder`` of ``lp(0..max depth)`` built
    per bind with the per-slot ufuncs on the same inputs (so the same
    bits). Depths only fall: ``lp(max depth)`` is the run's
    :attr:`ceiling`, and with every depth 1 all links share it. An
    inexact bind (``exact=False``) estimates ``I`` from the requested
    columns alone, ``max(depths @ Wᵀ[busy])`` over the model's contiguous
    :meth:`~repro.interference.base.InterferenceModel.weight_columns`,
    instead of a full mat-vec, and stays *uncertified* until
    :meth:`guard` has cleared the run's coins or rebound it exactly.
    For non-negative terms both sums lie within ``γ_k·I`` of the true
    value (``γ_k = k·2⁻⁵³ / (1 - k·2⁻⁵³)``, ``k`` requested links), so
    the estimate is within ``2γ_k·I`` of the exact measure, whatever
    order either sum takes.
    A link of depth ``d`` has a row sum of at least ``d`` (``W``'s
    diagonal is 1), so ``d·p <= 1/c`` and ``|Δlp| <= d·p·2γ_k`` stays
    near 1e-15 — far inside :data:`GUARD_BAND`. A coin outside the band
    around every threshold the run can still use thus takes the same
    branch under either measure. Models that override
    ``interference_measure`` or ``as_request_vector`` always bind
    exactly.
    """

    #: Set by a task that borrows a transform round's coin buffer: see
    #: :meth:`guard`.
    borrowed = False

    def __init__(self, probability_scale: float, measure_floor: float):
        self.probability_scale = probability_scale
        self.measure_floor = measure_floor

    def bind(self, model, requests, busy, depths, exact=True) -> None:
        kind = type(model)
        self._pending_exact = None
        self._cleared = False
        if (
            exact
            or not busy.size
            or kind.interference_measure
            is not InterferenceModel.interference_measure
            or kind.as_request_vector is not InterferenceModel.as_request_vector
        ):
            measure = model.interference_measure(list(requests))
        else:
            rows = model.weight_columns().take(busy, axis=0)
            measure = float(np.dot(depths.astype(float), rows).max())
            self._pending_exact = (model, requests)
        # Depths only fall; all are 1 when no two requests share a link.
        self.shared = busy.size == len(requests)
        self._top = 1 if self.shared else int(depths.max())
        self._set_measure(measure)

    def _set_measure(self, measure: float) -> None:
        self.measure = measure
        measure = max(measure, self.measure_floor)
        self.probability = min(
            1.0, 1.0 / (self.probability_scale * measure)
        )
        self.complement = 1.0 - self.probability
        ladder = np.power(self.complement, np.arange(self._top + 1))
        self.ladder = np.subtract(1.0, ladder, out=ladder)
        self.thresholds = float(ladder[1]) if self.shared else None
        self.ceiling = float(ladder.max())

    @property
    def certified(self) -> bool:
        """Whether the bound measure is known to decide like the exact one."""
        return self._pending_exact is None

    def guard(self, coins: np.ndarray, depths: np.ndarray) -> bool:
        """Certify an estimated measure before ``coins`` are compared.

        The task calls this with each batch of coins it is about to
        read. A batch is cleared in one pass against
        ``lp(d) ± GUARD_BAND`` for every depth ``d`` in
        ``1..max(depths)`` — depths only fall, so these are all the
        thresholds the run can still use. A coin inside a band rebinds
        with the exact measure (certifying the policy) and returns
        True: the caller must re-fetch its thresholds. With every
        depth 1 (most transform sub-runs) the one band is checked
        directly with two comparisons.

        A task owning its coin buffer draws its first batch at its
        first slot; a second batch rebinds exactly whatever the coins,
        so a long run pays for one cleared refill and at most one exact
        measure. A task borrowing a transform round's buffer (it sets
        :attr:`borrowed`) passes the leftover coins it starts with and
        every refill it triggers, and each is checked alike: such tasks
        are short, and an exact measure costs a ``num_links``-square
        mat-vec.
        """
        if self.borrowed or not self._cleared:
            self._cleared = True
            top = 1 if self.shared else int(depths.max())
            if top == 1:
                # One threshold, ``lp(1)``: its closed band, directly.
                lp = self.ladder[1]
                clear = not np.count_nonzero(
                    (coins >= lp - GUARD_BAND) & (coins <= lp + GUARD_BAND)
                )
            else:
                lp = self.ladder[1:top + 1]
                # The bands holding a coin are those opening at or below
                # it less those closing below it (``lp`` is
                # non-decreasing).
                clear = np.array_equal(
                    np.searchsorted(lp - GUARD_BAND, coins, "right"),
                    np.searchsorted(lp + GUARD_BAND, coins, "left"),
                )
            if clear:
                return False
        model, requests = self._pending_exact
        self._pending_exact = None
        self._set_measure(model.interference_measure(list(requests)))
        return True

    def _refresh(self, depths):
        return self.ladder.take(depths)

    def update(self, att_idx, ok):
        # A success lowers a depth (draining the link when shared).
        if not self.shared and ok.size and ok.any():
            self.thresholds = None

    def compact(self, keep):
        if not self.shared:
            self.thresholds = None


class FkvPolicy(FusedPolicy):
    """Phased decay (FKV, TCS 2011): geometric phase schedule."""

    def __init__(self, probability_scale: float, phase_scale: float):
        self.probability_scale = probability_scale
        self.phase_scale = phase_scale

    def bind(self, model, requests, busy, depths, exact=True) -> None:
        import math

        requests = list(requests)
        self._n = max(1, len(requests))
        self._log_n = math.log(self._n + 2)
        self._measure = max(model.interference_measure(requests), 1.0)
        self.phase = -1
        self.phase_left = 0

    def _advance_phase(self) -> None:
        import math

        self.phase += 1
        phase_measure = max(self._measure / 2.0 ** self.phase, 1.0)
        self.probability = min(
            0.25, 1.0 / (self.probability_scale * phase_measure)
        )
        self.complement = 1.0 - self.probability
        self.phase_left = max(
            1,
            math.ceil(
                self.phase_scale
                * self.probability_scale
                * max(phase_measure, self._log_n)
            ),
        )
        self.thresholds = None

    def _refresh(self, depths):
        return np.subtract(1.0, np.power(self.complement, depths))

    def attempt(self, u, depths):
        if self.phase_left == 0:
            self._advance_phase()
        return super().attempt(u, depths)

    def update(self, att_idx, ok):
        self.phase_left -= 1
        if ok.size and ok.any():
            self.thresholds = None

    def compact(self, keep):
        self.thresholds = None


class HmPolicy(FusedPolicy):
    """Contention-adaptive ``chi / I_busy`` transmission (HM-style).

    :meth:`bind` gathers the busy-set submatrix of ``W`` once and keeps
    it frozen; ``_cols`` maps the current local indices into it (the
    pattern of ``CachedBatchEvaluator``). A drain subtracts the drained
    columns from the survivors' contention with one gather of
    ``sub[kept, gone]`` — the same values, in the same order, as
    re-slicing a shrunken submatrix step by step, so the row sums are
    bit-identical — and costs O(survivors × drained), not a copy of
    the whole submatrix. Contention only falls, so when none exceeds 1
    at bind (as on packet routing's identity ``W``) every link attempts
    with ``min(1, chi)`` for the whole run, the :attr:`ceiling`.
    """

    def __init__(self, chi: float):
        self.chi = chi

    def bind(self, model, requests, busy, depths, exact=True) -> None:
        self._sub = model.weight_matrix()[np.ix_(busy, busy)]
        self._cols = np.arange(busy.size)
        self.contention = self._sub.sum(axis=1)
        shared = busy.size and self.contention.max() <= 1.0
        self.thresholds = float(min(1.0, self.chi)) if shared else None
        self.ceiling = self.thresholds

    def _refresh(self, depths):
        return np.minimum(1.0, self.chi / np.maximum(self.contention, 1.0))

    def compact(self, keep):
        if self.ceiling is not None:
            return  # Shared: no threshold moves; contention is as bound.
        cols = self._cols
        kept = cols[keep]
        self.contention = (
            self.contention[keep]
            - self._sub[kept[:, None], cols[~keep]].sum(axis=1)
        )
        self._cols = kept
        self.thresholds = None


class SingleHopPolicy(FusedPolicy):
    """Every busy link transmits (the trivial packet-routing rule)."""

    uses_rng = False

    def bind(self, model, requests, busy, depths, exact=True) -> None:
        self._ones = np.ones(busy.size, dtype=bool)
        self._ones.setflags(write=False)
        self._arange = np.arange(busy.size)
        self._size = busy.size

    def attempt(self, u, depths):
        k = self._size
        return self._ones[:k], self._arange[:k]

    def compact(self, keep):
        self._size = int(np.count_nonzero(keep))


# ----------------------------------------------------------------------
# The fused engine
# ----------------------------------------------------------------------


#: Most slots one scan covers, and the chunk length (in slots) of the
#: coins a scanning task draws; a stepping task draws
#: :data:`STEP_CHUNK`-slot chunks. Any chunking hands out the same
#: stream values, and ChunkedUniforms' finalize() rewind leaves the
#: generator's end state dependent only on the handed-out count, so
#: both lengths are free choices: 256 amortises a scan's fixed cost
#: over many empty slots while keeping its buffers small.
WINDOW = 256
STEP_CHUNK = 64

#: The mode switch. A task scans while the slots it recently saw held
#: at least this many slots per event slot (a slot with an attempter),
#: and steps slot by slot while they were denser. Scanning an event
#: costs about as much as stepping a few empty slots, so below this gap
#: stepping is cheaper.
SCAN_GAP = 4
#: Slots a task observes before it reconsiders its mode.
DENSITY_SPAN = 8

#: Half-width of the band around an estimated decay threshold inside
#: which a coin forces the exact measure (see :class:`DecayPolicy`):
#: the estimate moves a threshold by about 1e-15.
GUARD_BAND = 1e-9

#: Horizon sentinel for policies whose thresholds never drift between
#: events (decay, HM).
_UNLIMITED = 1 << 30
_NO_OK = np.empty(0, dtype=bool)


def _scan_state(policy: FusedPolicy, depths: np.ndarray):
    """``(thresholds, horizon, changed)`` for scanning at frozen state.

    ``thresholds`` is the policy's :attr:`~FusedPolicy.thresholds`
    (per link, or one float when shared) the next ``horizon`` slots
    would all use, and ``changed`` reports whether this call moved them
    (a scanning task re-tiles its limits then, and after every slot it
    runs through the slot body). Horizons guarantee that
    *skipped* (attempt-free) slots inside the window are complete
    no-ops for the policy beyond the closed-form bookkeeping in
    :meth:`FusedTask._skip`:

    * KV: attempt-free slots only lengthen idle streaks, but idle
      recovery fires in ``update`` once a streak reaches
      ``recovery_slots``, doubling probabilities — so at most
      ``recovery_slots - slot + min(last_reset)`` slots can pass
      without any streak reaching the threshold. The event slot itself
      runs the real update, which applies any recovery exactly.
    * FKV: thresholds change only at phase boundaries; after advancing
      a just-expired phase (exactly what the per-slot attempt would do
      on its next slot), ``phase_left`` slots remain in the phase.
    * decay/HM: thresholds depend only on queue depths / the busy-set
      contention, which only change on successful deliveries — and a
      skipped slot has no attempts at all. Unlimited horizon.

    A refresh is the policy's own :meth:`~FusedPolicy._refresh`, cached
    in its ``thresholds``, so a later ``attempt`` reuses bit-identical
    values exactly like a stepped slot following a cached refresh.
    """
    kind = type(policy)
    horizon = _UNLIMITED
    if kind is KvPolicy:
        horizon = (
            policy.recovery_slots - policy.slot
            + int(policy.last_reset.min())
        )
    elif kind is FkvPolicy:
        if policy.phase_left == 0:
            policy._advance_phase()
        horizon = policy.phase_left
    thresholds = policy.thresholds
    if thresholds is not None:
        return thresholds, horizon, False
    policy.thresholds = thresholds = policy._refresh(depths)
    return thresholds, horizon, True


#: The policies :func:`_scan_state` can freeze; other policies step.
_SCANNABLE = (KvPolicy, HmPolicy, FkvPolicy, DecayPolicy)


class FusedTask:
    """One fused run of a policy: the whole slot engine.

    The task holds the run's setup, its one slot loop (:meth:`run`),
    the closed-form skip (:meth:`_skip`) and :meth:`finish`;
    :func:`run_fused` builds one and runs it.

    The loop has two modes and picks between them from the event
    density the task just saw (see :data:`SCAN_GAP`). *Stepping* runs
    slots one by one through the slot body. *Scanning* compares a
    window of upcoming coins against the policy's frozen thresholds in
    one vectorised ``<`` on the task's own coin buffer, retires the
    event-free slots before the first hit in closed form (their coins
    are consumed, their attempt sets are empty by construction, and
    the policy bookkeeping they would have done is applied by
    :meth:`_skip`) and runs the event slot, its attempters the hits in
    its row, through the slot body. A policy with a
    :attr:`~FusedPolicy.ceiling` is scanned against it, and the hits
    are kept until the scanned coins run out: later event slots come
    from them at the busy set's current width (if all links share the
    ceiling, the task only scans). Both modes consume the same coins
    and make the same decisions, so the mode never changes a result:
    every :class:`RunResult` — delivered order, remaining order, slots
    used, history — and the generator's end state equal the per-slot
    loop's. The scalar reference (``scalar``) and coin-free policies
    only ever step.

    Built on a generator, a task draws into a :class:`ChunkedUniforms`
    of its own and finalizes it in :meth:`finish`. Built on a
    ``ChunkedUniforms`` (a transform round's), it borrows it: its
    coins start at the buffer's cursor, the leftover there is guarded
    like a refill (and spliced with one if short of a scan window), and
    :meth:`finish` leaves the cursor for the next borrower and the
    rewind to the buffer's owner.
    """

    __slots__ = (
        "policy", "budget", "order", "links", "busy", "depths",
        "head_ptr", "pending", "evaluator", "chunk", "borrowed", "ubuf",
        "ucursor", "history", "delivered_parts", "slots", "scannable",
    )

    def __init__(self, policy: FusedPolicy, model: InterferenceModel,
                 requests: Sequence[int], budget: int,
                 gen: np.random.Generator | ChunkedUniforms,
                 record_history: bool = False, scalar: bool = False):
        if budget < 0:
            raise SchedulingError(f"budget must be >= 0, got {budget}")
        self.policy = policy
        self.budget = budget
        # Queues over the busy links only (rows of `links`, compacted
        # together): a link's requests are order[head_ptr:][:depth].
        self.order, busy, starts, ends = busy_csr(requests, model.num_links)
        self.links = np.array((busy, ends - starts, starts))
        self.busy, self.depths, self.head_ptr = self.links
        self.pending = self.order.size
        policy.bind(model, requests, busy, self.depths, exact=scalar)
        self.evaluator = (
            ScalarBatchEvaluator(model, busy) if scalar
            else model.batch_evaluator(busy)
        )
        # A ChunkedUniforms is borrowed: read from its cursor, left
        # for its owner to finalize. A generator gets a buffer of its own.
        self.borrowed = isinstance(gen, ChunkedUniforms)
        chunk = None
        if policy.uses_rng:
            chunk = gen if self.borrowed else ChunkedUniforms(gen)
        self.chunk = chunk
        self.ubuf = chunk._buf if chunk is not None else None
        self.ucursor = chunk._cursor if chunk is not None else 0
        self.history: Optional[LazySlotHistory] = None
        if record_history:
            self.history = LazySlotHistory(
                np.asarray(requests, dtype=np.int64)
            )
        self.delivered_parts: List[np.ndarray] = []
        self.slots = 0
        self.scannable = not scalar and type(policy) in _SCANNABLE

    def run(self) -> RunResult:
        """Run to the end (budget spent or queues empty); the result.

        The engine's one loop. Each pass either *scans* — compares a
        window of upcoming coins against the policy's frozen
        thresholds, or reads on in a ceiling scan's kept hits, retires
        the event-free slots before the first hit in closed form, and
        falls through to the event slot — or *steps* one slot. The
        slot body below is the only one: a slot costs its attempters
        (when stepped, a chunk-buffer view and one comparison), the
        evaluator on them, and attempter-subset gathers/scatters for
        the CSR head pops, depth bookkeeping and the policy recurrence
        (with one attempter, the pop and the depth are Python-int reads
        and writes instead). Every :data:`DENSITY_SPAN` slots the task
        rechooses its mode from the event density it saw. The task's
        state is bound to locals for the loop and written back after
        it.
        """
        policy = self.policy
        attempt_fn = policy.attempt
        update_fn = policy.update
        compact = policy.compact
        evaluate = self.evaluator.successes_local
        drop = self.evaluator.drop
        chunk = self.chunk
        ubuf = self.ubuf
        ucursor = self.ucursor
        links = self.links
        busy = self.busy
        depths = self.depths
        head_ptr = self.head_ptr
        order = self.order
        history = self.history
        delivered_parts = self.delivered_parts
        pending = self.pending
        budget = self.budget
        slots = self.slots
        scannable = self.scannable
        ceiled = scannable and policy.ceiling is not None
        # A run starts stepping, unless its links share the ceiling;
        # `seen` slots held `events` event slots since the last choice.
        shared = ceiled and type(policy.thresholds) is float
        scanning = shared
        seen = events = 0
        # An uncertified decay estimate is certified at coin refills,
        # and a borrowed buffer's leftover coins before the first slot
        # (unless too few for it: its refill then carries them).
        guarded = type(policy) is DecayPolicy and not policy.certified
        if guarded and self.borrowed:
            policy.borrowed = True
            if (
                ucursor + busy.size <= ubuf.size
                and policy.guard(ubuf[ucursor:], depths)
            ):
                guarded = False
        # Tiled thresholds (`tiled` coins' worth are current) and the
        # scan's output buffer.
        tiled = 0
        limits = hits_buf = None
        # A scan's hits of the ceiling, as positions in the buffer, `hit`
        # the next unread, found in the coins before `scanned`.
        hits = []
        hit = scanned = 0
        local = np.arange(busy.size)
        while slots < budget and pending:
            k = busy.size
            att_idx = None
            if scanning:
                kept = ceiled and ucursor + k <= scanned
                if kept:
                    # A ceiling moves only when the guard rebinds, at
                    # a refill, which drops the kept hits.
                    rows = budget - slots
                else:
                    thresholds, horizon, changed = _scan_state(
                        policy, depths
                    )
                    # Tiled rows serve every later scan at these
                    # thresholds: the budget and horizon only shrink.
                    rows = min(budget - slots, horizon, WINDOW)
                if rows >= 1:
                    if not kept:
                        if ucursor + k > ubuf.size or (
                            self.borrowed and ucursor + rows * k > ubuf.size
                        ):
                            # The stepping refill trigger (the first
                            # consumption after a refill, one slot at
                            # least, exceeds the leftover), or a
                            # borrowed leftover short of the window.
                            chunk._cursor = ucursor
                            ubuf = chunk.refill(
                                k, min(WINDOW, budget - slots)
                            )
                            ucursor = scanned = 0
                            if guarded and policy.guard(ubuf, depths):
                                # The exact measure moved the thresholds:
                                # re-fetch them (the coins are in place).
                                guarded = False
                                continue
                        w = min(rows, (ubuf.size - ucursor) // k)
                        n = w * k
                        if ceiled:
                            scanned = ucursor + n
                            lit = ubuf[ucursor:scanned] < policy.ceiling
                            hits = (lit.nonzero()[0] + ucursor).tolist()
                            hit = 0
                        else:
                            if changed or tiled < n:
                                size = rows * k
                                if limits is None or limits.size < size:
                                    limits = np.empty(size)
                                    hits_buf = np.empty(size, dtype=bool)
                                limits[:size].reshape(rows, k)[:] = (
                                    thresholds
                                )
                                tiled = size
                            lit = np.less(
                                ubuf[ucursor:ucursor + n], limits[:n],
                                out=hits_buf[:n],
                            )
                            first = int(lit.argmax())
                            skip = w
                            if lit[first]:
                                skip = first // k
                                att_idx = lit[skip * k:skip * k + k]
                                att_idx = att_idx.nonzero()[0]
                    if ceiled:
                        # The kept hits by slot of the current width: the
                        # event is the first slot with hits under their
                        # links' own thresholds. Skips keep no state.
                        skip = min(rows, (scanned - ucursor) // k)
                        end = ucursor + skip * k
                        while hit < len(hits) and hits[hit] < end:
                            row = (hits[hit] - ucursor) // k
                            at = ucursor + row * k
                            j = bisect_left(hits, at + k, hit + 1)
                            cols = [h - at for h in hits[hit:j]]
                            hit = j
                            if not shared:
                                lp = _scan_state(policy, depths)[0]
                                cols = [c for c in cols
                                        if ubuf[at + c] < lp[c]]
                            if cols:
                                skip = row
                                att_idx = (
                                    local[cols[0]:cols[0] + 1]
                                    if len(cols) == 1 else np.array(cols)
                                )
                                break
                        if skip and history is not None:
                            history.append_empty(skip)
                    elif skip:
                        self._skip(skip)
                    slots += skip
                    seen += skip
                    if att_idx is None:
                        ucursor += skip * k
                        chunk._consumed += skip * k
                        if seen >= DENSITY_SPAN:
                            scanning = shared or events * SCAN_GAP <= seen
                            seen = events = 0
                        continue
                    # The event slot's coins are the scanned ones.
                    ucursor += (skip + 1) * k
                    chunk._consumed += (skip + 1) * k
            # The slot may move the thresholds.
            tiled = 0
            if att_idx is None:
                # A stepped slot reads coins past the kept hits.
                scanned = 0
                if chunk is not None:
                    nxt = ucursor + k
                    if nxt > ubuf.size:
                        chunk._cursor = ucursor
                        ubuf = chunk.refill(
                            k, min(STEP_CHUNK, budget - slots)
                        )
                        ucursor = 0
                        nxt = k
                        if guarded and policy.guard(ubuf, depths):
                            # attempt() re-derives the thresholds.
                            guarded = False
                    u = ubuf[ucursor:nxt]
                    ucursor = nxt
                    chunk._consumed += k
                    att_idx = attempt_fn(u, depths)[1]
                else:
                    att_idx = attempt_fn(None, depths)[1]
            heads = None
            keep = None
            n_att = att_idx.size
            if n_att:
                events += 1
                ok = evaluate(att_idx)
                if n_att == 1:
                    # One attempter (most event slots): its pop, depth
                    # and drain test on Python ints, same arrays.
                    if ok[0]:
                        i = int(att_idx[0])
                        hp = int(head_ptr[i])
                        heads = order[hp:hp + 1]
                        delivered_parts.append(heads)
                        head_ptr[i] = hp + 1
                        left = int(depths[i]) - 1
                        depths[i] = left
                        pending -= 1
                        if not left:
                            keep = depths.astype(bool)
                elif np.count_nonzero(ok):
                    s_idx = att_idx[ok]
                    hp = head_ptr.take(s_idx)
                    heads = order.take(hp)
                    delivered_parts.append(heads)
                    head_ptr[s_idx] = hp + 1
                    served = depths.take(s_idx) - 1
                    depths[s_idx] = served
                    pending -= heads.size
                    if np.count_nonzero(served) < served.size:
                        keep = depths.astype(bool)
                if history is not None:
                    history.append_attempts(busy, att_idx, heads)
            else:
                ok = _NO_OK
                if history is not None:
                    history.append_empty()
            update_fn(att_idx, ok)
            if keep is not None:
                links = links.compress(keep, axis=1)
                busy, depths, head_ptr = links[0], links[1], links[2]
                drop(keep)
                compact(keep)
            slots += 1
            seen += 1
            if seen >= DENSITY_SPAN:
                scanning = shared or (
                    scannable and events * SCAN_GAP <= seen
                )
                seen = events = 0
        self.ubuf = ubuf
        self.ucursor = ucursor
        self.links = links
        self.busy = busy
        self.depths = depths
        self.head_ptr = head_ptr
        self.pending = pending
        self.slots = slots
        return self.finish()

    def _skip(self, s: int) -> None:
        """Retire ``s`` event-free slots in closed form.

        Applies the policy bookkeeping the slots would have done and
        records them; safe only within a :func:`_scan_state` horizon
        (no attempts, hence no queue/evaluator/probability changes,
        and no KV recovery or FKV phase boundary inside the window).
        The caller consumes their coins.
        """
        policy = self.policy
        kind = type(policy)
        if kind is KvPolicy:
            policy.slot += s
        elif kind is FkvPolicy:
            policy.phase_left -= s
        if self.history is not None:
            self.history.append_empty(s)

    def finish(self) -> RunResult:
        """Rewind coin overdraw and assemble the :class:`RunResult`.

        A borrowed buffer is not rewound: its cursor is left for the
        next run that borrows it, and its owner finalizes it.
        """
        chunk = self.chunk
        if chunk is not None:
            chunk._cursor = self.ucursor
            if not self.borrowed:
                chunk.finalize()
                self.ubuf = chunk._buf
                self.ucursor = 0
        if self.delivered_parts:
            delivered = np.concatenate(self.delivered_parts).tolist()
        else:
            delivered = []
        remaining: List[int] = []
        order = self.order
        for head, depth in zip(self.head_ptr.tolist(), self.depths.tolist()):
            remaining.extend(order[head:head + depth].tolist())
        return RunResult(
            delivered=delivered,
            remaining=remaining,
            slots_used=self.slots,
            history=self.history,
        )


def run_fused(
    policy: FusedPolicy,
    model: InterferenceModel,
    requests: Sequence[int],
    budget: int,
    gen: np.random.Generator | ChunkedUniforms,
    record_history: bool = False,
) -> RunResult:
    """Run a policy to completion on the resolved backend.

    Builds one :class:`FusedTask` and runs it: on ``numpy`` it scans
    event-sparse stretches and steps event-dense ones; on ``scalar`` it
    steps every slot on the model's scalar ``successes()``. ``gen`` is
    a generator, which the run leaves where the per-slot loop would, or
    a borrowed :class:`ChunkedUniforms`, which its owner finalizes.
    """
    return FusedTask(
        policy, model, requests, budget, gen, record_history,
        resolve_backend() == "scalar",
    ).run()


class FusedScheduler(StaticAlgorithm):
    """A static scheduler defined by its :class:`FusedPolicy`.

    Subclasses supply :meth:`fused_policy`; :meth:`run` drives a fresh
    policy through :func:`run_fused`. ``rng`` may also be a
    :class:`ChunkedUniforms` the caller owns (the Section-3 transform's
    round buffer): the run reads from it and leaves its finalization to
    the caller.
    """

    @abstractmethod
    def fused_policy(self) -> FusedPolicy:
        """A fresh policy carrying this scheduler's configuration."""

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
        if not isinstance(rng, ChunkedUniforms):
            rng = ensure_rng(rng)
        return run_fused(
            self.fused_policy(), model, requests, budget, rng,
            record_history,
        )


__all__ = [
    "BACKENDS",
    "ChunkedUniforms",
    "DecayPolicy",
    "FkvPolicy",
    "FusedPolicy",
    "FusedScheduler",
    "FusedTask",
    "HmPolicy",
    "KvPolicy",
    "SingleHopPolicy",
    "available_backends",
    "check_backend",
    "default_backend",
    "resolve_backend",
    "run_fused",
    "scalar_reference",
    "set_default_backend",
    "use_backend",
]
