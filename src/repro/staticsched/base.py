"""The static-algorithm interface and shared bookkeeping.

Requests
--------
A request set is a sequence of link ids — one entry per packet that must
cross that link once (single-hop view, which is all the dynamic protocol
ever asks for: one hop per packet per frame). Duplicates mean several
packets queued on the same link; requests are identified by their index
in the sequence so callers can map results back to packets.

Results
-------
:class:`RunResult` reports which request indices were served within the
slot budget, which remain, and how many slots were consumed (an
algorithm may finish early). ``history`` optionally records each slot's
attempted and successful link sets for schedule-feasibility tests.

Length bounds
-------------
:class:`LengthBound` captures the ``f(m) * I + g(m, n)`` schedule-length
form the Section-4 protocol needs to size frames: ``multiplicative`` is
``f`` (a function of the network size ``m``), ``additive`` is ``g``.
Raw algorithms whose factor depends on ``n`` (e.g. ``O(I log n)``)
expose their *post-transformation* bound via
:meth:`StaticAlgorithm.network_bound` only after wrapping with
Algorithm 1 (:mod:`repro.core.transform`); natively well-scaling
algorithms return one directly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.interference.base import InterferenceModel
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class SlotRecord:
    """One slot of a run: which links attempted, which succeeded."""

    attempted: Tuple[int, ...]
    succeeded: Tuple[int, ...]


class LazySlotHistory(Sequence):
    """A slot history that materialises :class:`SlotRecord` lazily.

    Recording a run used to build one ``SlotRecord`` — two tuples of
    Python ints — per slot, which dominated history-recording runs.
    This container instead stores the raw per-slot numpy arrays the
    run loop already has in hand and only converts them to
    ``SlotRecord`` tuples on access (indexing, iteration, equality),
    i.e. in tests and analysis code, never in the hot loop.

    A busy slot is recorded by :meth:`append_attempts` in the fused
    loop's zero-copy form: references to the (immutable-by-convention)
    busy array of the slot's compaction epoch and the slot's local
    attempter indices, and the slot's popped head-request array
    (``None`` when nothing succeeded). Succeeded link ids are recovered
    lazily as ``request_links[heads]`` — heads pop in ascending busy
    order, so the ids come out sorted exactly like the eager tuples did.

    Equality compares materialised records elementwise, so histories
    recorded by different backends (or plain ``List[SlotRecord]``
    histories from per-slot loops) compare naturally;
    concatenation (``+``) materialises to a plain list, which keeps
    :meth:`RunResult.merge_after` working unchanged.
    """

    __slots__ = ("_attempted", "_succeeded", "_request_links")

    def __init__(self, request_links: Optional[np.ndarray] = None):
        # Per slot: entry in _attempted is None (idle slot) or a
        # (busy_ref, att_idx) pair; entry in _succeeded is None or an
        # array of head request indices to be mapped through
        # _request_links.
        self._attempted: List = []
        self._succeeded: List = []
        self._request_links = request_links

    # -- recording -----------------------------------------------------

    def append_empty(self, count: int = 1) -> None:
        """Record ``count`` idle slots (no attempts, no successes)."""
        idle = [None] * count
        self._attempted.extend(idle)
        self._succeeded.extend(idle)

    def append_attempts(
        self,
        busy: np.ndarray,
        att_idx: np.ndarray,
        heads: Optional[np.ndarray],
    ) -> None:
        """Record a slot from the fused loop's working arrays.

        ``busy`` and the ascending local attempter indices ``att_idx``
        are kept by reference (neither is written after the slot),
        ``heads`` are the popped request indices (``None`` if none).
        """
        self._attempted.append((busy, att_idx))
        self._succeeded.append(heads)

    # -- materialisation ----------------------------------------------

    def _record(self, index: int) -> SlotRecord:
        attempted = self._attempted[index]
        if attempted is None:
            return SlotRecord((), ())
        busy, att_idx = attempted
        attempted = busy[att_idx]
        succeeded = self._succeeded[index]
        if succeeded is None:
            succeeded_ids: Tuple[int, ...] = ()
        else:
            succeeded_ids = tuple(
                int(e) for e in self._request_links[succeeded]
            )
        return SlotRecord(
            tuple(int(e) for e in attempted), succeeded_ids
        )

    def __len__(self) -> int:
        return len(self._attempted)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("history index out of range")
        return self._record(index)

    def __iter__(self):
        for i in range(len(self)):
            yield self._record(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Sequence, LazySlotHistory)):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __add__(self, other):
        if isinstance(other, (list, LazySlotHistory)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, list):
            return list(other) + list(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"LazySlotHistory({len(self)} slots)"


@dataclass
class RunResult:
    """Outcome of running a static algorithm under a slot budget."""

    delivered: List[int] = field(default_factory=list)
    remaining: List[int] = field(default_factory=list)
    slots_used: int = 0
    #: A sequence of :class:`SlotRecord` — a plain list from the
    #: per-slot loops, a :class:`LazySlotHistory` from the fused run
    #: loop (records materialise on access).
    history: Optional[Sequence[SlotRecord]] = None

    @property
    def all_delivered(self) -> bool:
        """Whether every request was served."""
        return not self.remaining

    def merge_after(self, other: "RunResult") -> "RunResult":
        """Combine with a follow-up run executed on :attr:`remaining`.

        ``other``'s request indices must refer to the same original
        request sequence (the transformation re-runs on leftover
        indices, keeping identity).
        """
        history = None
        if self.history is not None and other.history is not None:
            history = self.history + other.history
        return RunResult(
            delivered=self.delivered + other.delivered,
            remaining=list(other.remaining),
            slots_used=self.slots_used + other.slots_used,
            history=history,
        )


@dataclass
class LengthBound:
    """Schedule length in the form ``f(m) * I + g(m, n)``."""

    multiplicative: Callable[[int], float]
    additive: Callable[[int, int], float]
    description: str = ""

    def f(self, m: int) -> float:
        """The multiplicative factor ``f(m)``."""
        return float(self.multiplicative(m))

    def g(self, m: int, n: int) -> float:
        """The additive term ``g(m, n)``."""
        return float(self.additive(m, n))

    def slots(self, m: int, measure: float, n: int) -> int:
        """Total budget ``ceil(f(m) * I + g(m, n))`` (at least 1)."""
        return max(1, math.ceil(self.f(m) * measure + self.g(m, n)))


def _flat_requests(requests: Sequence[int]) -> np.ndarray:
    """``requests`` as a 1-D array, as given (no integer cast yet)."""
    raw = np.asarray(requests)
    if raw.ndim != 1:
        raise SchedulingError(
            f"requests must be a flat sequence of link ids, got shape "
            f"{raw.shape}"
        )
    return raw


def _check_link_range(raw: np.ndarray, num_links: int) -> None:
    """Reject any request outside ``0..num_links - 1``.

    Checks the values as given (before any integer cast, so e.g. -0.9
    is rejected rather than truncated to 0), in negated in-range form
    so NaN — which fails both comparisons — is rejected too. The
    message names the first offending request.
    """
    out_of_range = ~((raw >= 0) & (raw < num_links))
    if out_of_range.any():
        index = int(np.flatnonzero(out_of_range)[0])
        raise SchedulingError(
            f"request {index} references link {raw[index]}, outside "
            f"0..{num_links - 1}"
        )


def busy_csr(
    requests: Sequence[int], num_links: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The :class:`LinkQueues` layout restricted to the busy links.

    Returns ``(order, busy, starts, ends)``: ``order`` holds the request
    indices grouped by link (FIFO within each group: one stable
    argsort), ``busy`` the distinct requested link ids (sorted), and
    ``starts``/``ends`` each busy link's group bounds in ``order``.
    Validation and messages are :class:`LinkQueues`'; the cost scales
    with the request count, not with ``num_links``. Integer input is
    range-checked at the ends of the sorted ids (the full check then
    only runs to name the offending request); any other dtype is
    checked as given before the cast, like :class:`LinkQueues`.
    """
    raw = _flat_requests(requests)
    integral = raw.dtype.kind in "iu"
    if not integral:
        _check_link_range(raw, num_links)
        raw = raw.astype(np.int64)
    order = raw.argsort(kind="stable")
    ids = raw.take(order)
    n = ids.size
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return order, empty, empty, empty
    if integral:
        if ids[0] < 0 or ids[n - 1] >= num_links:
            _check_link_range(raw, num_links)
        ids = ids.astype(np.int64, copy=False)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    starts = first.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    return order, ids.take(starts), starts, ends


class LinkQueues:
    """FIFO queues of request indices, one per link — array-native.

    The universal bookkeeping for slotted schedulers: requests are
    enqueued on their link; when a link transmits, the head request is
    in flight; on success it is popped.

    Storage is a CSR layout built with one stable argsort: ``_order``
    holds the request indices grouped by link (FIFO within each link —
    stable sort preserves arrival order), ``_starts`` the per-link
    group offsets, and ``_consumed`` how many of each link's requests
    have been served. Construction is O(n log n) of C-speed sort with
    no per-request Python loop (the old dict-of-deques enqueue loop
    dominated protocol-scale runs), a pop is O(1) index arithmetic,
    and a whole success set pops in one validated gather
    (:meth:`pop_heads`).
    """

    def __init__(self, requests: Sequence[int], num_links: int):
        raw = _flat_requests(requests)
        _check_link_range(raw, num_links)
        req = raw.astype(np.int64, copy=False)
        self._num_links = int(num_links)
        self._depths = np.bincount(req, minlength=num_links).astype(np.int64)
        self._order = np.argsort(req, kind="stable")
        self._starts = np.zeros(num_links + 1, dtype=np.int64)
        np.cumsum(
            self._depths, out=self._starts[1:]
        )
        self._consumed = np.zeros(num_links, dtype=np.int64)
        self._pending = int(req.size)

    @property
    def pending(self) -> int:
        """Total requests not yet served."""
        return self._pending

    def busy_links(self) -> List[int]:
        """Links with at least one pending request, sorted."""
        return np.flatnonzero(self._depths).tolist()

    def busy_array(self) -> np.ndarray:
        """Busy link ids as a sorted int64 array (fresh copy)."""
        return np.flatnonzero(self._depths)

    def depth_array(self) -> np.ndarray:
        """Per-link queue depths indexed by link id (fresh copy)."""
        return self._depths.copy()

    def depths_for(self, links: np.ndarray) -> np.ndarray:
        """Queue depths for the given link ids (fresh gathered copy)."""
        return self._depths[links]

    def queue_length(self, link_id: int) -> int:
        """Pending requests on one link (0 for unknown links)."""
        if not 0 <= link_id < self._num_links:
            return 0
        return int(self._depths[link_id])

    def head(self, link_id: int) -> int:
        """Request index at the head of a link's queue."""
        if not 0 <= link_id < self._num_links or self._depths[link_id] <= 0:
            raise SchedulingError(f"link {link_id} has no pending requests")
        return int(
            self._order[self._starts[link_id] + self._consumed[link_id]]
        )

    def pop(self, link_id: int) -> int:
        """Serve (remove and return) the head request of a link."""
        if not 0 <= link_id < self._num_links or self._depths[link_id] <= 0:
            raise SchedulingError(f"link {link_id} has no pending requests")
        index = self._order[self._starts[link_id] + self._consumed[link_id]]
        self._consumed[link_id] += 1
        self._depths[link_id] -= 1
        self._pending -= 1
        return int(index)

    def pop_heads(self, links: np.ndarray) -> np.ndarray:
        """Serve the head of every given link in one gather.

        ``links`` must be unique link ids, each with a pending request
        (a slot's successful busy links are both). Returns the request indices in the order of ``links``.
        """
        if links.size:
            if int(links.min()) < 0 or int(links.max()) >= self._num_links:
                bad = int(links.min()) if int(links.min()) < 0 else int(links.max())
                raise SchedulingError(
                    f"link {bad} has no pending requests"
                )
            if (self._depths[links] <= 0).any():
                bad = int(links[self._depths[links] <= 0][0])
                raise SchedulingError(f"link {bad} has no pending requests")
            if np.unique(links).size != links.size:
                # Fancy-index += applies once per unique link; a
                # duplicate would silently double-serve one head.
                raise SchedulingError(
                    "pop_heads requires unique link ids"
                )
        heads = self._order[self._starts[links] + self._consumed[links]]
        self._consumed[links] += 1
        self._depths[links] -= 1
        self._pending -= int(links.size)
        return heads

    def remaining_indices(self) -> List[int]:
        """All still-pending request indices, in link order then FIFO order."""
        out: List[int] = []
        for link_id in np.flatnonzero(self._depths).tolist():
            begin = self._starts[link_id] + self._consumed[link_id]
            end = self._starts[link_id + 1]
            out.extend(self._order[begin:end].tolist())
        return out


class StaticAlgorithm(ABC):
    """A slotted algorithm serving a fixed set of single-hop requests."""

    #: Human-readable name used in experiment tables.
    name: str = "static"

    @abstractmethod
    def run(
        self,
        model: InterferenceModel,
        requests: Sequence[int],
        budget: int,
        rng: RngLike = None,
        record_history: bool = False,
    ) -> RunResult:
        """Serve ``requests`` for at most ``budget`` slots."""

    @abstractmethod
    def budget_for(self, measure: float, n: int) -> int:
        """Slots this algorithm wants for measure ``measure``, ``n`` requests.

        Sized so that the run succeeds with high probability (the
        algorithm's advertised bound); the dynamic protocol treats
        requests left over after this budget as *failed*.
        """

    def network_bound(self, m: int) -> LengthBound:
        """The ``f(m) * I + g(m, n)`` bound, if the algorithm has one.

        Algorithms whose factor genuinely depends on ``n`` (the case
        Section 3 exists to fix) raise ``SchedulingError`` here; wrap
        them with :class:`repro.core.transform.TransformedAlgorithm`.
        """
        raise SchedulingError(
            f"{self.name} has no network-size length bound; apply the "
            "Section-3 transformation first"
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot of the scheduler's configuration.

        Static algorithms are stateless between ``run()`` calls — all
        per-run state lives inside ``run()`` — so the snapshot is the
        constructor configuration plus the algorithm name. Checkpoints
        store it as a compatibility check: resuming a run under a
        scheduler built with different parameters would silently diverge
        from the uninterrupted run.
        """
        return {"name": self.name}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Verify ``state`` matches this scheduler's configuration.

        Raises :class:`repro.errors.ConfigurationError` on mismatch.
        """
        from repro.errors import ConfigurationError

        current = self.state_dict()
        if dict(state) != current:
            raise ConfigurationError(
                f"scheduler state mismatch: checkpoint was written by "
                f"{state!r} but this scheduler is {current!r}"
            )

    # ------------------------------------------------------------------
    # Shared slot loop
    # ------------------------------------------------------------------

    def _finalise(
        self,
        queues: LinkQueues,
        delivered: List[int],
        slots_used: int,
        history: Optional[List[SlotRecord]],
    ) -> RunResult:
        return RunResult(
            delivered=delivered,
            remaining=queues.remaining_indices(),
            slots_used=slots_used,
            history=history,
        )

    @staticmethod
    def _transmit(
        model: InterferenceModel,
        queues: LinkQueues,
        transmitting: Sequence[int],
        delivered: List[int],
        history: Optional[List[SlotRecord]],
    ) -> Set[int]:
        """Run one slot: evaluate the model, serve heads of successful links."""
        successes = model.successes(transmitting) if transmitting else set()
        for link_id in sorted(successes):
            delivered.append(queues.pop(link_id))
        if history is not None:
            history.append(
                SlotRecord(tuple(sorted(transmitting)), tuple(sorted(successes)))
            )
        return successes


__all__ = [
    "StaticAlgorithm",
    "RunResult",
    "SlotRecord",
    "LazySlotHistory",
    "LengthBound",
    "LinkQueues",
    "busy_csr",
]
