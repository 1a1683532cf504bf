"""The dynamic scheduling protocol (paper Section 4).

Time is divided into frames of length ``T``. Within a frame:

* **Phase 1** (budget ``T' = f(m) J + g(m, mJ)``): the static algorithm
  runs on the *next hop* of every active (never-failed) packet that was
  injected before the frame started. Packets whose hop completes move
  on (one hop per frame — an unfailed packet of path length ``d`` is
  delivered after ``d`` frames). Packets whose hop does not complete —
  whether because the frame was over-loaded (``I > J``) or because the
  algorithm's internal randomness failed — become *failed* and are
  parked in the failed buffer of the link they were about to cross.
* **Clean-up phase** (the remaining ``T - T'`` slots): every link with a
  non-empty failed buffer independently offers, with probability
  ``1/m``, its longest-failed packet; the static algorithm runs once on
  the offered set with the singleton budget ``f(m) + g(m, mJ)``.
  Served packets advance one hop (moving to the next link's buffer, or
  out of the system); unserved ones stay put. Lemma 6's ``1/(2em)``
  drain floor is exactly this lottery.

Packets injected *during* a frame join at the next frame boundary
(the paper's "waits for the next time frame to begin").

Stability (Theorem 3) and the ``O(d T)`` latency bound (Theorem 8) are
properties of this loop; the benchmarks validate both empirically. The
``cleanup_enabled=False`` switch implements the A1 ablation (failed
packets simply retry in later phase-1 executions), demonstrating why
the two-phase design exists.

Packet state lives in a :class:`~repro.injection.store.PacketStore`
shared with the injection process: ``run_frame`` takes store
*indices*, the phase-1 request vector is one CSR gather, hop
advancement / delivery detection / potential updates are array ops,
and failed buffers hold int indices. A protocol built without
``store=`` is bound to its injection's store by
:class:`~repro.sim.engine.FrameSimulation` before frame 0.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.frames import FrameParameters, compute_frame_parameters
from repro.core.potential import PotentialTracker
from repro.core.steps import AlgorithmCall, drive_steps
from repro.errors import ConfigurationError, SchedulingError
from repro.injection.store import PacketSequence, PacketStore, PacketView
from repro.interference.base import InterferenceModel
from repro.sim.trace import EventKind, Tracer
from repro.staticsched.base import StaticAlgorithm
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class FrameReport:
    """Per-frame accounting emitted by :meth:`DynamicProtocol.run_frame`."""

    frame: int
    injected: int
    phase1_requests: int
    phase1_hops: int
    newly_failed: int
    cleanup_offered: int
    cleanup_hops: int
    delivered_packets: int
    active_in_system: int
    failed_in_system: int
    potential: int


class DynamicProtocol:
    """The Section-4 frame protocol over any interference model.

    Parameters
    ----------
    model:
        Ground-truth interference model (provides ``W`` and successes).
    algorithm:
        A static algorithm exposing an ``f(m) I + g(m, n)`` bound via
        ``network_bound`` (wrap raw algorithms with
        :class:`~repro.core.transform.TransformedAlgorithm` first).
    rate:
        The injection rate ``lambda`` the protocol is provisioned for;
        must be below ``1/f(m)``.
    params:
        Pre-computed :class:`~repro.core.frames.FrameParameters`;
        overrides ``rate``-based sizing when given.
    t_scale:
        Scale on the paper's frame-length constants (see
        :mod:`repro.core.frames`).
    cleanup_enabled:
        Disable for the A1 ablation.
    cleanup_probability:
        The per-link lottery probability; the paper's value is ``1/m``
        (the default).
    tracer:
        Optional :class:`~repro.sim.trace.Tracer`; when given the
        protocol emits per-packet events (activation, hops, failures,
        clean-up, delivery). ``None`` (default) skips all tracing work.
    store:
        The :class:`~repro.injection.store.PacketStore` the injection
        process allocates into; ``run_frame`` takes indices into it.
        ``None`` means "not given":
        :class:`~repro.sim.engine.FrameSimulation` binds the
        injection's store before frame 0, and ``run_frame`` on a
        protocol that is still unbound raises.
    """

    def __init__(
        self,
        model: InterferenceModel,
        algorithm: StaticAlgorithm,
        rate: float,
        params: Optional[FrameParameters] = None,
        t_scale: float = 1.0,
        cleanup_enabled: bool = True,
        cleanup_probability: Optional[float] = None,
        rng: RngLike = None,
        tracer: Optional[Tracer] = None,
        store: Optional[PacketStore] = None,
    ):
        self._model = model
        self._algorithm = algorithm
        self._m = model.network.size_m
        if params is None:
            params = compute_frame_parameters(
                algorithm, self._m, rate, t_scale=t_scale
            )
        self._params = params
        if cleanup_probability is None:
            cleanup_probability = 1.0 / self._m
        if not 0.0 < cleanup_probability <= 1.0:
            raise ConfigurationError(
                f"cleanup_probability must be in (0, 1], got {cleanup_probability}"
            )
        self._cleanup_probability = cleanup_probability
        self._cleanup_enabled = bool(cleanup_enabled)
        self._rng = ensure_rng(rng)
        self._tracer = tracer
        self._store = store

        self._frame_index = 0
        # The active set is an int64 index array, failed buffers hold
        # int indices, and delivery is a growing index list.
        self._active_idx = np.empty(0, dtype=np.int64)
        self._failed_buffers: Dict[int, Deque[int]] = {}
        self._delivered_ids: List[int] = []
        # Summarize-and-release bookkeeping (streaming metrics): count
        # of delivered packets already handed out via take_delivered,
        # and how many store rows are reclaimable by compact_store.
        self._released_delivered = 0
        self._pending_reclaim = 0
        self.potential = PotentialTracker()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def params(self) -> FrameParameters:
        return self._params

    @property
    def frame_index(self) -> int:
        """Index of the next frame to run."""
        return self._frame_index

    @property
    def frame_length(self) -> int:
        return self._params.frame_length

    @property
    def store(self) -> Optional[PacketStore]:
        """The packet store (``None`` until one is bound)."""
        return self._store

    def bind_store(self, store: PacketStore) -> None:
        """Adopt ``store`` — the injection's — when built without one.

        :class:`~repro.sim.engine.FrameSimulation` calls this before
        frame 0. A protocol already holding a different store refuses:
        fed by that injection it would crash — or worse, reinterpret
        foreign packets — on the first non-empty frame.
        """
        if self._store is not None and self._store is not store:
            raise ConfigurationError(
                "protocol holds a PacketStore the injection process "
                "does not share; pass store=injection.store when "
                "building the protocol, or leave store= out"
            )
        self._store = store

    def _require_store(self) -> PacketStore:
        """The bound store; raises when there is none yet."""
        if self._store is None:
            raise ConfigurationError(
                "protocol has no PacketStore: pass store= (the injection "
                "process's store), or run it through FrameSimulation, "
                "which binds one"
            )
        return self._store

    @property
    def active_count(self) -> int:
        """Never-failed packets currently in flight."""
        return int(self._active_idx.size)

    @property
    def failed_count(self) -> int:
        """Packets sitting in failed buffers."""
        return sum(len(buffer) for buffer in self._failed_buffers.values())

    @property
    def packets_in_system(self) -> int:
        """All undelivered packets the protocol knows about."""
        return self.active_count + self.failed_count

    @property
    def delivered(self) -> PacketSequence:
        """Delivered packets, as a lazy
        :class:`~repro.injection.store.PacketSequence` (read-only)."""
        return PacketSequence(self._store, self._delivered_ids)

    @property
    def delivered_total(self) -> int:
        """Count of every packet delivered so far, including packets
        already summarised and released via :meth:`take_delivered`.

        Equals ``len(self.delivered)`` unless a streaming-metrics
        engine has been releasing delivered packets.
        """
        return self._released_delivered + len(self._delivered_ids)

    def take_delivered(self) -> np.ndarray:
        """Hand out (and forget) the pending delivered packet indices.

        The caller is expected to fold the packets'
        latency statistics into a bounded summary; afterwards
        :meth:`compact_store` may reclaim their store rows.
        ``delivered_total`` keeps counting them; ``delivered`` no
        longer contains them.
        """
        indices = np.asarray(self._delivered_ids, dtype=np.int64)
        self._delivered_ids = []
        self._released_delivered += int(indices.size)
        self._pending_reclaim += int(indices.size)
        return indices

    def compact_store(self) -> None:
        """Drop released packets' rows from the store.

        Keeps exactly the live set — active packets, failed-buffer
        contents, and delivered-but-not-yet-released packets — and
        remaps every retained index. The remap is order-preserving
        (``np.searchsorted`` against the sorted keep set is monotone),
        so the (failed_at_frame, id) buffer keys, the phase-1 filing
        argsort, and the RNG consumption pattern are all unchanged:
        a compacted run's physics is bit-identical to an uncompacted
        one. No-op when nothing was released, or when a tracer is
        attached (trace events refer to packets by store index).
        """
        if self._tracer is not None or self._pending_reclaim == 0:
            return
        parts = [self._active_idx]
        for buffer in self._failed_buffers.values():
            if buffer:
                parts.append(
                    np.fromiter(buffer, dtype=np.int64, count=len(buffer))
                )
        if self._delivered_ids:
            parts.append(np.asarray(self._delivered_ids, dtype=np.int64))
        keep = np.sort(np.concatenate(parts))
        self._store.compact(keep)
        self._active_idx = np.searchsorted(keep, self._active_idx).astype(
            np.int64
        )
        for link, buffer in self._failed_buffers.items():
            if buffer:
                old = np.fromiter(buffer, dtype=np.int64, count=len(buffer))
                self._failed_buffers[link] = deque(
                    np.searchsorted(keep, old).tolist()
                )
        if self._delivered_ids:
            old = np.asarray(self._delivered_ids, dtype=np.int64)
            self._delivered_ids = np.searchsorted(keep, old).tolist()
        self._pending_reclaim = 0

    def failed_buffer_sizes(self) -> Dict[int, int]:
        """Current per-link failed-buffer occupancy (non-empty links)."""
        return {
            link: len(buffer)
            for link, buffer in self._failed_buffers.items()
            if buffer
        }

    @property
    def model(self) -> InterferenceModel:
        return self._model

    @property
    def algorithm(self) -> StaticAlgorithm:
        return self._algorithm

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def state_dict(self, copy: bool = True) -> dict:
        """Snapshot of all mutable protocol state at a frame boundary.

        Failed buffers are flattened CSR-style (sorted link ids,
        offsets, concatenated FIFO contents) so the whole snapshot is
        arrays plus plain scalars. ``copy=False`` lets the snapshot
        alias live arrays (serialize it before the protocol runs again).
        """
        buffers = sorted(
            (link, buffer)
            for link, buffer in self._failed_buffers.items()
            if buffer
        )
        counts = [len(buffer) for _, buffer in buffers]
        offsets = np.zeros(len(buffers) + 1, dtype=np.int64)
        if buffers:
            np.cumsum(counts, out=offsets[1:])
            contents = np.fromiter(
                itertools.chain.from_iterable(b for _, b in buffers),
                dtype=np.int64,
                count=int(offsets[-1]),
            )
        else:
            contents = np.empty(0, dtype=np.int64)
        return {
            "frame_index": self._frame_index,
            "rng": self._rng.bit_generator.state,
            "active_idx": (
                self._active_idx.copy() if copy else self._active_idx
            ),
            "failed_links": np.asarray(
                [link for link, _ in buffers], dtype=np.int64
            ),
            "failed_offsets": offsets,
            "failed_contents": contents,
            "delivered_ids": np.asarray(self._delivered_ids, dtype=np.int64),
            "released_delivered": self._released_delivered,
            "potential": self.potential.state_dict(),
            "algorithm": self._algorithm.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The algorithm entry is a compatibility check (the scheduler is
        stateless, but resuming under different parameters would
        diverge); everything else replaces the protocol's mutable state.
        """
        from repro.utils.rng import restore_generator_state

        try:
            frame_index = int(state["frame_index"])
            active_idx = np.asarray(state["active_idx"], dtype=np.int64)
            links = np.asarray(state["failed_links"], dtype=np.int64)
            offsets = np.asarray(state["failed_offsets"], dtype=np.int64)
            contents = np.asarray(state["failed_contents"], dtype=np.int64)
            delivered = np.asarray(state["delivered_ids"], dtype=np.int64)
            # Pre-streaming checkpoints carry no release counter.
            released = int(state.get("released_delivered", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid protocol state: {exc}") from exc
        if released < 0:
            raise ConfigurationError(
                f"protocol state released_delivered must be >= 0, "
                f"got {released}"
            )
        if offsets.size != links.size + 1 or (
            offsets.size and offsets[-1] != contents.size
        ):
            raise ConfigurationError(
                "protocol state failed-buffer CSR is inconsistent: "
                f"{links.size} links, {offsets.size} offsets, "
                f"{contents.size} entries"
            )
        self._algorithm.load_state_dict(state.get("algorithm", {}))
        self._frame_index = frame_index
        restore_generator_state(self._rng, state["rng"])
        self._active_idx = active_idx
        self._failed_buffers = {
            int(link): deque(
                int(p) for p in contents[offsets[k] : offsets[k + 1]]
            )
            for k, link in enumerate(links)
        }
        self._delivered_ids = [int(p) for p in delivered]
        self._released_delivered = released
        # Compaction is a memory optimisation with no physics effect;
        # the next release cycle reclaims whatever is pending.
        self._pending_reclaim = 0
        self.potential.load_state_dict(state["potential"])

    # ------------------------------------------------------------------
    # The frame loop
    # ------------------------------------------------------------------

    def run_frame(self, injected) -> FrameReport:
        """Execute one frame; ``injected`` arrived during this frame.

        ``injected`` holds store indices: an integer array, a list of
        ints, or views over the protocol's store.
        """
        return drive_steps(self.run_frame_steps(injected))

    def run_frame_steps(self, injected):
        """Generator form of :meth:`run_frame` (see :mod:`repro.core.steps`).

        Yields the frame's algorithm invocations (phase 1, then — after
        the clean-up lottery draws — the clean-up run) as
        :class:`~repro.core.steps.AlgorithmCall` items, receiving each
        ``RunResult`` back via ``send``; the generator's return value
        is the :class:`FrameReport`. All protocol-level randomness (the
        lottery) stays in here, in the exact stream position the
        synchronous path draws it.
        """
        self._require_store()
        frame = self._frame_index
        frame_end_slot = (frame + 1) * self._params.frame_length

        phase1_hops, newly_failed = yield from self._phase1_steps(
            frame, frame_end_slot
        )
        if self._cleanup_enabled:
            offered, cleanup_hops = yield from self._cleanup_steps(
                frame, frame_end_slot
            )
        else:
            offered, cleanup_hops = 0, 0

        # Packets injected during this frame activate at the next boundary.
        indices = self._coerce_indices(injected)
        if indices.size:
            self._validate_links()
            if self._active_idx.size:
                self._active_idx = np.concatenate([self._active_idx, indices])
            else:
                self._active_idx = indices
            if self._tracer is not None:
                store = self._store
                for index in indices.tolist():
                    self._tracer.record(
                        frame,
                        EventKind.ACTIVATED,
                        index,
                        store.current_link_of(index),
                    )

        self.potential.sample()
        self._frame_index += 1
        return FrameReport(
            frame=frame,
            injected=int(indices.size),
            phase1_requests=phase1_hops + newly_failed,
            phase1_hops=phase1_hops,
            newly_failed=newly_failed,
            cleanup_offered=offered,
            cleanup_hops=cleanup_hops,
            delivered_packets=self.delivered_total,
            active_in_system=self.active_count,
            failed_in_system=self.failed_count,
            potential=self.potential.value,
        )

    def _coerce_indices(self, injected) -> np.ndarray:
        if not isinstance(injected, np.ndarray):
            if len(injected) == 0:
                return np.empty(0, dtype=np.int64)
            if isinstance(injected[0], PacketView):
                for packet in injected:
                    if packet.store is not self._store:
                        raise SchedulingError(
                            f"packet {packet.id} belongs to a different "
                            "PacketStore than the protocol's"
                        )
                injected = [packet.index for packet in injected]
            injected = np.asarray(injected)
        if injected.size and injected.dtype.kind not in "iu":
            # A cast would truncate floats and read a boolean mask as
            # the indices 0/1, activating packets twice.
            raise SchedulingError(
                "injected packets must be integer store indices, got an "
                f"array of dtype {injected.dtype}"
            )
        indices = injected.astype(np.int64, copy=False)
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= len(self._store)
        ):
            raise SchedulingError(
                "injected indices fall outside the protocol's PacketStore "
                f"(size {len(self._store)})"
            )
        return indices

    def _validate_links(self) -> None:
        bounds = self._store.link_id_bounds()
        if bounds is None:
            return
        low, high = bounds
        if low < 0 or high >= self._model.num_links:
            raise SchedulingError(
                "packet store references unknown link "
                f"{low if low < 0 else high} (links are "
                f"0..{self._model.num_links - 1})"
            )

    def _phase1_steps(self, frame: int, frame_end_slot: int):
        active = self._active_idx
        if active.size == 0:
            return 0, 0
        store = self._store
        # Phase-1 request vector: one CSR gather over the active set.
        requests = store.current_links(active)
        result = yield AlgorithmCall(
            self._algorithm,
            self._model,
            requests,
            self._params.phase1_budget,
            self._rng,
        )
        served_mask = np.zeros(active.size, dtype=bool)
        if result.delivered:
            served_mask[np.asarray(result.delivered, dtype=np.int64)] = True
        served = active[served_mask]
        failed = active[~served_mask]
        hops = int(served.size)

        done = store.advance_hops(served, frame_end_slot)
        delivered_now = served[done]

        if failed.size:
            remaining = store.remaining_hops(failed)
            if (remaining <= 0).any():
                bad = int(failed[remaining <= 0][0])
                raise SchedulingError(
                    f"packet {bad} failed with no remaining hops"
                )
            store.mark_failed(failed, frame)
            self.potential.on_failures(int(remaining.sum()), int(failed.size))
            # Failed packets park on the link they were about to cross
            # (their hop did not advance, so it is their request link).
            # File in id order: every same-frame key (frame, id) then
            # lands behind the buffer tail (frames ascend across
            # calls), so filing is pure O(1) appends. The active set
            # itself is NOT id-ordered (frame batches sort by
            # (injected_at, id)), hence the explicit argsort.
            failed_links = requests[~served_mask]
            order = np.argsort(failed)
            buffers = self._failed_buffers
            for index, link in zip(
                failed[order].tolist(), failed_links[order].tolist()
            ):
                buffer = buffers.get(link)
                if buffer is None:
                    buffer = buffers[link] = deque()
                buffer.append(index)

        if self._tracer is not None:
            self._emit_phase1_events(
                frame, active, requests, served_mask, served, done
            )

        if delivered_now.size:
            self._delivered_ids.extend(delivered_now.tolist())
        self._active_idx = served[~done]
        return hops, int(failed.size)

    def _emit_phase1_events(
        self, frame, active, requests, served_mask, served, done
    ):
        """Per-packet trace events, in active-set order."""
        delivered_full = np.zeros(active.size, dtype=bool)
        delivered_full[np.flatnonzero(served_mask)[done]] = True
        record = self._tracer.record
        for position in range(active.size):
            index = int(active[position])
            link = int(requests[position])
            if served_mask[position]:
                record(frame, EventKind.PHASE1_HOP, index, link)
                if delivered_full[position]:
                    record(frame, EventKind.DELIVERED, index, link)
            else:
                record(frame, EventKind.FAILED, index, link)

    def _cleanup_steps(self, frame: int, frame_end_slot: int):
        store = self._store
        offered: List[int] = []
        for link_id in sorted(self._failed_buffers):
            buffer = self._failed_buffers[link_id]
            if buffer and self._rng.random() < self._cleanup_probability:
                offered.append(buffer[0])
                if self._tracer is not None:
                    self._tracer.record(
                        frame, EventKind.CLEANUP_OFFERED, buffer[0], link_id
                    )
        if not offered:
            return 0, 0
        requests = store.current_links(np.asarray(offered, dtype=np.int64))
        result = yield AlgorithmCall(
            self._algorithm,
            self._model,
            requests,
            self._params.cleanup_budget,
            self._rng,
        )
        served = [(offered[k], int(requests[k])) for k in result.delivered]
        # Pop every served packet before any advances: a packet whose
        # next hop lands on another offered link must not displace that
        # link's (already-served) head between its pop and ours.
        for index, link in served:
            buffer = self._failed_buffers.get(link)
            if not buffer or buffer[0] != index:
                raise SchedulingError(
                    f"packet {index} is not at the head of its failed buffer"
                )
            buffer.popleft()
        hops = 0
        for index, link in served:
            self.potential.on_cleanup_hop()
            hops += 1
            if self._tracer is not None:
                self._tracer.record(frame, EventKind.CLEANUP_HOP, index, link)
            if store.advance_one(index, frame_end_slot):
                self._delivered_ids.append(index)
                if self._tracer is not None:
                    self._tracer.record(
                        frame, EventKind.DELIVERED, index, link
                    )
            else:
                self._push_failed(index)
        return len(offered), hops

    def _push_failed(self, index: int) -> None:
        """File a clean-up survivor in its next link's failed buffer,
        ordered by (failure frame, id) so the head stays the
        longest-failed packet.

        The survivor keeps its *original* failure frame, so it can be
        older than everything queued on its new link (prepend) or fall
        among mixed failure frames (one ordered insert; ids make keys
        unique, so the order is total).
        """
        store = self._store
        link = store.current_link_of(index)
        buffer = self._failed_buffers.setdefault(link, deque())
        failed_at = store.failed_at_frame

        def key(i: int) -> Tuple[int, int]:
            return (int(failed_at[i]), i)

        if not buffer or key(index) > key(buffer[-1]):
            buffer.append(index)
        elif key(index) < key(buffer[0]):
            buffer.appendleft(index)
        else:
            bisect.insort(buffer, index, key=key)


__all__ = ["DynamicProtocol", "FrameReport"]
