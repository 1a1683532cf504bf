"""Struct-of-arrays packet state — the vectorized packet layer.

Every packet of a simulation is one row of a :class:`PacketStore`, so
protocol-level bookkeeping (request gathering, hop advancement,
failure filing) is array work instead of a Python attribute walk per
packet per frame. The store keeps parallel numpy arrays:

* ``injected_at`` / ``delivered_at`` / ``hops_done`` /
  ``failed_at_frame`` — one int64 entry per packet (``-1`` marks "not
  yet" for the latter two), plus a ``failed`` bool flag;
* CSR path storage — a flat ``path_links`` array plus ``offsets`` of
  length ``n + 1``; packet ``i``'s path is
  ``path_links[offsets[i] : offsets[i + 1]]``.

Store indices double as packet ids (injection processes allocate
sequentially). The protocol's hot loops operate on index arrays; every
per-packet query is one gather, e.g. the phase-1 request vector is
``path_links[offsets[idx] + hops_done[idx]]``.

For inspection every packet remains addressable as an object:
:meth:`PacketStore.view` returns a :class:`PacketView`, a lazy
read-only proxy (id, path, stamps, hop progress, latency), and
:class:`PacketSequence` wraps an index list as a lazy
``Sequence[PacketView]`` (what ``protocol.delivered`` returns).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TopologyError

_NOT_YET = -1


class PacketStore:
    """Growable struct-of-arrays packet state shared by injection and
    protocol layers.

    One store per simulation: injection processes allocate packets into
    it (the allocation order defines packet ids) and the dynamic
    protocol mutates hop/delivery/failure state through it.
    """

    def __init__(self, capacity: int = 1024, path_capacity: int = 4096):
        capacity = max(1, int(capacity))
        path_capacity = max(1, int(path_capacity))
        self._n = 0
        self._path_used = 0
        self._injected_at = np.zeros(capacity, dtype=np.int64)
        self._delivered_at = np.full(capacity, _NOT_YET, dtype=np.int64)
        self._hops_done = np.zeros(capacity, dtype=np.int64)
        self._failed_at_frame = np.full(capacity, _NOT_YET, dtype=np.int64)
        self._failed = np.zeros(capacity, dtype=bool)
        self._offsets = np.zeros(capacity + 1, dtype=np.int64)
        self._path_links = np.zeros(path_capacity, dtype=np.int64)
        self._min_link = None
        self._max_link = None

    # ------------------------------------------------------------------
    # Size and growth
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def size(self) -> int:
        """Packets allocated so far (also the next packet id)."""
        return self._n

    def _grow_packets(self, needed: int) -> None:
        capacity = self._injected_at.size
        if self._n + needed <= capacity:
            return
        new = max(capacity * 2, self._n + needed)
        for name in (
            "_injected_at",
            "_delivered_at",
            "_hops_done",
            "_failed_at_frame",
            "_failed",
        ):
            old = getattr(self, name)
            fill = _NOT_YET if name in ("_delivered_at", "_failed_at_frame") else 0
            grown = np.full(new, fill, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)
        offsets = np.zeros(new + 1, dtype=np.int64)
        offsets[: self._n + 1] = self._offsets[: self._n + 1]
        self._offsets = offsets

    def _grow_paths(self, needed: int) -> None:
        capacity = self._path_links.size
        if self._path_used + needed <= capacity:
            return
        new = max(capacity * 2, self._path_used + needed)
        grown = np.zeros(new, dtype=np.int64)
        grown[: self._path_used] = self._path_links[: self._path_used]
        self._path_links = grown

    # ------------------------------------------------------------------
    # Allocation (injection side)
    # ------------------------------------------------------------------

    def allocate(self, path: Sequence[int], injected_at: int) -> int:
        """Append one packet; returns its index (== packet id)."""
        links = np.asarray(path, dtype=np.int64)
        if links.ndim != 1 or links.size == 0:
            raise TopologyError(
                f"packet {self._n} has an empty path"
            )
        self._grow_packets(1)
        self._grow_paths(links.size)
        index = self._n
        start = self._path_used
        self._path_links[start : start + links.size] = links
        self._path_used = start + links.size
        self._offsets[index + 1] = self._path_used
        self._injected_at[index] = injected_at
        self._n = index + 1
        self._note_links(links)
        return index

    def allocate_flat(
        self,
        links_flat: np.ndarray,
        lengths: np.ndarray,
        injected_at: np.ndarray,
    ) -> np.ndarray:
        """Append many packets from pre-flattened CSR pieces.

        ``links_flat`` is the concatenation of every new packet's path,
        ``lengths`` the per-packet path lengths (so
        ``links_flat.size == lengths.sum()``), ``injected_at`` the
        per-packet slot stamps. One call allocates a whole frame's
        batch — equivalent to :meth:`allocate` per packet, in order.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        count = int(lengths.size)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if (lengths <= 0).any():
            raise TopologyError(f"packet {self._n} has an empty path")
        links_flat = np.asarray(links_flat, dtype=np.int64)
        total = int(links_flat.size)
        if total != int(lengths.sum()):
            raise TopologyError(
                f"flat path storage has {total} links but lengths sum to "
                f"{int(lengths.sum())}"
            )
        self._grow_packets(count)
        self._grow_paths(total)
        first = self._n
        start = self._path_used
        self._path_links[start : start + total] = links_flat
        self._path_used = start + total
        self._offsets[first + 1 : first + count + 1] = start + np.cumsum(
            lengths
        )
        self._injected_at[first : first + count] = injected_at
        self._n = first + count
        self._note_links(links_flat)
        return np.arange(first, first + count, dtype=np.int64)

    def _note_links(self, links: np.ndarray) -> None:
        low = int(links.min())
        high = int(links.max())
        if self._min_link is None or low < self._min_link:
            self._min_link = low
        if self._max_link is None or high > self._max_link:
            self._max_link = high

    def link_id_bounds(self) -> Optional[Tuple[int, int]]:
        """(min, max) link id over every stored path; ``None`` if empty."""
        if self._min_link is None:
            return None
        return (self._min_link, self._max_link)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def state_dict(self, copy: bool = True) -> dict:
        """Copies of the live (trimmed) arrays plus the scalar counters.

        ``copy=False`` returns the live trimmed views instead — cheaper
        for a caller that serializes the snapshot immediately, but the
        arrays alias the store and must not be kept across mutations.
        """
        arrays = {
            "injected_at": self.injected_at,
            "delivered_at": self.delivered_at,
            "hops_done": self.hops_done,
            "failed_at_frame": self.failed_at_frame,
            "failed": self.failed,
            "offsets": self.offsets,
            "path_links": self.path_links,
        }
        if copy:
            arrays = {key: value.copy() for key, value in arrays.items()}
        return {
            "n": self._n,
            "path_used": self._path_used,
            "min_link": self._min_link,
            "max_link": self._max_link,
            **arrays,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing all contents.

        Raises :class:`repro.errors.ConfigurationError` when the
        snapshot's arrays are inconsistent with its counters.
        """
        from repro.errors import ConfigurationError

        try:
            n = int(state["n"])
            path_used = int(state["path_used"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid store state: {exc}") from exc
        specs = {
            "injected_at": (np.int64, n),
            "delivered_at": (np.int64, n),
            "hops_done": (np.int64, n),
            "failed_at_frame": (np.int64, n),
            "failed": (np.bool_, n),
            "offsets": (np.int64, n + 1),
            "path_links": (np.int64, path_used),
        }
        arrays = {}
        for key, (dtype, size) in specs.items():
            if key not in state:
                raise ConfigurationError(f"store state is missing '{key}'")
            arr = np.asarray(state[key])
            if arr.ndim != 1 or arr.size != size or arr.dtype != np.dtype(dtype):
                raise ConfigurationError(
                    f"store state '{key}' must be a 1-d {np.dtype(dtype)} "
                    f"array of size {size}, got shape {arr.shape} dtype "
                    f"{arr.dtype}"
                )
            arrays[key] = arr
        capacity = max(1, n)
        self._n = n
        self._path_used = path_used
        for key in ("injected_at", "delivered_at", "hops_done", "failed_at_frame"):
            fill = _NOT_YET if key in ("delivered_at", "failed_at_frame") else 0
            backing = np.full(capacity, fill, dtype=np.int64)
            backing[:n] = arrays[key]
            setattr(self, "_" + key, backing)
        failed = np.zeros(capacity, dtype=bool)
        failed[:n] = arrays["failed"]
        self._failed = failed
        offsets = np.zeros(capacity + 1, dtype=np.int64)
        offsets[: n + 1] = arrays["offsets"]
        self._offsets = offsets
        path_links = np.zeros(max(1, path_used), dtype=np.int64)
        path_links[:path_used] = arrays["path_links"]
        self._path_links = path_links
        min_link = state.get("min_link")
        max_link = state.get("max_link")
        self._min_link = None if min_link is None else int(min_link)
        self._max_link = None if max_link is None else int(max_link)

    # ------------------------------------------------------------------
    # Compaction (summarize-and-release support)
    # ------------------------------------------------------------------

    def compact(self, keep: np.ndarray) -> None:
        """Retain exactly the packets in ``keep``, dropping the rest.

        ``keep`` must be a strictly increasing array of valid indices.
        Retained packet ``keep[j]`` becomes index ``j`` — the mapping
        is order-preserving, so callers can remap any held index arrays
        with ``np.searchsorted(keep, old)``. Link-id bounds are kept
        as-is (a conservative superset is fine for validation). The
        next allocation gets index ``len(keep)``.
        """
        from repro.errors import ConfigurationError

        keep = np.asarray(keep, dtype=np.int64)
        if keep.ndim != 1:
            raise ConfigurationError(
                f"compact keep set must be 1-d, got shape {keep.shape}"
            )
        k = int(keep.size)
        if k:
            if int(keep[0]) < 0 or int(keep[-1]) >= self._n:
                raise ConfigurationError(
                    f"compact keep set falls outside 0..{self._n - 1}"
                )
            if k > 1 and (np.diff(keep) <= 0).any():
                raise ConfigurationError(
                    "compact keep set must be strictly increasing"
                )
        lengths = self._offsets[keep + 1] - self._offsets[keep]
        total = int(lengths.sum())
        new_offsets = np.zeros(k + 1, dtype=np.int64)
        if k:
            np.cumsum(lengths, out=new_offsets[1:])
        capacity = max(1024, k)
        for name in ("_injected_at", "_delivered_at", "_hops_done",
                     "_failed_at_frame", "_failed"):
            old = getattr(self, name)
            fill = (
                _NOT_YET
                if name in ("_delivered_at", "_failed_at_frame")
                else 0
            )
            backing = np.full(capacity, fill, dtype=old.dtype)
            backing[:k] = old[keep]
            setattr(self, name, backing)
        offsets = np.zeros(capacity + 1, dtype=np.int64)
        offsets[: k + 1] = new_offsets
        path_capacity = max(4096, total)
        paths = np.zeros(path_capacity, dtype=np.int64)
        if total:
            # Gather every kept CSR row in one shot: for row j the
            # source positions are starts[j] + (0..lengths[j]-1).
            starts = self._offsets[keep]
            gather = (
                np.repeat(starts - new_offsets[:-1], lengths)
                + np.arange(total, dtype=np.int64)
            )
            paths[:total] = self._path_links[gather]
        self._offsets = offsets
        self._path_links = paths
        self._n = k
        self._path_used = total

    # ------------------------------------------------------------------
    # Array access (trimmed live views — re-fetch after allocations,
    # growth may reallocate the backing buffers)
    # ------------------------------------------------------------------

    @property
    def injected_at(self) -> np.ndarray:
        return self._injected_at[: self._n]

    @property
    def delivered_at(self) -> np.ndarray:
        return self._delivered_at[: self._n]

    @property
    def hops_done(self) -> np.ndarray:
        return self._hops_done[: self._n]

    @property
    def failed_at_frame(self) -> np.ndarray:
        return self._failed_at_frame[: self._n]

    @property
    def failed(self) -> np.ndarray:
        return self._failed[: self._n]

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets[: self._n + 1]

    @property
    def path_links(self) -> np.ndarray:
        return self._path_links[: self._path_used]

    # ------------------------------------------------------------------
    # Vectorized per-packet queries (the protocol hot path)
    # ------------------------------------------------------------------

    def path_lengths(self, indices: np.ndarray) -> np.ndarray:
        return self._offsets[indices + 1] - self._offsets[indices]

    def current_links(self, indices: np.ndarray) -> np.ndarray:
        """Next link to cross, for each index — one CSR gather."""
        return self._path_links[self._offsets[indices] + self._hops_done[indices]]

    def remaining_hops(self, indices: np.ndarray) -> np.ndarray:
        return self.path_lengths(indices) - self._hops_done[indices]

    def advance_hops(self, indices: np.ndarray, slot: int) -> np.ndarray:
        """Record one completed hop for each index.

        Returns the boolean "now delivered" mask aligned with
        ``indices``; delivered packets get ``delivered_at`` stamped with
        ``slot``.
        """
        hops = self._hops_done[indices] + 1
        self._hops_done[indices] = hops
        done = hops >= self.path_lengths(indices)
        if done.any():
            self._delivered_at[indices[done]] = slot
        return done

    def mark_failed(self, indices: np.ndarray, frame: int) -> None:
        """First phase-1 failure: flag and stamp the failure frame."""
        self._failed[indices] = True
        self._failed_at_frame[indices] = frame

    def advance_one(self, index: int, slot: int) -> bool:
        """Scalar :meth:`advance_hops` (the clean-up path serves few)."""
        hops = self._hops_done[index] + 1
        self._hops_done[index] = hops
        if hops >= self._offsets[index + 1] - self._offsets[index]:
            self._delivered_at[index] = slot
            return True
        return False

    def current_link_of(self, index: int) -> int:
        """Scalar :meth:`current_links`."""
        return int(
            self._path_links[self._offsets[index] + self._hops_done[index]]
        )

    def latencies(self, indices: np.ndarray) -> np.ndarray:
        """Delivery minus injection slot for delivered indices."""
        delivered = self._delivered_at[indices]
        if (delivered == _NOT_YET).any():
            bad = int(np.asarray(indices)[delivered == _NOT_YET][0])
            raise TopologyError(f"packet {bad} not delivered yet")
        return delivered - self._injected_at[indices]

    # ------------------------------------------------------------------
    # Per-packet views
    # ------------------------------------------------------------------

    def path_of(self, index: int) -> Tuple[int, ...]:
        start = self._offsets[index]
        end = self._offsets[index + 1]
        return tuple(int(e) for e in self._path_links[start:end])

    def view(self, index: int) -> "PacketView":
        """A lazy read-only :class:`PacketView` of one row."""
        return PacketView(self, int(index))

    def views(self, indices: Sequence[int]) -> List["PacketView"]:
        return [PacketView(self, int(i)) for i in indices]

    def sequence(self, indices) -> "PacketSequence":
        return PacketSequence(self, indices)


class PacketView:
    """Lazy read-only proxy over one :class:`PacketStore` row.

    Attribute reads gather from the arrays, so a view always shows the
    packet's current state; only the protocol mutates packets, through
    the store's array methods.
    """

    __slots__ = ("_store", "index")

    def __init__(self, store: PacketStore, index: int):
        self._store = store
        self.index = index

    # Identity -----------------------------------------------------------

    @property
    def store(self) -> PacketStore:
        """The backing store (consumers use it to check ownership)."""
        return self._store

    @property
    def id(self) -> int:
        return self.index

    @property
    def path(self) -> Tuple[int, ...]:
        return self._store.path_of(self.index)

    @property
    def injected_at(self) -> int:
        return int(self._store._injected_at[self.index])

    # Progress -----------------------------------------------------------

    @property
    def hops_done(self) -> int:
        return int(self._store._hops_done[self.index])

    @property
    def delivered_at(self) -> Optional[int]:
        value = int(self._store._delivered_at[self.index])
        return None if value == _NOT_YET else value

    @property
    def failed(self) -> bool:
        return bool(self._store._failed[self.index])

    @property
    def failed_at_frame(self) -> Optional[int]:
        value = int(self._store._failed_at_frame[self.index])
        return None if value == _NOT_YET else value

    # Derived queries ----------------------------------------------------

    @property
    def path_length(self) -> int:
        store = self._store
        return int(store._offsets[self.index + 1] - store._offsets[self.index])

    @property
    def current_link(self) -> int:
        if self.is_delivered:
            raise TopologyError(f"packet {self.index} already delivered")
        store = self._store
        return int(
            store._path_links[
                store._offsets[self.index] + store._hops_done[self.index]
            ]
        )

    @property
    def remaining_hops(self) -> int:
        return self.path_length - self.hops_done

    @property
    def is_delivered(self) -> bool:
        return self.hops_done >= self.path_length

    def latency(self) -> int:
        delivered = self.delivered_at
        if delivered is None:
            raise TopologyError(f"packet {self.index} not delivered yet")
        return delivered - self.injected_at

    def __repr__(self) -> str:
        return (
            f"PacketView(id={self.index}, path={self.path}, "
            f"injected_at={self.injected_at}, hops_done={self.hops_done})"
        )


class PacketSequence(Sequence):
    """Lazy ``Sequence[PacketView]`` over store indices.

    ``protocol.delivered`` returns one of these: ``len``
    is O(1), iteration materialises views on demand, and vector
    consumers (:class:`~repro.sim.metrics.LatencySummary`) read
    :attr:`indices` / :attr:`store` directly instead of looping.
    """

    __slots__ = ("_store", "_indices")

    def __init__(self, store: PacketStore, indices):
        self._store = store
        self._indices = indices

    @property
    def store(self) -> PacketStore:
        return self._store

    @property
    def indices(self) -> np.ndarray:
        return np.asarray(self._indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(
        self, key: Union[int, slice]
    ) -> Union["PacketView", List["PacketView"]]:
        if isinstance(key, slice):
            return [PacketView(self._store, int(i)) for i in self._indices[key]]
        return PacketView(self._store, int(self._indices[key]))

    def __iter__(self) -> Iterator["PacketView"]:
        store = self._store
        for index in self._indices:
            yield PacketView(store, int(index))


__all__ = ["PacketStore", "PacketView", "PacketSequence"]
