"""The injection-process interface.

An injection process emits the packets injected in each slot: the
frame engine asks for a whole frame at once with
``indices_for_range(start, end)``, and ``indices_for_slot(t)`` returns
one slot's packets (possibly none). Processes are deterministic
functions of their seed, and slots must be queried in increasing order
(the engine does), though repeated queries for the same slot are
allowed and cached for the adversaries that precompute windows.

A process implements either hook. The default ``indices_for_range``
loops over ``indices_for_slot``; processes that sample a range
directly (the stochastic model, Markov ON/OFF injection) override it,
and Markov injection answers a single slot as a range of length one.

Every process emits into a :class:`~repro.injection.store.PacketStore`
(its own by default, or a shared one passed at construction): emission
allocates struct-of-arrays rows and returns their store indices, which
*are* the packet ids. The frame engine feeds index arrays straight to
the protocol and never materialises packet objects; the
``packets_for_*`` methods wrap the same indices as lazy
:class:`~repro.injection.store.PacketView` objects for callers that
want to inspect packets one by one.
"""

from __future__ import annotations

from abc import ABC
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.injection.store import PacketStore, PacketView


class InjectionProcess(ABC):
    """Produces the packets injected at each slot."""

    def __init__(self, store: Optional[PacketStore] = None):
        cls = type(self)
        if (
            cls.indices_for_slot is InjectionProcess.indices_for_slot
            and cls.indices_for_range is InjectionProcess.indices_for_range
        ):
            # No emission hook is overridden: fail at construction.
            raise TypeError(f"{cls.__name__} must implement indices_for_slot")
        self._store = store if store is not None else PacketStore()

    @property
    def store(self) -> PacketStore:
        """The packet store this process allocates into."""
        return self._store

    def indices_for_slot(self, slot: int) -> Sequence[int]:
        """Store indices of the packets injected in slot ``slot``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement indices_for_slot"
        )

    def indices_for_range(self, start_slot: int, end_slot: int) -> np.ndarray:
        """Store indices injected in ``[start_slot, end_slot)`` as int64.

        The default iterates slots. Processes with cheap batch
        sampling override it: the stochastic model samples an
        equivalent distribution in one shot (only the per-frame
        multiset matters to the protocol), and Markov ON/OFF injection
        samples the exact per-slot draws.
        """
        out: List[int] = []
        for slot in range(start_slot, end_slot):
            out.extend(self.indices_for_slot(slot))
        return np.asarray(out, dtype=np.int64)

    def packets_for_slot(self, slot: int) -> List[PacketView]:
        """Packets injected in slot ``slot`` (fresh list, caller owns it)."""
        return self._store.views(self.indices_for_slot(slot))

    def packets_for_range(
        self, start_slot: int, end_slot: int
    ) -> List[PacketView]:
        """Packets injected in slots ``[start_slot, end_slot)``, as views."""
        return self._store.views(self.indices_for_range(start_slot, end_slot))

    def _allocate(self, path, slot: int) -> int:
        """Allocate a packet with the next sequential id; returns its index."""
        return self._store.allocate(path, slot)

    def stream(self, horizon: int) -> Iterator[List[PacketView]]:
        """Iterate packet batches for slots ``0 .. horizon-1``."""
        for slot in range(horizon):
            yield self.packets_for_slot(slot)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable snapshot of the process's mutable state.

        The built-in processes override this (their state is RNG
        streams plus, for the adversaries, cached window plans). The
        base implementation refuses: a process without explicit
        checkpoint support cannot guarantee resume parity.
        """
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"{type(self).__name__} does not support checkpointing "
            "(no state_dict)"
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"{type(self).__name__} does not support checkpointing "
            "(no load_state_dict)"
        )


__all__ = ["InjectionProcess"]
