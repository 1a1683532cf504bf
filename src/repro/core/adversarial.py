"""The Section-5 random-shift wrapper for adversarial injection.

A window adversary can release an entire window budget in one slot; the
stochastic analysis of Section 4 breaks because the per-frame Chernoff
bound (Claim 5) needs independent, spread-out arrivals. The paper's
fix (after Scheideler-Voecking): at injection every packet draws a
uniform delay of ``delta in {0, ..., delta_max - 1}`` frames with
``delta_max = ceil(2 (D + w)/eps)``, waits out the delay at its source,
and is then treated exactly like a stochastically injected packet — by
a protocol provisioned for the slightly higher rate
``lambda' = (1 - eps/2)/f(m)``.

Theorem 11: after the shift, the per-frame arrival measure is a sum of
negatively associated indicators with mean ``<= lambda' T``, so every
bound of Section 4 goes through; queues stay bounded and the expected
latency is ``O(D w T / eps)`` (the protocol latency plus the expected
shift).

``shift_enabled=False`` is the A3 ablation: bursts hit a frame head-on
and phase-1 overload failures spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.frames import FrameParameters, compute_frame_parameters, epsilon_for_rate
from repro.core.protocol import DynamicProtocol, FrameReport
from repro.errors import ConfigurationError
from repro.injection.store import PacketSequence, PacketStore
from repro.interference.base import InterferenceModel
from repro.sim.trace import EventKind, Tracer
from repro.staticsched.base import StaticAlgorithm
from repro.utils.rng import RngLike, ensure_rng


class ShiftedDynamicProtocol:
    """Random-delay front-end over :class:`DynamicProtocol`.

    Parameters
    ----------
    model, algorithm:
        As for :class:`DynamicProtocol`.
    rate:
        The adversary's rate ``lambda`` (must satisfy
        ``lambda < 1/f(m)``; the inner protocol is provisioned at
        ``lambda' = (1 - eps/2)/f(m)``).
    window:
        The adversary's window length ``w`` in slots.
    delta_max:
        Override for the shift range (in frames); defaults to the
        paper's ``ceil(2 (D + w_frames)/eps)`` where ``w_frames`` is
        the window expressed in frames (at least 1).
    params:
        Hand-built :class:`~repro.core.frames.FrameParameters` for the
        inner protocol (tight-provisioning experiments); its
        ``epsilon`` then also sizes the shift range.
    shift_enabled:
        Disable for the A3 ablation (packets forward immediately).
    tracer:
        Optional :class:`~repro.sim.trace.Tracer`, shared with the
        inner protocol; the wrapper adds HELD/RELEASED events around
        the inner protocol's packet lifecycle.
    store:
        Optional :class:`~repro.injection.store.PacketStore`; forwarded
        to the inner protocol (``None``: bound by
        :class:`~repro.sim.engine.FrameSimulation`). ``run_frame``
        takes store indices and the held buffers hold int indices.
    """

    def __init__(
        self,
        model: InterferenceModel,
        algorithm: StaticAlgorithm,
        rate: float,
        window: int,
        delta_max: Optional[int] = None,
        params: Optional[FrameParameters] = None,
        t_scale: float = 1.0,
        shift_enabled: bool = True,
        rng: RngLike = None,
        tracer: Optional[Tracer] = None,
        store: Optional[PacketStore] = None,
    ):
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self._rng = ensure_rng(rng)
        m = model.network.size_m
        if params is not None:
            # Hand-built frames (experiments with tight provisioning):
            # reuse their epsilon for the shift range.
            eps = params.epsilon
            inner_rate = params.rate
        else:
            bound = algorithm.network_bound(m)
            f_m = max(bound.f(m), 1e-9)
            eps = epsilon_for_rate(rate, f_m)
            # Inner protocol provisioned for lambda' = (1 - eps/2)/f(m).
            inner_rate = (1.0 - eps / 2.0) / f_m
        self._inner = DynamicProtocol(
            model,
            algorithm,
            inner_rate,
            params=params,
            t_scale=t_scale,
            rng=self._rng,
            tracer=tracer,
            store=store,
        )
        self._tracer = tracer
        depth = model.network.max_path_length
        window_frames = max(1, math.ceil(window / self._inner.frame_length))
        if delta_max is None:
            delta_max = math.ceil(2.0 * (depth + window_frames) / eps)
        if delta_max < 1:
            raise ConfigurationError(f"delta_max must be >= 1, got {delta_max}")
        self._delta_max = int(delta_max)
        self._shift_enabled = bool(shift_enabled)
        self._held: Dict[int, List[int]] = {}
        self._epsilon = eps

    # ------------------------------------------------------------------

    @property
    def inner(self) -> DynamicProtocol:
        """The wrapped stochastic-model protocol."""
        return self._inner

    @property
    def store(self) -> Optional[PacketStore]:
        """The inner protocol's packet store (``None`` until bound)."""
        return self._inner.store

    def bind_store(self, store: PacketStore) -> None:
        """Bind the inner protocol to ``store`` (see
        :meth:`DynamicProtocol.bind_store`)."""
        self._inner.bind_store(store)

    @property
    def delta_max(self) -> int:
        """The shift range in frames."""
        return self._delta_max

    @property
    def frame_length(self) -> int:
        return self._inner.frame_length

    @property
    def held_count(self) -> int:
        """Packets still waiting out their shift delay."""
        return sum(len(batch) for batch in self._held.values())

    @property
    def packets_in_system(self) -> int:
        """Held + active + failed."""
        return self.held_count + self._inner.packets_in_system

    @property
    def delivered(self) -> PacketSequence:
        return self._inner.delivered

    @property
    def delivered_total(self) -> int:
        """Delivered count including any released packets.

        The wrapper deliberately exposes no ``take_delivered`` /
        ``compact_store`` — it holds store indices across frames in
        ``_held``, which compaction would invalidate — so streaming
        engines keep the delivered set whole here.
        """
        return self._inner.delivered_total

    def run_frame(self, injected) -> FrameReport:
        """Delay-shift the new packets, release the due ones, run a frame.

        ``injected`` holds store indices (as for
        :meth:`DynamicProtocol.run_frame`). Each packet draws its delay
        with one scalar ``integers`` call, in injection order.
        """
        self._inner._require_store()
        frame = self._inner.frame_index
        for index in self._inner._coerce_indices(injected).tolist():
            if self._shift_enabled:
                delay = int(self._rng.integers(self._delta_max))
            else:
                delay = 0
            self._held.setdefault(frame + delay, []).append(index)
            if self._tracer is not None and delay > 0:
                self._tracer.record(frame, EventKind.HELD, index)
        due = self._held.pop(frame, [])
        if self._tracer is not None:
            for index in due:
                self._tracer.record(frame, EventKind.RELEASED, index)
        return self._inner.run_frame(np.asarray(due, dtype=np.int64))


__all__ = ["ShiftedDynamicProtocol"]
