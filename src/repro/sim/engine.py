"""The frame-granular simulation loop.

Couples an :class:`~repro.injection.base.InjectionProcess` with a
protocol object and a :class:`~repro.sim.metrics.MetricsRecorder`. The
engine operates at frame granularity — justified because the protocol
activates packets only at frame boundaries, so the multiset of packets
injected within a frame fully determines the dynamics (injection-slot
stamps only feed latency bookkeeping).

The protocol is duck-typed; anything exposing

* ``frame_length`` (int),
* ``store`` / ``bind_store(store)``,
* ``run_frame(indices) -> FrameReport``-like (with ``injected``,
  ``active_in_system``, ``failed_in_system``, ``potential`` fields),
* ``packets_in_system`` and ``delivered_total``

works — both :class:`~repro.core.protocol.DynamicProtocol` and
:class:`~repro.core.adversarial.ShiftedDynamicProtocol` qualify.

The protocol and the injection process share one
:class:`~repro.injection.store.PacketStore`: construction calls
``protocol.bind_store(injection.store)``, which adopts the store for a
protocol built without ``store=`` and refuses a different one. The
engine feeds the protocol raw index arrays (``indices_for_range``) and
no packet objects are materialised anywhere in the loop.
"""

from __future__ import annotations

from repro.core.steps import drive_steps
from repro.errors import ConfigurationError
from repro.injection.base import InjectionProcess
from repro.sim.metrics import RETENTIONS, MetricsRecorder


class FrameSimulation:
    """Drive a protocol with an injection process, frame by frame.

    ``metrics`` selects the retention policy — ``"full"`` (default,
    whole-history series, byte-identical to the historical engine) or
    ``"streaming"`` (bounded memory: series fold into O(1) accumulators
    and delivered packets are summarised and released every
    ``release_interval`` frames so the store stays bounded too). A
    pre-built :class:`MetricsRecorder` may be passed instead of a
    policy name to control window / interval / sketch parameters.
    """

    def __init__(
        self,
        protocol,
        injection: InjectionProcess,
        audit=None,
        metrics="full",
    ):
        if not hasattr(protocol, "run_frame"):
            raise ConfigurationError(
                f"{type(protocol).__name__} does not expose run_frame()"
            )
        self._protocol = protocol
        self._injection = injection
        self._audit = audit
        if isinstance(metrics, MetricsRecorder):
            self._metrics = metrics
        elif metrics in RETENTIONS:
            self._metrics = MetricsRecorder(retention=metrics)
        else:
            raise ConfigurationError(
                f"metrics must be one of {', '.join(RETENTIONS)} or a "
                f"MetricsRecorder, got {metrics!r}"
            )
        self._frame = 0
        protocol.bind_store(injection.store)

    @property
    def protocol(self):
        return self._protocol

    @property
    def injection(self) -> InjectionProcess:
        return self._injection

    @property
    def metrics(self) -> MetricsRecorder:
        return self._metrics

    @property
    def frames_run(self) -> int:
        return self._frame

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def state_dict(self, copy: bool = True) -> dict:
        """Snapshot of the whole simulation at the current frame boundary.

        The protocol runs each frame to completion, so between frames
        every layer is quiescent and the boundary is a natural
        checkpoint: restoring this snapshot and continuing is
        bit-identical to never having stopped, on every backend.
        Requires a protocol and an injection process with checkpoint
        support. ``copy=False`` lets the big array leaves alias live
        buffers — only for callers that serialize the snapshot before
        the simulation runs again.
        """
        state = {
            "frame": self._frame,
            "protocol": self._checkpoint_hook("state_dict")(copy=copy),
            "store": self._injection.store.state_dict(copy=copy),
            "injection": self._injection.state_dict(),
            "metrics": self._metrics.state_dict(),
        }
        model = self._protocol.model
        model_state = getattr(model, "state_dict", None)
        state["model"] = model_state() if model_state is not None else None
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this simulation.

        The simulation must have been freshly built from the same
        configuration (topology, scheduler, injection, seed) that
        produced the snapshot; only mutable state is restored.
        """
        load_protocol = self._checkpoint_hook("load_state_dict")
        for key in ("frame", "protocol", "store", "injection", "metrics"):
            if key not in state:
                raise ConfigurationError(
                    f"simulation state is missing '{key}'"
                )
        model = self._protocol.model
        model_state = state.get("model")
        loader = getattr(model, "load_state_dict", None)
        if model_state is not None and loader is None:
            raise ConfigurationError(
                f"checkpoint carries state for a stateful model but "
                f"{type(model).__name__} has no load_state_dict()"
            )
        if model_state is None and getattr(model, "state_dict", None):
            raise ConfigurationError(
                f"checkpoint has no model state but {type(model).__name__} "
                "is stateful"
            )
        load_protocol(state["protocol"])
        self._injection.store.load_state_dict(state["store"])
        self._injection.load_state_dict(state["injection"])
        self._metrics.load_state_dict(state["metrics"])
        if model_state is not None:
            loader(model_state)
        self._frame = int(state["frame"])

    def _checkpoint_hook(self, name: str):
        hook = getattr(self._protocol, name, None)
        if hook is None:
            raise ConfigurationError(
                f"{type(self._protocol).__name__} does not support "
                f"checkpointing (no {name})"
            )
        return hook

    def run(self, frames: int) -> MetricsRecorder:
        """Advance the simulation by ``frames`` frames."""
        return drive_steps(self.run_steps(frames))

    def run_steps(self, frames: int):
        """Generator form of :meth:`run` (see :mod:`repro.core.steps`).

        Yields the frame loop's :class:`~repro.core.steps.AlgorithmCall`
        items (via the protocol's ``run_frame_steps``) and returns the
        metrics recorder. Injection, auditing and metrics accounting all
        happen in here, so driving this generator — serially or from
        the batched fleet kernel — is bit-identical to :meth:`run`.
        """
        if frames < 0:
            raise ConfigurationError(f"frames must be >= 0, got {frames}")
        frame_length = int(self._protocol.frame_length)
        frame_steps = getattr(self._protocol, "run_frame_steps", None)
        store = self._injection.store
        no_packets: tuple = ()
        # Cadence is a pure function of the frame number, so a resumed
        # run releases at exactly the frames the uninterrupted run did.
        release_every = (
            self._metrics.release_interval if self._metrics.streaming else 0
        )
        for _ in range(frames):
            start = self._frame * frame_length
            packets = self._injection.indices_for_range(
                start, start + frame_length
            )
            injected = int(packets.size)
            if self._audit is not None:
                # The audit is sliding-window over slots; feeding whole
                # frames is conservative only if the window is a
                # multiple of the frame; per-slot feeding stays exact.
                # Empty frames skip the bucketing entirely — the audit
                # still sees every slot so its window keeps sliding.
                by_slot: dict = {}
                if injected:
                    stamps = store.injected_at[packets]
                    for index, slot in zip(packets.tolist(), stamps.tolist()):
                        by_slot.setdefault(slot, []).append(store.view(index))
                for slot in range(start, start + frame_length):
                    self._audit.observe(slot, by_slot.get(slot, no_packets))
            if frame_steps is not None:
                report = yield from frame_steps(packets)
            else:
                report = self._protocol.run_frame(packets)
            self._metrics.record_frame(
                injected=injected,
                in_system=self._protocol.packets_in_system,
                active=report.active_in_system,
                failed=report.failed_in_system,
                potential=report.potential,
                delivered_total=self._protocol.delivered_total,
            )
            self._frame += 1
            if release_every and self._frame % release_every == 0:
                self._release_delivered()
        return self._metrics

    def _release_delivered(self) -> None:
        """Fold pending delivered packets into the latency accumulators
        and reclaim their store rows.

        Protocols without ``take_delivered`` / ``compact_store`` (the
        shifted wrapper holds indices that compaction would invalidate)
        keep their delivered set.
        """
        take = getattr(self._protocol, "take_delivered", None)
        if take is None:
            return
        indices = take()
        if indices.size:
            store = self._injection.store
            self._metrics.absorb_latencies(
                store.latencies(indices), store.path_lengths(indices)
            )
        self._protocol.compact_store()


__all__ = ["FrameSimulation"]
