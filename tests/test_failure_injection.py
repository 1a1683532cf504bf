"""Failure injection: the protocol under hostile components.

These tests replace individual components with pathological ones (an
algorithm that never serves, a channel that loses almost everything, an
adversary that lies about its budget) and assert the system degrades
the way the design says it must: failures are detected, bookkeeping
stays consistent, auditors raise.
"""

from __future__ import annotations

import pytest

from repro.core.frames import FrameParameters
from repro.core.protocol import DynamicProtocol
from repro.errors import InjectionError, SchedulingError
from repro.injection.adversarial import WindowAudit
from repro.interference.mac import MultipleAccessChannel
from repro.interference.packet_routing import PacketRoutingModel
from repro.interference.unreliable import UnreliableModel
from repro.network.topology import line_network, mac_network
from repro.staticsched.base import RunResult, StaticAlgorithm
from repro.staticsched.single_hop import SingleHopScheduler


class NeverServes(StaticAlgorithm):
    """Pathological algorithm: consumes budget, serves nothing."""

    name = "never-serves"

    def run(self, model, requests, budget, rng=None, record_history=False):
        return RunResult(
            delivered=[],
            remaining=list(range(len(list(requests)))),
            slots_used=min(budget, len(list(requests))),
        )

    def budget_for(self, measure, n):
        return 1


class OverEagerScheduler(StaticAlgorithm):
    """Transmits every pending link simultaneously, every slot.

    Correct on packet routing; hopeless on a shared channel — used to
    assert collisions are the *model's* verdict, not the scheduler's.
    """

    name = "over-eager"

    def run(self, model, requests, budget, rng=None, record_history=False):
        from repro.staticsched.base import LinkQueues

        queues = LinkQueues(requests, model.num_links)
        delivered = []
        slots = 0
        while slots < budget and queues.pending:
            self._transmit(model, queues, queues.busy_links(), delivered, None)
            slots += 1
            if slots > budget:
                break
        return self._finalise(queues, delivered, slots, None)

    def budget_for(self, measure, n):
        return max(1, int(measure))


def tight_params(m, frame_length=20, phase1=10, cleanup=6):
    return FrameParameters(
        frame_length=frame_length,
        phase1_budget=phase1,
        cleanup_budget=cleanup,
        measure_budget=5.0,
        epsilon=0.5,
        rate=0.1,
        f_m=1.0,
        m=m,
    )


class TestNeverServingAlgorithm:
    def make(self, store, cleanup_enabled=True):
        net = line_network(4)
        model = PacketRoutingModel(net)
        return DynamicProtocol(
            model,
            NeverServes(),
            rate=0.1,
            params=tight_params(net.size_m),
            cleanup_enabled=cleanup_enabled,
            cleanup_probability=1.0,
            rng=0,
            store=store,
        )

    def test_everything_fails_once_then_sticks(self, packets):
        protocol = self.make(packets.store)
        protocol.run_frame(packets.many(5, (0,)))
        report = protocol.run_frame([])
        # Phase 1 fails all 5; the clean-up offers 1 but the algorithm
        # fails it too, so nothing ever leaves the failed buffers.
        assert report.newly_failed == 5
        assert report.cleanup_hops == 0
        assert protocol.potential.value == 5
        for _ in range(10):
            report = protocol.run_frame([])
        assert protocol.potential.value == 5
        assert len(protocol.delivered) == 0

    def test_potential_grows_linearly_under_sustained_injection(self, packets):
        protocol = self.make(packets.store)
        series = []
        for frame in range(12):
            protocol.run_frame([packets((0,))])
            series.append(protocol.potential.value)
        # One new failure per frame after the pipeline fills.
        deltas = [b - a for a, b in zip(series, series[1:])]
        assert deltas[2:] == [1] * len(deltas[2:])

    def test_frame_reports_stay_consistent(self, packets):
        protocol = self.make(packets.store)
        protocol.run_frame(packets.many(3, (0, 1)))
        report = protocol.run_frame([])
        assert report.phase1_hops == 0
        assert report.failed_in_system == 3
        assert report.active_in_system == 0
        assert report.potential == 6  # 3 packets x 2 remaining hops


class TestCollisionsAreTheModelsVerdict:
    def test_over_eager_on_mac_never_delivers_concurrently(self):
        net = mac_network(4)
        model = MultipleAccessChannel(net)
        result = OverEagerScheduler().run(model, [0, 1, 2], budget=50)
        # Three stations always colliding: nothing is ever delivered.
        assert result.delivered == []
        assert len(result.remaining) == 3

    def test_over_eager_on_packet_routing_is_fine(self):
        net = line_network(4)
        model = PacketRoutingModel(net)
        result = OverEagerScheduler().run(model, [0, 1, 2], budget=5)
        assert sorted(result.delivered) == [0, 1, 2]

    def test_mac_singleton_succeeds(self):
        net = mac_network(4)
        model = MultipleAccessChannel(net)
        result = OverEagerScheduler().run(model, [2], budget=5)
        assert result.delivered == [0]


class TestNearTotalLoss:
    def test_heavy_loss_starves_fixed_budget(self):
        net = line_network(3)
        base = PacketRoutingModel(net)
        lossy = UnreliableModel(base, loss_probability=0.95, rng=1)
        result = SingleHopScheduler().run(lossy, [0] * 20, budget=20, rng=2)
        # With 95% loss a 20-slot budget serves only a couple of packets.
        assert len(result.delivered) < 6

    def test_loss_probability_one_rejected(self):
        net = line_network(3)
        base = PacketRoutingModel(net)
        with pytest.raises(Exception):
            UnreliableModel(base, loss_probability=1.0, rng=1)


class TestLyingAdversary:
    def test_audit_catches_over_injection(self, packets):
        net = line_network(4)
        model = PacketRoutingModel(net)
        audit = WindowAudit(model, window=10, rate=0.5)  # budget 5
        with pytest.raises(InjectionError):
            audit.observe(0, packets.views(packets.many(6, (0,))))

    def test_audit_accepts_exactly_at_budget(self, packets):
        net = line_network(4)
        model = PacketRoutingModel(net)
        audit = WindowAudit(model, window=10, rate=0.5)
        audit.observe(0, packets.views(packets.many(5, (0,))))
        assert audit.worst_window_measure == pytest.approx(5.0)

    def test_sliding_eviction_frees_budget(self, packets):
        net = line_network(4)
        model = PacketRoutingModel(net)
        audit = WindowAudit(model, window=3, rate=1.0)  # budget 3
        audit.observe(0, [])
        # 3 packets in slot 1 fill the budget.
        audit.observe(1, packets.views(packets.many(3, (0,), slot=1)))
        audit.observe(2, [])
        audit.observe(3, [])
        # Slot 4: the slot-1 burst has left the window; 3 more are legal.
        audit.observe(4, packets.views(packets.many(3, (0,), slot=4)))
        assert audit.worst_window_measure == pytest.approx(3.0)

    def test_incremental_vector_matches_rebuild(self, packets):
        """The incremental audit equals a from-scratch recomputation."""
        import numpy as np

        net = line_network(4)
        model = PacketRoutingModel(net)
        window = 5
        audit = WindowAudit(model, window, rate=10.0)  # huge budget
        rng = np.random.default_rng(7)
        history = []
        for slot in range(60):
            count = int(rng.integers(0, 4))
            batch = packets.views(
                [
                    packets((int(rng.integers(0, 3)),), slot)
                    for _ in range(count)
                ]
            )
            history.append(batch)
            audit.observe(slot, batch)
            recent = history[-window:]
            links = [l for batch in recent for p in batch for l in p.path]
            expected = model.interference_measure(links)
            assert audit._measure == pytest.approx(expected)


class TestBadInputsToProtocol:
    def test_packet_with_unknown_link_rejected(self, packets):
        net = line_network(3)
        protocol = DynamicProtocol(
            PacketRoutingModel(net),
            SingleHopScheduler(),
            rate=0.1,
            params=tight_params(net.size_m),
            rng=0,
            store=packets.store,
        )
        with pytest.raises(SchedulingError):
            protocol.run_frame([packets((99,))])

    def test_algorithm_budget_zero_means_all_fail(self, packets):
        net = line_network(3)
        protocol = DynamicProtocol(
            PacketRoutingModel(net),
            SingleHopScheduler(),
            rate=0.1,
            params=tight_params(net.size_m, frame_length=20, phase1=0,
                                cleanup=6),
            cleanup_enabled=False,
            rng=0,
            store=packets.store,
        )
        protocol.run_frame([packets((0,))])
        report = protocol.run_frame([])
        assert report.newly_failed == 1
        assert len(protocol.delivered) == 0
