"""Tests for the event-tracing subsystem and its protocol integration."""

from __future__ import annotations

import pytest

from repro.core.adversarial import ShiftedDynamicProtocol
from repro.core.frames import FrameParameters
from repro.core.protocol import DynamicProtocol
from repro.errors import ConfigurationError
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import line_network
from repro.sim.trace import (
    EventKind,
    TraceEvent,
    Tracer,
    format_journey,
    packet_journey,
)
from repro.staticsched.single_hop import SingleHopScheduler


def make_event(frame=0, kind=EventKind.FAILED, packet_id=0, link=None):
    return TraceEvent(frame, kind, packet_id, link)


class TestTracerBasics:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            Tracer(capacity=0)

    def test_record_and_len(self):
        tracer = Tracer()
        tracer.record(0, EventKind.ACTIVATED, 1, 0)
        tracer.record(1, EventKind.DELIVERED, 1, 0)
        assert len(tracer) == 2
        assert tracer.recorded_total == 2
        assert tracer.dropped == 0

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for frame in range(5):
            tracer.record(frame, EventKind.FAILED, frame, 0)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        frames = [event.frame for event in tracer.events()]
        assert frames == [2, 3, 4]

    def test_unbounded_capacity(self):
        tracer = Tracer(capacity=None)
        for frame in range(1000):
            tracer.record(frame, EventKind.FAILED, 0, 0)
        assert len(tracer) == 1000
        assert tracer.dropped == 0


class TestQueries:
    @pytest.fixture()
    def tracer(self):
        tracer = Tracer()
        tracer.record(0, EventKind.ACTIVATED, 1, 0)
        tracer.record(0, EventKind.ACTIVATED, 2, 1)
        tracer.record(1, EventKind.PHASE1_HOP, 1, 0)
        tracer.record(1, EventKind.FAILED, 2, 1)
        tracer.record(2, EventKind.CLEANUP_HOP, 2, 1)
        tracer.record(2, EventKind.DELIVERED, 2, 1)
        return tracer

    def test_filter_by_kind(self, tracer):
        failed = tracer.events(kind=EventKind.FAILED)
        assert len(failed) == 1
        assert failed[0].packet_id == 2

    def test_filter_by_packet(self, tracer):
        events = tracer.events(packet_id=1)
        assert [event.kind for event in events] == [
            EventKind.ACTIVATED,
            EventKind.PHASE1_HOP,
        ]

    def test_filter_by_frame_range(self, tracer):
        events = tracer.events(frame_range=(1, 2))
        assert all(event.frame == 1 for event in events)
        assert len(events) == 2

    def test_filters_compose(self, tracer):
        events = tracer.events(kind=EventKind.ACTIVATED, frame_range=(0, 1))
        assert len(events) == 2

    def test_bad_frame_range(self, tracer):
        with pytest.raises(ConfigurationError):
            tracer.events(frame_range=(5, 2))

    def test_counts(self, tracer):
        counts = tracer.counts()
        assert counts[EventKind.ACTIVATED] == 2
        assert counts[EventKind.DELIVERED] == 1
        assert EventKind.HELD not in counts

    def test_failure_hotspots(self, tracer):
        tracer.record(3, EventKind.FAILED, 7, 1)
        tracer.record(3, EventKind.FAILED, 8, 0)
        hotspots = tracer.failure_hotspots(top=2)
        assert hotspots[0] == (1, 2)

    def test_failure_hotspots_validates_top(self, tracer):
        with pytest.raises(ConfigurationError):
            tracer.failure_hotspots(top=0)

    def test_to_dicts(self, tracer):
        dicts = tracer.to_dicts()
        assert dicts[0] == {
            "frame": 0,
            "kind": "activated",
            "packet_id": 1,
            "link": 0,
        }

    def test_journey_and_format(self, tracer):
        journey = packet_journey(tracer, 2)
        assert [event.kind for event in journey] == [
            EventKind.ACTIVATED,
            EventKind.FAILED,
            EventKind.CLEANUP_HOP,
            EventKind.DELIVERED,
        ]
        text = format_journey(tracer, 2)
        assert "packet 2 failed on link 1" in text
        assert text.count("\n") == 3

    def test_journey_of_unknown_packet_is_empty(self, tracer):
        assert packet_journey(tracer, 99) == []
        assert format_journey(tracer, 99) == ""


class TestEventDescribe:
    def test_with_link(self):
        event = make_event(frame=3, kind=EventKind.FAILED, packet_id=9, link=2)
        assert event.describe() == "frame     3: packet 9 failed on link 2"

    def test_without_link(self):
        event = make_event(frame=1, kind=EventKind.HELD, packet_id=4)
        assert "held" in event.describe()
        assert "link" not in event.describe()


def tight_params(m, frame_length=10, phase1=6, cleanup=3):
    return FrameParameters(
        frame_length=frame_length,
        phase1_budget=phase1,
        cleanup_budget=cleanup,
        measure_budget=1.0,
        epsilon=0.5,
        rate=0.1,
        f_m=1.0,
        m=m,
    )


class TestProtocolIntegration:
    def test_untraced_protocol_has_no_tracer_cost(self, packets):
        net = line_network(4)
        protocol = DynamicProtocol(
            PacketRoutingModel(net),
            SingleHopScheduler(),
            rate=0.1,
            params=tight_params(net.size_m),
            rng=0,
            store=packets.store,
        )
        protocol.run_frame([packets((0,))])
        protocol.run_frame([])  # no tracer: nothing to assert, must not crash

    def test_full_lifecycle_events(self, packets):
        net = line_network(4)
        tracer = Tracer()
        protocol = DynamicProtocol(
            PacketRoutingModel(net),
            SingleHopScheduler(),
            rate=0.1,
            params=tight_params(net.size_m, phase1=6),
            rng=0,
            tracer=tracer,
            store=packets.store,
        )
        protocol.run_frame([packets((0, 1))])
        protocol.run_frame([])
        protocol.run_frame([])
        journey = packet_journey(tracer, 0)
        kinds = [event.kind for event in journey]
        assert kinds == [
            EventKind.ACTIVATED,
            EventKind.PHASE1_HOP,
            EventKind.PHASE1_HOP,
            EventKind.DELIVERED,
        ]
        # The two hops are on consecutive links of the path.
        assert journey[1].link == 0
        assert journey[2].link == 1

    def test_failure_and_cleanup_events(self, packets):
        net = line_network(4)
        tracer = Tracer()
        protocol = DynamicProtocol(
            PacketRoutingModel(net),
            SingleHopScheduler(),
            rate=0.1,
            params=tight_params(net.size_m, phase1=0, cleanup=6),
            cleanup_probability=1.0,
            rng=0,
            tracer=tracer,
            store=packets.store,
        )
        protocol.run_frame([packets((0,))])
        protocol.run_frame([])
        kinds = [event.kind for event in packet_journey(tracer, 0)]
        assert kinds == [
            EventKind.ACTIVATED,
            EventKind.FAILED,
            EventKind.CLEANUP_OFFERED,
            EventKind.CLEANUP_HOP,
            EventKind.DELIVERED,
        ]

    def test_shifted_protocol_emits_held_released(self, packets):
        net = line_network(4)
        tracer = Tracer()
        protocol = ShiftedDynamicProtocol(
            PacketRoutingModel(net),
            SingleHopScheduler(),
            rate=0.05,
            window=20,
            t_scale=0.01,
            rng=3,
            tracer=tracer,
            store=packets.store,
        )
        for frame in range(protocol.delta_max + 5):
            injected = [packets((0,))] if frame == 0 else []
            protocol.run_frame(injected)
        kinds = [event.kind for event in packet_journey(tracer, 0)]
        assert EventKind.RELEASED in kinds
        # The packet either waited (HELD first) or released immediately.
        assert kinds.index(EventKind.RELEASED) <= 1
        assert kinds[-1] == EventKind.DELIVERED

    def test_counts_track_delivery_totals(self, packets):
        net = line_network(4)
        tracer = Tracer()
        protocol = DynamicProtocol(
            PacketRoutingModel(net),
            SingleHopScheduler(),
            rate=0.1,
            params=tight_params(net.size_m, frame_length=12, phase1=8),
            rng=0,
            tracer=tracer,
            store=packets.store,
        )
        protocol.run_frame([packets((i % 3,)) for i in range(6)])
        protocol.run_frame([])
        counts = tracer.counts()
        assert counts[EventKind.ACTIVATED] == 6
        assert counts[EventKind.DELIVERED] == len(protocol.delivered) == 6
