"""Potential-function bookkeeping (Theorem-3 analysis)."""

import pytest

from repro.core.frames import FrameParameters
from repro.core.potential import PotentialTracker
from repro.core.protocol import DynamicProtocol
from repro.errors import SchedulingError
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import line_network
from repro.staticsched.single_hop import SingleHopScheduler


def test_failure_adds_remaining_hops():
    tracker = PotentialTracker()
    tracker.on_failures(3, 1)
    assert tracker.value == 3
    assert tracker.total_failures == 1


def test_cleanup_hop_decrements():
    tracker = PotentialTracker()
    tracker.on_failures(2, 1)
    tracker.on_cleanup_hop()
    assert tracker.value == 1
    assert tracker.total_cleanup_hops == 1


def test_underflow_rejected():
    tracker = PotentialTracker()
    with pytest.raises(SchedulingError):
        tracker.on_cleanup_hop()


def test_failure_with_no_hops_rejected(packets):
    """A packet with no hops left must not enter the potential: the
    protocol refuses it when phase 1 fails it."""
    net = line_network(3)
    params = FrameParameters(
        frame_length=10, phase1_budget=0, cleanup_budget=5,
        measure_budget=1.0, epsilon=0.5, rate=0.1, f_m=1.0, m=net.size_m,
    )
    protocol = DynamicProtocol(
        PacketRoutingModel(net),
        SingleHopScheduler(),
        rate=0.1,
        params=params,
        cleanup_enabled=False,
        rng=0,
        store=packets.store,
    )
    packet = packets((0,))
    packets.store.advance_one(packet, 5)  # already crossed its one hop
    protocol.run_frame([packet])
    with pytest.raises(SchedulingError, match="no remaining hops"):
        protocol.run_frame([])


def test_sampling_and_drift():
    tracker = PotentialTracker()
    for value in range(10):
        tracker.value = value
        tracker.sample()
    assert tracker.series == list(range(10))
    assert tracker.drift_estimate() == pytest.approx(1.0)


def test_drift_of_flat_series_is_zero():
    tracker = PotentialTracker()
    for _ in range(20):
        tracker.sample()
    assert tracker.drift_estimate() == 0.0


def test_drift_short_series():
    tracker = PotentialTracker()
    tracker.sample()
    assert tracker.drift_estimate() == 0.0
