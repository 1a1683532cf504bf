"""The Section-5 shifted protocol for window adversaries."""

import numpy as np
import pytest

from repro.core.adversarial import ShiftedDynamicProtocol
from repro.errors import ConfigurationError
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import line_network
from repro.staticsched.single_hop import SingleHopScheduler


def make_shifted(**kwargs):
    net = line_network(4)
    model = PacketRoutingModel(net)
    defaults = dict(
        rate=0.5, window=20, t_scale=0.01, rng=0
    )
    defaults.update(kwargs)
    return (
        ShiftedDynamicProtocol(model, SingleHopScheduler(), **defaults),
        model,
    )


def test_delta_max_default_positive():
    protocol, _ = make_shifted()
    assert protocol.delta_max >= 1


def test_custom_delta_max():
    protocol, _ = make_shifted(delta_max=7)
    assert protocol.delta_max == 7


def test_delta_max_validation():
    with pytest.raises(ConfigurationError):
        make_shifted(delta_max=0)
    with pytest.raises(ConfigurationError):
        make_shifted(window=0)


def test_rate_at_capacity_rejected():
    with pytest.raises(ConfigurationError, match="capacity"):
        make_shifted(rate=1.0)


def test_packets_held_until_delay_elapses(packets):
    protocol, _ = make_shifted(delta_max=3, store=packets.store)
    batch = packets.many(50, (0, 1))
    protocol.run_frame(batch)
    # With delta_max=3 and 50 packets, some are held (delay > 0) whp.
    assert protocol.held_count > 0
    assert protocol.packets_in_system == 50
    # After delta_max more frames everything has been released.
    for _ in range(protocol.delta_max + 1):
        protocol.run_frame([])
    assert protocol.held_count == 0


def test_shift_disabled_forwards_immediately(packets):
    protocol, _ = make_shifted(
        shift_enabled=False, delta_max=10, store=packets.store
    )
    batch = packets.many(20, (0, 1))
    protocol.run_frame(batch)
    assert protocol.held_count == 0
    # They entered the inner protocol as frame-0 injections.
    assert protocol.inner.packets_in_system == 20


def test_eventual_delivery_of_all_packets(packets):
    protocol, _ = make_shifted(delta_max=4, store=packets.store)
    total = 30
    protocol.run_frame(packets.many(total, (0, 1, 2)))
    for _ in range(protocol.delta_max + 10):
        protocol.run_frame([])
    assert len(protocol.delivered) == total
    assert protocol.packets_in_system == 0


def test_inner_rate_is_higher_than_outer():
    protocol, _ = make_shifted(rate=0.5)
    # lambda' = (1 - eps/2)/f with eps = 0.5 -> 0.75 (f = 1).
    assert protocol.inner.params.rate == pytest.approx(0.75)


def test_shift_spreads_bursts(packets):
    """A one-frame burst must be released over ~delta_max frames."""
    protocol, _ = make_shifted(delta_max=8, rng=3, store=packets.store)
    burst = packets.many(200, (0, 1))
    protocol.run_frame(burst)
    releases = []
    for _ in range(protocol.delta_max):
        before = protocol.held_count
        protocol.run_frame([])
        releases.append(before - protocol.held_count)
    # No single frame got much more than a fair share of the burst.
    assert max(releases) < 200 * 0.35


def test_frame_length_mirrors_inner():
    protocol, _ = make_shifted()
    assert protocol.frame_length == protocol.inner.frame_length
