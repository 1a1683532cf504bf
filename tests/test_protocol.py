"""The Section-4 dynamic protocol."""

import numpy as np
import pytest

from repro.core.frames import FrameParameters
from repro.core.protocol import DynamicProtocol
from repro.core.transform import TransformedAlgorithm
from repro.errors import ConfigurationError, SchedulingError
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import line_network
from repro.staticsched.decay import DecayScheduler
from repro.staticsched.single_hop import SingleHopScheduler


@pytest.fixture()
def chain_protocol(packets):
    """Packet-routing chain with the trivial scheduler: fully predictable."""
    net = line_network(5)
    model = PacketRoutingModel(net)
    return (
        DynamicProtocol(
            model,
            SingleHopScheduler(),
            rate=0.5,
            t_scale=0.01,
            rng=0,
            store=packets.store,
        ),
        net,
        model,
    )


def test_injected_packets_wait_one_frame(chain_protocol, packets):
    protocol, net, model = chain_protocol
    report0 = protocol.run_frame([packets((0, 1))])
    # Injected during frame 0: nothing processed yet.
    assert report0.phase1_requests == 0
    assert report0.active_in_system == 1
    report1 = protocol.run_frame([])
    # Now the packet crossed its first hop.
    assert report1.phase1_hops == 1
    assert report1.active_in_system == 1
    report2 = protocol.run_frame([])
    assert report2.phase1_hops == 1
    assert report2.active_in_system == 0
    assert len(protocol.delivered) == 1


def test_one_hop_per_frame_delivery_time(chain_protocol, packets):
    protocol, net, model = chain_protocol
    protocol.run_frame([packets((0, 1, 2, 3))])
    for _ in range(4):
        protocol.run_frame([])
    assert len(protocol.delivered) == 1
    delivered = protocol.delivered[0]
    # Injected in frame 0, active frames 1..4, delivered at end of frame 4.
    assert delivered.delivered_at == 5 * protocol.frame_length


def test_latency_is_order_d_frames(chain_protocol, packets):
    protocol, net, model = chain_protocol
    protocol.run_frame([packets((0,)), packets((0, 1, 2))])
    for _ in range(4):
        protocol.run_frame([])
    by_id = {p.id: p for p in protocol.delivered}
    assert by_id[0].latency() <= 2 * protocol.frame_length
    assert by_id[1].latency() <= 4 * protocol.frame_length


def test_no_failures_on_underloaded_packet_routing(chain_protocol, packets):
    protocol, net, model = chain_protocol
    rng = np.random.default_rng(1)
    for frame in range(30):
        batch = []
        if rng.random() < 0.5:
            batch.append(packets((0, 1, 2, 3), slot=frame))
        report = protocol.run_frame(batch)
        assert report.newly_failed == 0
    assert protocol.potential.value == 0
    assert protocol.failed_count == 0


def forced_failure_protocol(
    store, rng=0, cleanup_enabled=True, cleanup_probability=1.0
):
    """Phase-1 budget of zero-ish slots: every active packet fails."""
    net = line_network(4)
    model = PacketRoutingModel(net)
    params = FrameParameters(
        frame_length=10,
        phase1_budget=0,  # nothing can be served in phase 1
        cleanup_budget=5,
        measure_budget=1.0,
        epsilon=0.5,
        rate=0.1,
        f_m=1.0,
        m=net.size_m,
    )
    return (
        DynamicProtocol(
            model,
            SingleHopScheduler(),
            rate=0.1,
            params=params,
            cleanup_enabled=cleanup_enabled,
            cleanup_probability=cleanup_probability,
            rng=rng,
            store=store,
        ),
        model,
    )


def test_failures_enter_buffers_and_potential(packets):
    protocol, model = forced_failure_protocol(packets.store, cleanup_enabled=False)
    protocol.run_frame([packets((0, 1, 2))])
    report = protocol.run_frame([])
    assert report.newly_failed == 1
    assert protocol.failed_count == 1
    assert protocol.potential.value == 3  # all three hops remain
    assert protocol.failed_buffer_sizes() == {0: 1}


def test_cleanup_drains_failed_packets(packets):
    protocol, model = forced_failure_protocol(packets.store, cleanup_probability=1.0)
    protocol.run_frame([packets((0, 1))])
    protocol.run_frame([])  # fails in phase 1, cleanup serves one hop
    # With cleanup probability 1 and the trivial scheduler, each frame
    # moves the failed packet one hop.
    for _ in range(4):
        protocol.run_frame([])
    assert len(protocol.delivered) == 1
    assert protocol.potential.value == 0
    assert protocol.failed_count == 0


def test_cleanup_respects_failure_age(packets):
    protocol, model = forced_failure_protocol(packets.store, cleanup_probability=1.0)
    protocol.run_frame([packets((0,), slot=0)])
    protocol.run_frame([packets((0,), slot=1)])  # packet 0 fails here
    # Packet 0 failed in frame 1; packet 1 fails in frame 2. The buffer
    # serves oldest-first, so packet 0 must be delivered first.
    for _ in range(6):
        protocol.run_frame([])
    order = [p.id for p in protocol.delivered]
    assert order == [0, 1]


def test_ablation_no_cleanup_keeps_potential(packets):
    protocol, model = forced_failure_protocol(packets.store, cleanup_enabled=False)
    protocol.run_frame([packets((0, 1))])
    for _ in range(5):
        report = protocol.run_frame([])
        assert report.cleanup_offered == 0
    assert protocol.potential.value == 2
    assert len(protocol.delivered) == 0


def test_cleanup_probability_validation():
    net = line_network(3)
    model = PacketRoutingModel(net)
    with pytest.raises(ConfigurationError):
        DynamicProtocol(
            model,
            SingleHopScheduler(),
            rate=0.1,
            t_scale=0.01,
            cleanup_probability=0.0,
        )


def test_packet_with_unknown_link_rejected(chain_protocol, packets):
    protocol, net, model = chain_protocol
    with pytest.raises(SchedulingError, match="unknown link"):
        protocol.run_frame([packets((99,))])


def test_frame_reports_are_consistent(chain_protocol, packets):
    protocol, net, model = chain_protocol
    rng = np.random.default_rng(2)
    for frame in range(20):
        batch = []
        if rng.random() < 0.7:
            batch.append(packets((0, 1), slot=frame))
        report = protocol.run_frame(batch)
        assert report.frame == frame
        assert report.injected == len(batch)
        assert (
            report.active_in_system + report.failed_in_system
            == protocol.packets_in_system
        )
        assert report.delivered_packets == len(protocol.delivered)


def test_transformed_algorithm_drives_protocol(packets):
    """Integration: transformed decay on SINR serves an underloaded flow."""
    from repro.network.topology import random_sinr_network
    from repro.sinr.weights import linear_power_model

    net = random_sinr_network(12, rng=3)
    model = linear_power_model(net, alpha=3.0, beta=1.0, noise=0.02)
    algorithm = TransformedAlgorithm(
        DecayScheduler(), m=net.size_m, chi_scale=0.05
    )
    bound = algorithm.network_bound(net.size_m)
    rate = 0.3 / bound.f(net.size_m)
    protocol = DynamicProtocol(
        model, algorithm, rate, t_scale=0.001, rng=4, store=packets.store
    )
    links = [link.id for link in net.links]
    rng = np.random.default_rng(5)
    for frame in range(15):
        batch = []
        for _ in range(3):
            batch.append(packets((int(rng.choice(links)),), slot=frame))
        protocol.run_frame(batch)
    assert len(protocol.delivered) > 0
    assert protocol.packets_in_system + len(protocol.delivered) == len(
        packets.store
    )
