"""Protocol edge cases and failure injection beyond the main suite."""

import numpy as np
import pytest

from repro.core.frames import FrameParameters
from repro.core.protocol import DynamicProtocol
from repro.interference.packet_routing import PacketRoutingModel
from repro.interference.unreliable import UnreliableModel
from repro.network.topology import line_network
from repro.staticsched.single_hop import SingleHopScheduler


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


def make_protocol(packets, **kwargs):
    net = line_network(4)
    model = kwargs.pop("model", None) or PacketRoutingModel(net)
    params = kwargs.pop("params", None) or tight_params(net.size_m)
    return DynamicProtocol(
        model,
        SingleHopScheduler(),
        rate=0.1,
        params=params,
        rng=0,
        store=packets.store,
        **kwargs,
    ), model


def test_empty_frames_are_cheap_and_sane(packets):
    protocol, _ = make_protocol(packets)
    for _ in range(5):
        report = protocol.run_frame([])
        assert report.injected == 0
        assert report.phase1_requests == 0
    assert protocol.packets_in_system == 0
    assert protocol.potential.series == [0] * 5


def test_massive_single_frame_burst_eventually_drains(packets):
    # 100 one-hop packets on one link; phase 1 serves 30 per frame, the
    # overflow fails and then drains via clean-up at one hop per frame
    # (single busy buffer, lottery probability 1): full recovery takes
    # ~70 clean-up frames.
    protocol, _ = make_protocol(
        packets,
        params=tight_params(4, frame_length=40, phase1=30, cleanup=8),
        cleanup_probability=1.0,
    )
    protocol.run_frame(packets.many(100, (0,)))
    protocol.run_frame([])
    # 70 overflowed phase 1; the same frame's clean-up already drained 1.
    assert protocol.potential.value == 69
    for _ in range(90):
        protocol.run_frame([])
    assert len(protocol.delivered) == 100
    assert protocol.packets_in_system == 0
    assert protocol.potential.value == 0


def test_failed_buffer_movement_across_links(packets):
    # Force failures on two different first-hop links. The clean-up
    # phase runs inside the same frame as the failure: packet 1 (one
    # hop) is delivered immediately, packet 0 advances to its second
    # hop's buffer and is delivered one frame later.
    protocol, _ = make_protocol(
        packets,
        params=tight_params(4, frame_length=10, phase1=0, cleanup=6),
        cleanup_probability=1.0,
    )
    protocol.run_frame([packets((0, 1)), packets((2,))])
    protocol.run_frame([])  # both fail in phase 1, clean-up acts
    assert protocol.failed_buffer_sizes() == {1: 1}
    assert [p.id for p in protocol.delivered] == [1]
    protocol.run_frame([])
    assert protocol.failed_buffer_sizes() == {}
    assert sorted(p.id for p in protocol.delivered) == [0, 1]


def test_cleanup_chain_onto_offered_link_regression(packets):
    # Regression: packet 0 (path 0->1) and packet 1 (path 1) both fail
    # and are both offered in the same clean-up round. Packet 0's served
    # hop moves it onto link 1 — the same link whose (also served) head
    # is packet 1. Interleaving pushes with pops used to displace packet
    # 1 from its buffer head and raise SchedulingError.
    protocol, _ = make_protocol(
        packets,
        params=tight_params(4, frame_length=10, phase1=0, cleanup=6),
        cleanup_probability=1.0,
    )
    protocol.run_frame([packets((0, 1)), packets((1,))])
    protocol.run_frame([])  # both fail in phase 1, clean-up serves both
    assert [p.id for p in protocol.delivered] == [1]
    assert protocol.failed_buffer_sizes() == {1: 1}
    protocol.run_frame([])
    assert sorted(p.id for p in protocol.delivered) == [0, 1]
    assert protocol.packets_in_system == 0


def test_unreliable_model_inside_protocol_still_conserves(packets):
    net = line_network(4)
    base = PacketRoutingModel(net)
    model = UnreliableModel(base, 0.3, rng=5)
    protocol, _ = make_protocol(
        packets,
        model=model,
        params=tight_params(net.size_m, frame_length=60, phase1=40, cleanup=15),
        cleanup_probability=1.0,
    )
    rng = np.random.default_rng(3)
    injected = 0
    for frame in range(40):
        batch = []
        if rng.random() < 0.6:
            batch.append(packets((0, 1, 2), slot=frame))
            injected += 1
        protocol.run_frame(batch)
    assert len(protocol.delivered) + protocol.packets_in_system == injected


def test_potential_series_sampled_every_frame(packets):
    protocol, _ = make_protocol(packets)
    for _ in range(7):
        protocol.run_frame([])
    assert len(protocol.potential.series) == 7


def test_cleanup_lottery_rate_visible_in_reports(packets):
    """With p=1/m and a single stuffed buffer, offers happen ~1/m of frames."""
    m = 4
    protocol, _ = make_protocol(
        packets,
        params=tight_params(m, frame_length=10, phase1=0, cleanup=5),
    )
    protocol.run_frame(packets.many(30, (0,)))
    offered = 0
    frames = 400
    for _ in range(frames):
        report = protocol.run_frame([])
        offered += report.cleanup_offered
        if protocol.potential.value == 0:
            break
    # Expected offer rate 1/m = 0.25 per frame while the buffer is busy.
    assert offered > 0
    assert offered <= frames


def test_delivered_list_is_stable_identity(packets):
    protocol, _ = make_protocol(packets)
    p = packets((0, 1))
    protocol.run_frame([p])
    protocol.run_frame([])
    protocol.run_frame([])
    assert protocol.delivered[0].id == p
    assert packets.store.view(p).delivered_at == 3 * protocol.frame_length
