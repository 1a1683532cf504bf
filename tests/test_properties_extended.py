"""Property-based tests for routing, frames, and the wrapper models.

Complements ``test_properties.py`` (measure/affectance/scheduler
invariants) with invariants of the routing substrate, the frame-sizing
arithmetic, and the unreliability wrappers added for the Section-9
extensions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.core.frames import compute_frame_parameters, epsilon_for_rate
from repro.errors import ConfigurationError
from repro.interference.jamming import (
    FrontLoadedPattern,
    JammedModel,
    PeriodicBurstPattern,
)
from repro.interference.packet_routing import PacketRoutingModel
from repro.interference.unreliable import UnreliableModel
from repro.network.routing import build_routing_table
from repro.network.topology import grid_network, random_sinr_network
from repro.staticsched.single_hop import SingleHopScheduler


# ----------------------------------------------------------------------
# Routing invariants
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_routing_paths_are_connected_and_minimal(seed):
    net = random_sinr_network(10, rng=seed)
    routing = build_routing_table(net)
    for source, destination in routing.pairs():
        path = routing.path(source, destination)
        assert len(path) >= 1
        # Links chain: each link's receiver is the next link's sender.
        first = net.link(path[0])
        assert first.sender == source
        last = net.link(path[-1])
        assert last.receiver == destination
        for a, b in zip(path, path[1:]):
            assert net.link(a).receiver == net.link(b).sender
        # BFS paths respect the global depth bound.
        assert len(path) <= net.max_path_length


@given(
    rows=st.integers(min_value=2, max_value=4),
    cols=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_grid_routing_matches_manhattan_distance(rows, cols):
    net = grid_network(rows, cols)
    routing = build_routing_table(net)
    for source, destination in routing.pairs():
        sr, sc = divmod(source, cols)
        dr, dc = divmod(destination, cols)
        manhattan = abs(sr - dr) + abs(sc - dc)
        assert len(routing.path(source, destination)) == manhattan


# ----------------------------------------------------------------------
# Frame-sizing arithmetic
# ----------------------------------------------------------------------


@given(
    rate_fraction=st.floats(min_value=0.05, max_value=0.95),
    f_m=st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=50, deadline=None)
def test_epsilon_for_rate_in_range(rate_fraction, f_m):
    rate = rate_fraction / f_m
    eps = epsilon_for_rate(rate, f_m)
    assert 0.0 < eps <= 0.5
    # eps is the head-room: lambda = (1 - eps)/f(m) up to the clamp.
    assert eps == pytest.approx(min(1.0 - rate * f_m, 0.5))


def test_epsilon_for_rate_rejects_overload():
    with pytest.raises(ConfigurationError):
        epsilon_for_rate(1.0, 1.0)


@given(
    m_exp=st.integers(min_value=2, max_value=8),
    rate_fraction=st.floats(min_value=0.1, max_value=0.9),
    t_scale=st.floats(min_value=1e-4, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_frame_parameters_always_fit(m_exp, rate_fraction, t_scale):
    m = 2 ** m_exp
    algorithm = SingleHopScheduler()
    rate = rate_fraction * repro.certified_rate(algorithm, m)
    params = compute_frame_parameters(algorithm, m, rate, t_scale=t_scale)
    assert params.phase1_budget + params.cleanup_budget <= params.frame_length
    assert params.phase1_budget >= 1
    assert params.measure_budget > 0
    # J = (1 + eps) * lambda * T within rounding, floored at 1.
    expected_j = max(
        1.0, (1.0 + params.epsilon) * params.rate * params.frame_length
    )
    assert params.measure_budget == pytest.approx(expected_j, rel=0.02)


# ----------------------------------------------------------------------
# Wrapper-model invariants (loss, jamming)
# ----------------------------------------------------------------------


@given(
    loss=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_unreliable_successes_subset_of_base(loss, seed):
    net = grid_network(3, 3)
    base = PacketRoutingModel(net)
    lossy = UnreliableModel(base, loss, rng=seed)
    transmitting = [0, 3, 5, 7]
    for _ in range(5):
        thinned = lossy.successes(transmitting)
        assert thinned <= base.successes(transmitting)


@given(
    period=st.integers(min_value=1, max_value=20),
    burst=st.integers(min_value=0, max_value=20),
    slots=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_jammed_successes_subset_and_fraction(period, burst, slots):
    assume(burst <= period)
    net = grid_network(3, 3)
    base = PacketRoutingModel(net)
    pattern = PeriodicBurstPattern(period, burst)
    jammed = JammedModel(base, pattern)
    transmitting = [0, 1]
    blocked = 0
    for _ in range(slots):
        winners = jammed.successes(transmitting)
        assert winners <= base.successes(transmitting)
        if not winners:
            blocked += 1
    # Over whole periods the blocked fraction equals burst/period.
    if slots % period == 0:
        assert blocked == (burst * slots) // period


@given(
    window=st.integers(min_value=2, max_value=40),
    sigma=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_front_loaded_fraction_never_exceeds_sigma(window, sigma):
    pattern = FrontLoadedPattern(window, sigma)
    horizon = window * 10
    jammed = sum(pattern.is_jammed(t) for t in range(horizon))
    assert jammed / horizon <= sigma + 1e-12


# ----------------------------------------------------------------------
# Protocol conservation under random scenarios
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=50),
    phase1=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=20, deadline=None)
def test_packet_conservation(seed, phase1):
    """injected == delivered + active + failed, always."""
    from repro.core.frames import FrameParameters
    from repro.core.protocol import DynamicProtocol

    net = grid_network(3, 3)
    model = PacketRoutingModel(net)
    params = FrameParameters(
        frame_length=30,
        phase1_budget=phase1,
        cleanup_budget=10,
        measure_budget=4.0,
        epsilon=0.5,
        rate=0.1,
        f_m=1.0,
        m=net.size_m,
    )
    routing = build_routing_table(net)
    injection = repro.uniform_pair_injection(
        routing, model, 0.1, num_generators=4, rng=seed + 500
    )
    protocol = DynamicProtocol(
        model,
        SingleHopScheduler(),
        rate=0.1,
        params=params,
        cleanup_probability=0.5,
        rng=seed,
        store=injection.store,
    )
    total_injected = 0
    for frame in range(25):
        start = frame * params.frame_length
        packets = injection.packets_for_range(
            start, start + params.frame_length
        )
        total_injected += len(packets)
        protocol.run_frame(packets)
        assert (
            len(protocol.delivered) + protocol.packets_in_system
            == total_injected
        )
    # Potential equals the summed remaining hops of failed packets.
    store = injection.store
    remaining = sum(
        len(store.path_of(index)) - int(store.hops_done[index])
        for buffer in protocol._failed_buffers.values()
        for index in buffer
    )
    assert protocol.potential.value == remaining
