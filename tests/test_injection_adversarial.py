"""Window adversaries and the sliding-window audit."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, InjectionError
from repro.injection.adversarial import (
    BurstyAdversary,
    SawtoothAdversary,
    SmoothAdversary,
    TargetedAdversary,
    WindowAudit,
)


def paths_for(model, routing):
    return [routing.path(s, d) for s, d in routing.pairs()]


ADVERSARIES = [SmoothAdversary, BurstyAdversary, SawtoothAdversary, TargetedAdversary]


@pytest.mark.parametrize("adversary_cls", ADVERSARIES)
def test_adversaries_pass_the_window_audit(
    adversary_cls, sinr_model, sinr_routing
):
    window, rate = 20, 0.4
    adversary = adversary_cls(
        sinr_model, paths_for(sinr_model, sinr_routing), window, rate, rng=5
    )
    audit = WindowAudit(sinr_model, window, rate)
    for slot in range(3 * window):
        audit.observe(slot, adversary.packets_for_slot(slot))
    # Some load must actually arrive for the test to be meaningful.
    assert audit.worst_window_measure > 0


@pytest.mark.parametrize("adversary_cls", ADVERSARIES)
def test_adversaries_respect_budget_per_window(
    adversary_cls, sinr_model, sinr_routing
):
    window, rate = 10, 0.5
    adversary = adversary_cls(
        sinr_model, paths_for(sinr_model, sinr_routing), window, rate, rng=7
    )
    for w in range(3):
        links = []
        for slot in range(w * window, (w + 1) * window):
            for packet in adversary.packets_for_slot(slot):
                links.extend(packet.path)
        measure = sinr_model.interference_measure(links)
        assert measure <= window * rate + 1e-6


def test_bursty_injects_only_first_slot(sinr_model, sinr_routing):
    window, rate = 8, 0.5
    adversary = BurstyAdversary(
        sinr_model, paths_for(sinr_model, sinr_routing), window, rate, rng=1
    )
    assert len(adversary.packets_for_slot(0)) > 0
    for offset in range(1, window):
        assert adversary.packets_for_slot(offset) == []


def test_smooth_spreads_over_window(sinr_model, sinr_routing):
    window, rate = 16, 1.0
    adversary = SmoothAdversary(
        sinr_model, paths_for(sinr_model, sinr_routing), window, rate, rng=2
    )
    occupied = sum(
        1 for slot in range(window) if adversary.packets_for_slot(slot)
    )
    assert occupied >= 2  # not everything in one slot


def test_targeted_adversary_hits_victim(sinr_model, sinr_routing):
    window, rate = 10, 0.8
    adversary = TargetedAdversary(
        sinr_model, paths_for(sinr_model, sinr_routing), window, rate, rng=3
    )
    packets = adversary.packets_for_slot(0)
    assert packets, "targeted adversary should inject something"
    assert all(adversary.victim in p.path for p in packets)


def test_window_audit_rejects_violation(sinr_model, packets):
    audit = WindowAudit(sinr_model, window=4, rate=0.01)
    heavy = packets.views(packets.many(50, (0,)))
    with pytest.raises(InjectionError, match="bounded"):
        audit.observe(0, heavy)


def test_window_audit_sliding(sinr_model, packets):
    """Two half-budget batches within one sliding window must trip it."""
    audit = WindowAudit(sinr_model, window=4, rate=1.0)
    batch = packets.views(packets.many(3, (0,)))
    audit.observe(0, batch)  # measure 3 <= 4: fine
    more = packets.views(packets.many(3, (0,), slot=2))
    with pytest.raises(InjectionError):
        audit.observe(2, more)  # window now holds 6 > 4


def test_adversary_parameter_validation(sinr_model, sinr_routing):
    paths = paths_for(sinr_model, sinr_routing)
    with pytest.raises(ConfigurationError):
        SmoothAdversary(sinr_model, paths, window=0, rate=0.5)
    with pytest.raises(ConfigurationError):
        SmoothAdversary(sinr_model, paths, window=5, rate=-0.5)
    with pytest.raises(ConfigurationError):
        SmoothAdversary(sinr_model, [], window=5, rate=0.5)


def test_adversary_deterministic_under_seed(sinr_model, sinr_routing):
    paths = paths_for(sinr_model, sinr_routing)

    def trace(seed):
        adversary = BurstyAdversary(sinr_model, paths, 6, 0.5, rng=seed)
        return [
            tuple(p.path)
            for slot in range(12)
            for p in adversary.packets_for_slot(slot)
        ]

    assert trace(9) == trace(9)
