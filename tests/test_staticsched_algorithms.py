"""Behavioural contracts shared by all static algorithms, plus
algorithm-specific guarantees."""

import math

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.interference.packet_routing import PacketRoutingModel
from repro.staticsched import (
    DecayScheduler,
    FkvScheduler,
    KvScheduler,
    MacBackoffScheduler,
    OracleScheduler,
    PowerControlScheduler,
    RoundRobinScheduler,
    SingleHopScheduler,
)

GENERIC_ALGORITHMS = [
    DecayScheduler(),
    FkvScheduler(),
    KvScheduler(),
    OracleScheduler(),
]


def random_requests(model, count, seed):
    rng = np.random.default_rng(seed)
    return list(rng.integers(0, model.num_links, size=count))


# ----------------------------------------------------------------------
# Shared contracts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", GENERIC_ALGORITHMS, ids=lambda a: a.name)
def test_partitions_requests(algorithm, sinr_model):
    requests = random_requests(sinr_model, 30, seed=1)
    budget = algorithm.budget_for(
        sinr_model.interference_measure(requests), len(requests)
    )
    result = algorithm.run(sinr_model, requests, budget, rng=2)
    assert sorted(result.delivered + result.remaining) == sorted(
        range(len(requests))
    )
    assert result.slots_used <= budget


@pytest.mark.parametrize("algorithm", GENERIC_ALGORITHMS, ids=lambda a: a.name)
def test_empty_requests(algorithm, sinr_model):
    result = algorithm.run(sinr_model, [], 10, rng=0)
    assert result.all_delivered
    assert result.slots_used == 0


@pytest.mark.parametrize("algorithm", GENERIC_ALGORITHMS, ids=lambda a: a.name)
def test_zero_budget_leaves_everything(algorithm, sinr_model):
    requests = random_requests(sinr_model, 5, seed=3)
    result = algorithm.run(sinr_model, requests, 0, rng=0)
    assert result.delivered == []
    assert sorted(result.remaining) == list(range(5))


@pytest.mark.parametrize("algorithm", GENERIC_ALGORITHMS, ids=lambda a: a.name)
def test_negative_budget_rejected(algorithm, sinr_model):
    with pytest.raises(SchedulingError):
        algorithm.run(sinr_model, [0], -1, rng=0)


@pytest.mark.parametrize("algorithm", GENERIC_ALGORITHMS, ids=lambda a: a.name)
def test_history_is_model_consistent(algorithm, sinr_model):
    """Every slot's recorded successes must match the model's predicate."""
    requests = random_requests(sinr_model, 20, seed=4)
    budget = algorithm.budget_for(
        sinr_model.interference_measure(requests), len(requests)
    )
    result = algorithm.run(
        sinr_model, requests, budget, rng=5, record_history=True
    )
    assert result.history is not None
    for record in result.history:
        attempted = list(record.attempted)
        expected = sinr_model.successes(attempted)
        assert set(record.succeeded) == expected


@pytest.mark.parametrize("algorithm", GENERIC_ALGORITHMS, ids=lambda a: a.name)
def test_deterministic_under_seed(algorithm, sinr_model):
    requests = random_requests(sinr_model, 15, seed=6)
    a = algorithm.run(sinr_model, requests, 500, rng=7)
    b = algorithm.run(sinr_model, requests, 500, rng=7)
    assert a.delivered == b.delivered
    assert a.slots_used == b.slots_used


@pytest.mark.parametrize("algorithm", GENERIC_ALGORITHMS, ids=lambda a: a.name)
def test_completes_with_generous_budget(algorithm, sinr_model):
    requests = random_requests(sinr_model, 25, seed=8)
    budget = 4 * algorithm.budget_for(
        sinr_model.interference_measure(requests), len(requests)
    )
    result = algorithm.run(sinr_model, requests, budget, rng=9)
    assert result.all_delivered


def test_budget_for_monotone_in_measure():
    algorithm = DecayScheduler()
    assert algorithm.budget_for(10.0, 100) <= algorithm.budget_for(20.0, 100)
    assert algorithm.budget_for(10.0, 100) <= algorithm.budget_for(10.0, 1000)


# ----------------------------------------------------------------------
# Decay / FKV scaling
# ----------------------------------------------------------------------


def test_fkv_budget_beats_decay_for_dense_instances():
    """FKV's O(I + log^2 n) must undercut decay's O(I log n) eventually."""
    decay, fkv = DecayScheduler(), FkvScheduler()
    measure, n = 500.0, 100_000
    assert fkv.budget_for(measure, n) < decay.budget_for(measure, n)


def test_raw_algorithms_have_no_network_bound():
    with pytest.raises(SchedulingError, match="transformation"):
        DecayScheduler().network_bound(10)


@pytest.mark.parametrize("recovery_slots", [0, -3, 2.9, 0.5, "8", True])
def test_kv_rejects_recovery_slots_it_cannot_run(recovery_slots):
    """A bad ``recovery_slots`` raises instead of being clamped or
    truncated to a value nobody asked for."""
    with pytest.raises(SchedulingError, match="recovery_slots"):
        KvScheduler(recovery_slots=recovery_slots)


@pytest.mark.parametrize("initial, floor", [(0.01, 0.5), (0.125, 0.13)])
def test_kv_rejects_min_probability_above_initial(initial, floor):
    """A floor above the start would make a failure raise ``p`` and a
    recovery cut it back; it raises instead."""
    with pytest.raises(SchedulingError, match="min_probability"):
        KvScheduler(initial_probability=initial, min_probability=floor)
    KvScheduler(initial_probability=initial, min_probability=initial)


@pytest.mark.parametrize("recovery_slots", [1, 3, 8.0])
def test_kv_state_dict_reports_recovery_slots_asked_for(recovery_slots):
    state = KvScheduler(recovery_slots=recovery_slots).state_dict()
    assert state["recovery_slots"] == recovery_slots


# ----------------------------------------------------------------------
# MAC algorithms
# ----------------------------------------------------------------------


def test_mac_backoff_requires_mac_model(sinr_model):
    with pytest.raises(SchedulingError, match="multiple-access"):
        MacBackoffScheduler().run(sinr_model, [0], 10, rng=0)


def test_mac_backoff_delivers_everything(mac_model):
    requests = [0, 1, 2, 3, 4] * 6
    algorithm = MacBackoffScheduler(phi=1.0, delta=0.5)
    budget = algorithm.budget_for(len(requests), len(requests))
    result = algorithm.run(mac_model, requests, budget, rng=3)
    assert result.all_delivered


def test_mac_backoff_history_single_winner_slots(mac_model):
    requests = [0, 1, 2] * 4
    algorithm = MacBackoffScheduler()
    budget = algorithm.budget_for(len(requests), len(requests))
    result = algorithm.run(
        mac_model, requests, budget, rng=1, record_history=True
    )
    for record in result.history:
        if record.succeeded:
            assert len(record.attempted) == 1


def test_mac_backoff_network_bound_leading_constant():
    algorithm = MacBackoffScheduler(delta=0.5)
    bound = algorithm.network_bound(10)
    # f must be at least (1+delta)e and independent of m.
    assert bound.f(10) >= (1.5) * math.e
    assert bound.f(10) == bound.f(10_000)


def test_mac_backoff_parameter_validation():
    with pytest.raises(SchedulingError):
        MacBackoffScheduler(phi=0.5)
    with pytest.raises(SchedulingError):
        MacBackoffScheduler(delta=0.0)


def test_round_robin_exact_length(mac_model):
    requests = [0, 0, 1, 3, 3, 3]  # station 2 and 4 empty
    algorithm = RoundRobinScheduler()
    result = algorithm.run(mac_model, requests, 10_000, rng=None)
    assert result.all_delivered
    assert result.slots_used == len(requests) + mac_model.num_links


def test_round_robin_is_deterministic(mac_model):
    requests = [4, 2, 0, 2]
    a = RoundRobinScheduler().run(mac_model, requests, 100)
    b = RoundRobinScheduler().run(mac_model, requests, 100)
    assert a.delivered == b.delivered


def test_round_robin_requires_mac(sinr_model):
    with pytest.raises(SchedulingError):
        RoundRobinScheduler().run(sinr_model, [0], 10)


def test_round_robin_budget_cutoff(mac_model):
    requests = [0, 1, 2, 3, 4]
    result = RoundRobinScheduler().run(mac_model, requests, 3, rng=None)
    assert len(result.delivered) <= 3
    assert result.slots_used == 3


def test_round_robin_network_bound(mac_net):
    bound = RoundRobinScheduler().network_bound(mac_net.num_links)
    assert bound.f(5) == 1.0
    assert bound.g(5, 100) == 6.0


# ----------------------------------------------------------------------
# Power control
# ----------------------------------------------------------------------


def test_power_control_requires_sinr(mac_model):
    with pytest.raises(SchedulingError, match="SinrModel"):
        PowerControlScheduler().run(mac_model, [0], 10, rng=0)


def test_power_control_delivers(sinr_model):
    requests = random_requests(sinr_model, 20, seed=10)
    algorithm = PowerControlScheduler()
    budget = algorithm.budget_for(
        sinr_model.interference_measure(requests), len(requests)
    )
    result = algorithm.run(sinr_model, requests, budget, rng=11)
    assert result.all_delivered


# ----------------------------------------------------------------------
# Single hop & oracle
# ----------------------------------------------------------------------


def test_single_hop_length_equals_congestion(packet_routing_model):
    requests = [0, 0, 0, 1, 2]
    algorithm = SingleHopScheduler()
    result = algorithm.run(packet_routing_model, requests, 100)
    assert result.all_delivered
    assert result.slots_used == 3  # max queue length


def test_single_hop_network_bound():
    bound = SingleHopScheduler().network_bound(4)
    assert bound.f(4) == 1.0


def test_oracle_outperforms_decay_on_average(sinr_model):
    requests = random_requests(sinr_model, 30, seed=12)
    measure = sinr_model.interference_measure(requests)
    budget = DecayScheduler().budget_for(measure, len(requests))
    oracle = OracleScheduler().run(sinr_model, requests, budget, rng=13)
    decay = DecayScheduler().run(sinr_model, requests, budget, rng=13)
    assert oracle.all_delivered
    assert oracle.slots_used <= decay.slots_used


def test_oracle_greedy_set_is_feasible(sinr_model):
    oracle = OracleScheduler()
    busy = list(range(sinr_model.num_links))
    chosen = oracle.greedy_feasible_set(sinr_model, busy)
    assert chosen
    assert sinr_model.feasible_set(chosen)
