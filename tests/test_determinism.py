"""Seed determinism: every stochastic component replays exactly.

The library's reproducibility contract — all randomness flows through
seeded ``numpy`` generators, nothing touches global state — means any
(seed, configuration) pair must produce bit-identical runs. These
tests enforce that end to end for every scenario preset and for each
stochastic component in isolation, and check that *different* seeds
actually diversify outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cli.builders import scenario_names
from repro.core.frames import FrameParameters
from repro.scenario import preset_spec, registry


def run_scenario(name, seed, frames=30, use_store=False):
    scenario = preset_spec(name, nodes=9, seed=0).build(with_protocol=False)
    rate = 0.4 * scenario.certified
    injection = repro.uniform_pair_injection(
        scenario.routing, scenario.model, rate, num_generators=4,
        rng=seed + 1000,
    )
    protocol = repro.DynamicProtocol(
        scenario.model, scenario.algorithm, rate, t_scale=0.001, rng=seed,
        store=injection.store if use_store else None,
    )
    simulation = repro.FrameSimulation(protocol, injection)
    simulation.run(frames)
    return simulation.metrics, protocol


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_replays_bit_identically(name):
    first_metrics, first_protocol = run_scenario(name, seed=5)
    second_metrics, second_protocol = run_scenario(name, seed=5)
    assert first_metrics.queue_series == second_metrics.queue_series
    assert first_metrics.injected_total == second_metrics.injected_total
    assert (
        [p.id for p in first_protocol.delivered]
        == [p.id for p in second_protocol.delivered]
    )
    assert (
        [p.delivered_at for p in first_protocol.delivered]
        == [p.delivered_at for p in second_protocol.delivered]
    )


@pytest.mark.parametrize("name", scenario_names())
def test_store_scenario_replays_bit_identically(name):
    """Engine-level runs through the PacketStore path replay exactly."""
    first_metrics, first_protocol = run_scenario(name, seed=5, use_store=True)
    second_metrics, second_protocol = run_scenario(
        name, seed=5, use_store=True
    )
    assert first_protocol.store is not None
    assert first_metrics.queue_series == second_metrics.queue_series
    assert first_metrics.injected_total == second_metrics.injected_total
    assert (
        [p.id for p in first_protocol.delivered]
        == [p.id for p in second_protocol.delivered]
    )
    assert (
        [p.delivered_at for p in first_protocol.delivered]
        == [p.delivered_at for p in second_protocol.delivered]
    )


@pytest.mark.parametrize("name", scenario_names())
def test_store_and_object_engine_runs_agree(name):
    """The engine's index fast path equals the object path, per scenario."""
    object_metrics, object_protocol = run_scenario(name, seed=5)
    store_metrics, store_protocol = run_scenario(name, seed=5, use_store=True)
    assert object_metrics.queue_series == store_metrics.queue_series
    assert object_metrics.delivered_series == store_metrics.delivered_series
    assert object_metrics.injected_series == store_metrics.injected_series
    assert (
        [p.id for p in object_protocol.delivered]
        == [p.id for p in store_protocol.delivered]
    )


def test_different_seeds_diversify():
    series = []
    for seed in (1, 2, 3):
        metrics, _ = run_scenario("packet-routing", seed=seed, frames=40)
        series.append(tuple(metrics.queue_series))
    assert len(set(series)) > 1


def test_stochastic_injection_replays():
    paths = [((0,), 0.3), ((1,), 0.3)]
    runs = []
    for _ in range(2):
        injection = repro.StochasticInjection(
            [repro.PathGenerator(paths)] * 3, rng=42
        )
        runs.append(
            [
                (p.id, tuple(p.path))
                for slot in range(200)
                for p in injection.packets_for_slot(slot)
            ]
        )
    assert runs[0] == runs[1]


def test_adversaries_replay():
    net = repro.grid_network(3, 3)
    model = repro.PacketRoutingModel(net)
    routing = repro.build_routing_table(net)
    paths = [routing.path(s, d) for s, d in routing.pairs()[:6]]
    for cls in (repro.SmoothAdversary, repro.BurstyAdversary,
                repro.SawtoothAdversary):
        runs = []
        for _ in range(2):
            adversary = cls(model, paths, window=50, rate=0.3, rng=9)
            runs.append(
                [
                    tuple(p.path)
                    for slot in range(300)
                    for p in adversary.packets_for_slot(slot)
                ]
            )
        assert runs[0] == runs[1], cls.__name__


def test_shifted_protocol_replays():
    net = repro.grid_network(3, 3)
    model = repro.PacketRoutingModel(net)
    params = FrameParameters(
        frame_length=100, phase1_budget=30, cleanup_budget=20,
        measure_budget=30.0, epsilon=0.5, rate=0.2, f_m=1.0, m=net.size_m,
    )
    routing = repro.build_routing_table(net)
    paths = [routing.path(s, d) for s, d in routing.pairs() if s == 0]
    outcomes = []
    for _ in range(2):
        protocol = repro.ShiftedDynamicProtocol(
            model, repro.SingleHopScheduler(), 0.2, window=200,
            params=params, rng=4,
        )
        adversary = repro.BurstyAdversary(model, paths, window=200,
                                          rate=0.2, rng=5)
        simulation = repro.FrameSimulation(protocol, adversary)
        simulation.run(80)
        outcomes.append(
            (
                tuple(simulation.metrics.queue_series),
                protocol.inner.potential.total_failures,
                len(protocol.delivered),
            )
        )
    assert outcomes[0] == outcomes[1]


def test_tracer_streams_replay():
    outcomes = []
    for _ in range(2):
        net = repro.grid_network(3, 3)
        model = repro.PacketRoutingModel(net)
        tracer = repro.Tracer()
        params = FrameParameters(
            frame_length=60, phase1_budget=4, cleanup_budget=20,
            measure_budget=6.0, epsilon=0.5, rate=0.1, f_m=1.0,
            m=net.size_m,
        )
        protocol = repro.DynamicProtocol(
            model, repro.SingleHopScheduler(), 0.1, params=params,
            cleanup_probability=0.5, rng=6, tracer=tracer,
        )
        routing = repro.build_routing_table(net)
        injection = repro.uniform_pair_injection(
            routing, model, 0.1, num_generators=6, rng=7
        )
        simulation = repro.FrameSimulation(protocol, injection)
        simulation.run(60)
        outcomes.append(tuple(tracer.to_dicts()[0].items())
                        if tracer.to_dicts() else None)
        outcomes.append(len(tracer))
    assert outcomes[0] == outcomes[2]
    assert outcomes[1] == outcomes[3]


def test_static_algorithms_replay():
    net = repro.random_sinr_network(10, rng=3)
    model = repro.linear_power_model(net, alpha=3.0, beta=1.0, noise=0.02)
    requests = [i % model.num_links for i in range(30)]
    for algorithm in (repro.DecayScheduler(), repro.KvScheduler()):
        results = []
        for _ in range(2):
            result = algorithm.run(
                model, requests, budget=400,
                rng=np.random.default_rng(11),
            )
            results.append((tuple(result.delivered), result.slots_used))
        assert results[0] == results[1], algorithm.name


@pytest.mark.parametrize("name", registry.names("scheduler"))
def test_recording_history_leaves_the_run_unchanged(name):
    """A run on a MAC model delivers the same packets in the same
    slots, and leaves its generator where it would, whether or not it
    records its history."""
    model = repro.MultipleAccessChannel(repro.mac_network(6))
    requests = [i % model.num_links for i in range(300)]
    scheduler = registry.resolve("scheduler", name)()
    for seed in range(3):
        outcomes = []
        for record_history in (False, True):
            gen = np.random.default_rng(seed)
            result = scheduler.run(model, requests, 4000, rng=gen,
                                   record_history=record_history)
            outcomes.append((result.delivered, result.remaining,
                             result.slots_used, gen.random()))
        assert outcomes[0] == outcomes[1], (name, seed)


def test_fading_and_unreliable_models_replay():
    net = repro.random_sinr_network(8, rng=12)
    runs = []
    for _ in range(2):
        model = repro.RayleighFadingSinrModel(
            net, alpha=3.0, beta=1.0, noise=0.01, rng=3
        )
        runs.append([tuple(sorted(model.successes([0, 1, 2])))
                     for _ in range(40)])
    assert runs[0] == runs[1]

    base = repro.PacketRoutingModel(repro.line_network(4))
    runs = []
    for _ in range(2):
        model = repro.UnreliableModel(base, 0.5, rng=8)
        runs.append([tuple(sorted(model.successes([0, 1])))
                     for _ in range(40)])
    assert runs[0] == runs[1]


def test_markov_injection_replays_and_diversifies():
    generators = [repro.PathGenerator([((0,), 0.5)])]
    seeds_series = {}
    for seed in (1, 1, 2):
        process = repro.MarkovModulatedInjection(
            generators, 0.2, 0.2, rng=seed
        )
        trace = tuple(
            len(process.packets_for_slot(t)) for t in range(300)
        )
        seeds_series.setdefault(seed, []).append(trace)
    assert seeds_series[1][0] == seeds_series[1][1]
    assert seeds_series[1][0] != seeds_series[2][0]


def test_global_numpy_state_untouched():
    """Library calls must not consume numpy's global RNG stream."""
    np.random.seed(1234)
    before = np.random.random()
    np.random.seed(1234)
    run_scenario("packet-routing", seed=0, frames=10)
    net = repro.random_sinr_network(8, rng=1)
    repro.RayleighFadingSinrModel(net, noise=0.01, rng=2).successes([0, 1])
    after = np.random.random()
    assert before == after
