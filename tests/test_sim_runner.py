"""Rate sweeps over the packet-routing baseline."""

import pytest

from repro.core.protocol import DynamicProtocol
from repro.injection.stochastic import PathGenerator, StochasticInjection
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import line_network
from repro.scenario import ScenarioSpec, sweep_units
from repro.sim.runner import aggregate_rate_sweep, simulate_protocol
from repro.sim.sharding import SerialExecutor
from repro.staticsched.single_hop import SingleHopScheduler


NET = line_network(3)
MODEL = PacketRoutingModel(NET)

#: One generator pushing the 2-hop path 0 -> 2; the line certifies 0.5,
#: so rates past it overload the protocol (provisioned at the cap).
SPEC = ScenarioSpec(
    topology="line",
    topology_kwargs={"num_nodes": 3},
    model="packet-routing",
    scheduler="single-hop",
    injection_kwargs={"pairs": [[0, 2]], "num_generators": 1},
    t_scale=0.01,
)


def sweep(rates, frames, seeds):
    units = sweep_units(SPEC.replace(frames=frames), rates, seeds)
    return aggregate_rate_sweep(SerialExecutor().map(units))


def make_protocol(rate, seed):
    # The protocol is provisioned for rate 0.5 regardless of the actual
    # injection: phase 1 can then serve ~0.75 T hops per frame on a
    # link, so per-slot arrival probability 1.0 genuinely overloads it.
    return DynamicProtocol(
        MODEL, SingleHopScheduler(), rate=0.5, t_scale=0.01, rng=seed
    )


def make_injection(rate, seed, protocol):
    # One generator pushing a 2-hop path at per-slot probability = rate.
    generator = PathGenerator([((0, 1), min(rate, 1.0))])
    return StochasticInjection([generator], rng=seed)


def test_simulate_protocol_returns_engine():
    simulation = simulate_protocol(
        make_protocol(0.3, 0), make_injection(0.3, 0, None), frames=25
    )
    assert simulation.metrics.frames == 25


def test_sweep_stable_below_capacity_unstable_above():
    records = sweep(rates=[0.4, 1.0], frames=60, seeds=(0, 1))
    assert records[0].stable
    assert not records[1].stable


def test_sweep_record_fields():
    records = sweep(rates=[0.2], frames=40, seeds=(0,))
    record = records[0]
    assert record.rate == 0.2
    assert record.seeds == 1
    assert 0.0 <= record.stable_fraction <= 1.0
    assert record.mean_throughput >= 0.0
    assert len(record.verdicts) == 1


def test_sweep_rates_are_processed_in_order():
    records = sweep(rates=[0.1, 0.2, 0.3], frames=20, seeds=(0,))
    assert [record.rate for record in records] == [0.1, 0.2, 0.3]


def test_sweep_aggregates_across_seeds():
    records = sweep(rates=[0.3], frames=30, seeds=(0, 1, 2))
    record = records[0]
    assert record.seeds == 3
    assert len(record.verdicts) == 3
    # stable_fraction is the mean of the per-seed verdicts.
    expected = sum(1.0 for v in record.verdicts if v.stable) / 3
    assert record.stable_fraction == pytest.approx(expected)


def test_sweep_default_load_uses_frame_length():
    # The drift detector normalises by rate * T of the built protocol:
    # the same run assessed by hand at that load gives the same verdict.
    from repro.sim.engine import FrameSimulation

    cell = SPEC.replace(rate=0.3, rate_mode="absolute", frames=30)
    built = cell.build()
    simulation = FrameSimulation(built.protocol, built.injection)
    simulation.run(30)
    by_hand = simulation.metrics.stability_verdict(
        load_per_frame=max(1.0, 0.3 * built.protocol.frame_length)
    )
    records = sweep(rates=[0.3], frames=30, seeds=(0,))
    assert records[0].verdicts[0] == by_hand


def test_sweep_record_majority_verdict():
    from repro.sim.runner import RateSweepRecord

    record = RateSweepRecord(
        rate=0.5, seeds=3, stable_fraction=2 / 3,
        mean_tail_queue=0.0, mean_throughput=0.0, mean_latency=0.0,
    )
    assert record.stable
    record.stable_fraction = 1 / 3
    assert not record.stable


def test_sweep_empty_rates_returns_empty():
    assert sweep(rates=[], frames=20, seeds=(0,)) == []


def test_sweep_accepts_generator_seeds():
    # Regression: ``seeds`` used to be re-consumed after iteration
    # (``len(list(seeds))``), so a generator yielded ``seeds=0`` on the
    # first rate and silently skipped every later rate's cells. The
    # grid must be materialised exactly once.
    from_list = sweep(rates=[0.2, 0.3], frames=30, seeds=[0, 1])
    from_generator = sweep(
        rates=[0.2, 0.3], frames=30, seeds=(seed for seed in (0, 1))
    )
    assert len(from_generator) == 2
    for expected, record in zip(from_list, from_generator):
        assert record.seeds == 2
        assert len(record.verdicts) == 2
        assert record.stable_fraction == expected.stable_fraction
        assert record.mean_tail_queue == expected.mean_tail_queue
        assert record.mean_throughput == expected.mean_throughput


def test_sweep_accepts_generator_rates():
    from_generator = sweep(
        rates=(rate for rate in (0.1, 0.2)), frames=20, seeds=(0,)
    )
    assert [record.rate for record in from_generator] == [0.1, 0.2]


def test_measure_cell_and_aggregate_match_sweep():
    # The staged pipeline (measure cells, then aggregate) is exactly
    # what a sweep's units do through an executor.
    from repro.sim.runner import measure_cell

    results = []
    for index, rate in enumerate([0.2, 0.3]):
        for seed in (0, 1):
            cell = SPEC.replace(rate=rate, rate_mode="absolute", seed=seed)
            built = cell.build()
            results.append(
                measure_cell(
                    built.protocol,
                    built.injection,
                    30,
                    rate=rate,
                    seed=seed,
                    rate_index=index,
                )
            )
    staged = aggregate_rate_sweep(results)
    direct = sweep(rates=[0.2, 0.3], frames=30, seeds=(0, 1))
    assert len(staged) == len(direct) == 2
    for a, b in zip(staged, direct):
        assert (a.rate, a.seeds, a.stable_fraction, a.mean_tail_queue,
                a.mean_throughput) == (b.rate, b.seeds, b.stable_fraction,
                                       b.mean_tail_queue, b.mean_throughput)
        assert a.verdicts == b.verdicts


def test_duplicate_rates_stay_distinct_records():
    # Two sweep rows at the same rate must not merge in aggregation
    # (cells group by position in the rate list, not by float value).
    records = sweep(rates=[0.2, 0.2], frames=20, seeds=(0,))
    assert len(records) == 2
    assert records[0].rate == records[1].rate == 0.2


def test_simulate_protocol_latency_bookkeeping():
    simulation = simulate_protocol(
        make_protocol(0.3, 0), make_injection(0.3, 0, None), frames=60
    )
    protocol = simulation.protocol
    summary = simulation.metrics.latency_summary(protocol.delivered)
    # Two-hop path, one hop per frame: every delivered packet spans at
    # least one full frame from injection to delivery.
    if protocol.delivered:
        fastest = min(
            p.delivered_at - p.injected_at for p in protocol.delivered
        )
        assert fastest >= protocol.frame_length
        assert summary.mean >= fastest
        assert summary.maximum >= summary.p95 >= summary.median
