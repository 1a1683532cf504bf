"""Serial vs sharded sweeps must be record-for-record identical.

A sweep cell is a :class:`~repro.scenario.fleet.FleetUnit` carrying one
``ScenarioSpec`` at the cell's (rate, seed). The executor's whole
contract is that executor choice is invisible in the results: the same
units produce bit-identical ``RateSweepRecord`` lists whether they run
in-process, through a 1-worker pool, or across n workers. These tests
pin that contract on scheduler x injection combinations, including
NaN-latency cells (seeds that deliver nothing), and pin the spec path
against the same cells built by hand.
"""

from __future__ import annotations

import math
import multiprocessing

import pytest

from repro.core.protocol import DynamicProtocol
from repro.errors import ConfigurationError
from repro.injection.stochastic import uniform_pair_injection
from repro.interference.mac import MultipleAccessChannel
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.routing import build_routing_table
from repro.network.topology import line_network, mac_network
from repro.scenario import FleetUnit, ScenarioSpec, sweep_units
from repro.scenario import components
from repro.scenario.registry import register, resolve
from repro.sim.runner import aggregate_rate_sweep, measure_cell
from repro.sim.resilience import FaultTolerantExecutor
from repro.sim.sharding import SerialExecutor, make_executor
from repro.staticsched.round_robin import RoundRobinScheduler
from repro.staticsched.single_hop import SingleHopScheduler

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-executor parity tests assume fork workers",
)

#: net -> the spec fields naming its network and interference model.
_NETS = {
    "line": {"topology": "line", "topology_kwargs": {"num_nodes": 4},
             "model": "packet-routing"},
    "mac": {"topology": "mac", "topology_kwargs": {"num_stations": 4},
            "model": "mac"},
}
#: net -> the one routed pair a "path" injection pushes.
_PATH_PAIRS = {"line": [0, 2], "mac": [0, 4]}


def _injection_kwargs(net, kind):
    """uniform-pairs kwargs: one generator on one pair, or four uniform."""
    if kind == "path":
        return {"pairs": [_PATH_PAIRS[net]], "num_generators": 1}
    return {"num_generators": 4}


# scheduler x injection combinations the parity contract is pinned on.
COMBOS = [
    ("line", "single-hop", "path"),
    ("line", "single-hop", "uniform"),
    ("mac", "round-robin", "path"),
    ("mac", "round-robin", "uniform"),
]

# Both nets certify 0.5, so these straddle the stability boundary.
RATES = [0.2, 0.9]
SEEDS = (0, 1)
FRAMES = 40


def spec_for(net, scheduler, kind, frames=FRAMES):
    return ScenarioSpec(
        **_NETS[net],
        scheduler=scheduler,
        injection_kwargs=_injection_kwargs(net, kind),
        t_scale=0.01,
        frames=frames,
    )


def units_for(net, scheduler, kind, rates=RATES, seeds=SEEDS):
    return sweep_units(spec_for(net, scheduler, kind), rates, seeds)


def run_sweep(spec, rates, seeds, executor=None):
    executor = executor or SerialExecutor()
    return aggregate_rate_sweep(executor.map(sweep_units(spec, rates, seeds)))


def closures_for(net, scheduler, kind):
    """The same cells wired by hand, without the spec layer."""
    network = line_network(4) if net == "line" else mac_network(4)
    model = (
        PacketRoutingModel(network)
        if net == "line"
        else MultipleAccessChannel(network)
    )
    routing = build_routing_table(network)
    injection_kwargs = _injection_kwargs(net, kind)
    if "pairs" in injection_kwargs:
        injection_kwargs["pairs"] = [
            tuple(pair) for pair in injection_kwargs["pairs"]
        ]

    def run_cell(rate, seed, rate_index):
        injection = uniform_pair_injection(
            routing, model, rate, rng=seed + 1000, **injection_kwargs
        )
        algorithm = (
            SingleHopScheduler()
            if scheduler == "single-hop"
            else RoundRobinScheduler()
        )
        protocol = DynamicProtocol(
            model,
            algorithm,
            min(rate, 0.5),  # provisioned at the certified rate cap
            t_scale=0.01,
            rng=seed,
            store=injection.store,
        )
        return measure_cell(
            protocol, injection, FRAMES,
            rate=rate, seed=seed, rate_index=rate_index,
        )

    return run_cell


def assert_sweeps_identical(left, right):
    """Field-for-field record equality, NaN-aware on latency means."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.rate == b.rate
        assert a.seeds == b.seeds
        assert a.stable_fraction == b.stable_fraction
        assert a.mean_tail_queue == b.mean_tail_queue
        assert a.mean_throughput == b.mean_throughput
        assert a.mean_latency == b.mean_latency or (
            math.isnan(a.mean_latency) and math.isnan(b.mean_latency)
        )
        assert a.verdicts == b.verdicts


# ----------------------------------------------------------------------
# Spec path == hand-built path (in-process)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("net,scheduler,kind", COMBOS)
def test_spec_run_matches_closure_run(net, scheduler, kind):
    run_cell = closures_for(net, scheduler, kind)
    by_hand = aggregate_rate_sweep(
        [
            run_cell(rate, seed, index)
            for index, rate in enumerate(RATES)
            for seed in SEEDS
        ]
    )
    sharded = run_sweep(spec_for(net, scheduler, kind), RATES, SEEDS)
    assert_sweeps_identical(by_hand, sharded)
    # Sanity: the combo actually straddles the boundary, so the parity
    # assertion is not comparing degenerate all-stable tables.
    assert by_hand[0].stable_fraction > by_hand[-1].stable_fraction


# ----------------------------------------------------------------------
# Process pools == serial, 1 worker and n workers, same units
# ----------------------------------------------------------------------


@needs_fork
def test_process_executor_matches_serial_one_and_n_workers():
    spec = spec_for("line", "single-hop", "uniform")
    serial = run_sweep(spec, RATES, SEEDS, SerialExecutor())
    one_worker = run_sweep(
        spec, RATES, SEEDS, make_executor("process", workers=1)
    )
    n_workers = run_sweep(
        spec, RATES, SEEDS, make_executor("process", workers=3)
    )
    assert_sweeps_identical(serial, one_worker)
    assert_sweeps_identical(serial, n_workers)


@needs_fork
@pytest.mark.slow
@pytest.mark.parametrize("net,scheduler,kind", COMBOS)
def test_process_parity_full_matrix(net, scheduler, kind):
    units = units_for(net, scheduler, kind)
    serial = aggregate_rate_sweep(SerialExecutor().map(units))
    for workers in (1, 3):
        sharded = aggregate_rate_sweep(
            make_executor("process", workers=workers).map(units)
        )
        assert_sweeps_identical(serial, sharded)


@needs_fork
def test_nan_latency_cells_survive_the_pool():
    # A vanishing rate injects nothing in the horizon, so its latency
    # summaries are NaN; the NaN-aware aggregation must behave
    # identically on both paths.
    units = units_for("line", "single-hop", "path", rates=[1e-9, 0.25])
    serial = aggregate_rate_sweep(SerialExecutor().map(units))
    process = make_executor("process", workers=2)
    sharded = aggregate_rate_sweep(process.map(units))
    assert math.isnan(serial[0].mean_latency)
    assert math.isnan(sharded[0].mean_latency)
    assert not math.isnan(serial[1].mean_latency)
    assert_sweeps_identical(serial, sharded)


@needs_fork
def test_run_rate_sweep_accepts_a_process_executor():
    # The one-call sweep takes any executor: same records as its
    # default in-process loop.
    spec = spec_for("mac", "round-robin", "path")
    serial = run_sweep(spec, RATES, SEEDS)
    sharded = run_sweep(
        spec, RATES, SEEDS, make_executor("process", workers=2)
    )
    assert_sweeps_identical(serial, sharded)


@needs_fork
def test_cell_results_align_with_specs():
    units = units_for("line", "single-hop", "path")
    for executor in (SerialExecutor(), make_executor("process", workers=2)):
        results = executor.map(units)
        assert [(r.rate_index, r.rate, r.seed) for r in results] == [
            (u.index, u.spec.rate, u.spec.seed) for u in units
        ]


# ----------------------------------------------------------------------
# Unit generation and component resolution
# ----------------------------------------------------------------------


def test_sweep_specs_materializes_generators_rate_major():
    units = sweep_units(
        spec_for("line", "single-hop", "path"),
        (r for r in (0.1, 0.2)),
        (s for s in (0, 1, 2)),
    )
    assert [(u.spec.rate, u.spec.seed) for u in units] == [
        (0.1, 0), (0.1, 1), (0.1, 2), (0.2, 0), (0.2, 1), (0.2, 2)
    ]
    assert [u.index for u in units] == [0, 0, 0, 1, 1, 1]
    assert {u.spec.rate_mode for u in units} == {"absolute"}


def test_cell_spec_validation():
    # A bad cell fails while the units are generated, not mid-sweep
    # inside a worker.
    spec = spec_for("line", "single-hop", "path")
    with pytest.raises(ConfigurationError, match="frames"):
        spec.replace(frames=0)
    with pytest.raises(ConfigurationError, match="rate"):
        sweep_units(spec, [0.0], [0])
    with pytest.raises(ConfigurationError, match="seed"):
        sweep_units(spec, [0.1], [-1])


def test_unknown_builder_name_raises():
    spec = spec_for("line", "single-hop", "path").replace(
        scheduler="no-such-builder"
    )
    with pytest.raises(ConfigurationError, match="no-such-builder"):
        run_sweep(spec, [0.1], [0])


def test_duplicate_registration_rejected():
    def other():
        raise AssertionError("never built")

    with pytest.raises(ConfigurationError):
        register("scheduler", "single-hop", other)
    # Re-registering the same callable is a no-op.
    register("scheduler", "single-hop", SingleHopScheduler)


def test_dotted_path_resolution():
    builder = resolve(
        "injection", "repro.scenario.components:injection_uniform_pairs"
    )
    assert builder is components.injection_uniform_pairs
    with pytest.raises(ConfigurationError):
        resolve("injection", "repro.scenario.components:not_a_builder")
    with pytest.raises(ConfigurationError):
        resolve("injection", "no.such.module:builder")


def test_make_executor():
    assert isinstance(make_executor("serial"), SerialExecutor)
    process = make_executor("process", workers=2)
    assert isinstance(process, FaultTolerantExecutor)
    assert process.workers == 2
    assert process.retry_policy.max_retries == 0
    with pytest.raises(ConfigurationError):
        make_executor("threads")
    with pytest.raises(ConfigurationError):
        make_executor("process", workers=0)
    with pytest.raises(ConfigurationError, match="no extra options"):
        make_executor("process", workers=2, max_retries=1)


def test_empty_spec_list_is_empty_sweep():
    assert run_sweep(spec_for("line", "single-hop", "path"), [], SEEDS) == []
    assert make_executor("process", workers=2).map([]) == []


def test_mixed_rates_in_one_group_rejected():
    # Hand-built units that forget distinct indices must not be
    # silently averaged into one record.
    spec = spec_for("line", "single-hop", "path", frames=25)
    units = [
        FleetUnit(spec=spec.replace(rate=rate, rate_mode="absolute"), index=0)
        for rate in (0.1, 0.5)
    ]
    with pytest.raises(ConfigurationError, match="rate_index"):
        aggregate_rate_sweep(SerialExecutor().map(units))
