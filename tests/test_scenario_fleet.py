"""The fleet runner's executor-invisibility contract.

``run_scenario_fleet`` must be record-for-record identical between the
serial loop and process executors, across scheduler x topology x
backend combinations — and a spec that went through JSON must produce
the same records as the original. These are the acceptance criteria of
the scenario layer: if any of this drifts, a fleet sharded across
workers silently stops reproducing the serial campaign.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    FleetUnit,
    ScenarioSpec,
    aggregate_fleet,
    preset_spec,
    run_scenario_fleet,
    sweep_units,
)
from repro.sim.runner import CellResult, aggregate_rate_sweep
from repro.sim.sharding import SerialExecutor, make_executor
from repro.sim.stability import StabilityVerdict

# scheduler x topology x model combinations the parity matrix pins.
# Node budgets stay small: parity is a structural property, not a
# scale property, and every cell runs 3x (serial, process, json).
MATRIX_SPECS = {
    "grid-singlehop": ScenarioSpec(
        topology="grid",
        topology_kwargs={"rows": 3, "cols": 3},
        model="packet-routing",
        scheduler="single-hop",
        frames=25,
    ),
    "mac-roundrobin": ScenarioSpec(
        topology="mac",
        topology_kwargs={"num_stations": 4},
        model="mac",
        scheduler="round-robin",
        frames=25,
    ),
    "random-decay-transformed": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="linear-power",
        scheduler="decay",
        transform=True,
        frames=25,
    ),
}

BACKENDS_UNDER_TEST = (None, "numpy", "scalar")


def records_equal(left, right) -> bool:
    """CellResult equality, NaN-aware on the latency mean."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (
            math.isnan(a.latency)
            and math.isnan(b.latency)
            and a.rate_index == b.rate_index
        ):
            a = CellResult(**{**a.__dict__, "latency": 0.0})
            b = CellResult(**{**b.__dict__, "latency": 0.0})
        if a != b:
            return False
    return True


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("combo", sorted(MATRIX_SPECS))
def test_fleet_parity_serial_process_json(combo, backend):
    base = MATRIX_SPECS[combo].replace(backend=backend)
    specs = [
        base.replace(seed=0),
        base.replace(seed=1),
        # Mixed frame counts: a shorter member leaves the others' RNG
        # streams untouched.
        base.replace(seed=2, frames=20),
        # An idle member: its injection produces (next to) nothing, so
        # its runs are born finished.
        base.replace(seed=3, rate_mode="absolute", rate=1e-6),
    ]
    serial = run_scenario_fleet(specs, SerialExecutor())
    process = run_scenario_fleet(specs, make_executor("process", workers=2))
    json_trip = run_scenario_fleet(
        [ScenarioSpec.from_json(spec.to_json()) for spec in specs],
        SerialExecutor(),
    )
    assert records_equal(serial.records, process.records), (
        f"{combo} backend={backend}: process fleet diverged from serial"
    )
    assert records_equal(serial.records, json_trip.records), (
        f"{combo} backend={backend}: JSON round-trip changed the records"
    )
    assert serial.summary == process.summary


def test_fleet_records_keep_spec_order():
    specs = [
        MATRIX_SPECS["grid-singlehop"].replace(seed=seed)
        for seed in (5, 3, 1)
    ]
    result = run_scenario_fleet(specs)
    assert [r.rate_index for r in result.records] == [0, 1, 2]
    assert [r.seed for r in result.records] == [5, 3, 1]


def test_backend_choice_never_changes_records():
    base = MATRIX_SPECS["random-decay-transformed"]
    reference = run_scenario_fleet([base.replace(backend="scalar")])
    fused = run_scenario_fleet([base.replace(backend="numpy")])
    assert records_equal(reference.records, fused.records)


def test_sweep_cells_carrying_scenarios_shard_identically():
    base = MATRIX_SPECS["grid-singlehop"]
    certified = base.build(with_protocol=False).certified
    cells = sweep_units(
        base.replace(frames=25), [0.5 * certified, 1.2 * certified], [0, 1]
    )
    serial = aggregate_rate_sweep(SerialExecutor().map(cells))
    process = make_executor("process", workers=2)
    sharded = aggregate_rate_sweep(process.map(cells))
    assert len(serial) == 2
    for a, b in zip(serial, sharded):
        assert a.seeds == b.seeds
        assert a.stable_fraction == b.stable_fraction
        assert a.mean_tail_queue == b.mean_tail_queue
        assert a.mean_throughput == b.mean_throughput
        assert a.verdicts == b.verdicts
        assert a.mean_latency == b.mean_latency or (
            math.isnan(a.mean_latency) and math.isnan(b.mean_latency)
        )


def test_fleet_over_preset_distribution():
    # The headline workload: one preset, many random instances — every
    # network is a different draw, rebuilt inside its runner.
    specs = [
        preset_spec("sinr-linear", nodes=8, seed=seed, frames=25)
        for seed in range(3)
    ]
    result = run_scenario_fleet(specs)
    networks = {
        tuple(
            (link.sender, link.receiver)
            for link in spec.build(with_protocol=False).network.links
        )
        for spec in specs
    }
    assert len(networks) == 3, "seeds must draw distinct instances"
    assert result.summary.networks == 3
    assert result.summary.total_injected == sum(
        r.injected for r in result.records
    )


class TestAggregation:
    @staticmethod
    def _record(index, stable, latency, tail=10.0, through=2.0,
                injected=50, delivered=40):
        return CellResult(
            rate_index=index,
            rate=0.5,
            seed=index,
            verdict=StabilityVerdict(
                stable=stable,
                slope_per_frame=0.0,
                normalised_slope=0.0,
                blowup_ratio=1.0,
                tail_mean=tail,
            ),
            tail_queue=tail,
            throughput=through,
            latency=latency,
            frame_length=6,
            injected=injected,
            delivered=delivered,
            failures=0,
        )

    def test_summary_statistics(self):
        result = aggregate_fleet([
            self._record(0, True, 10.0, tail=4.0, through=1.0),
            self._record(1, False, 20.0, tail=8.0, through=3.0),
        ])
        summary = result.summary
        assert summary.networks == 2
        assert summary.stable_fraction == 0.5
        assert summary.mean_tail_queue == 6.0
        assert summary.mean_throughput == 2.0
        assert summary.mean_latency == 15.0
        assert summary.total_injected == 100
        assert summary.total_delivered == 80

    def test_nan_latency_is_skipped_not_poisoning(self):
        result = aggregate_fleet([
            self._record(0, True, float("nan"), delivered=0),
            self._record(1, True, 30.0),
        ])
        assert result.summary.mean_latency == 30.0

    def test_all_nan_latency_stays_nan(self):
        result = aggregate_fleet([
            self._record(0, True, float("nan"), delivered=0),
        ])
        assert math.isnan(result.summary.mean_latency)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="empty fleet"):
            aggregate_fleet([])
        with pytest.raises(ConfigurationError, match="at least one"):
            run_scenario_fleet([])

    def test_fleet_unit_carries_index_into_record(self):
        unit = FleetUnit(spec=MATRIX_SPECS["grid-singlehop"], index=7)
        assert unit.run().rate_index == 7
