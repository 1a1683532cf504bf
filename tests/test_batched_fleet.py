"""The serial ``BatchedExecutor`` and ``run_batched_streams``.

``repro.scenario.batched`` keeps these two names for the benchmark's
fleet workload (``perfbench/``): ``BatchedExecutor.map`` hands its units
to the module global ``run_batched_streams`` in one list, which runs
each through ``unit.run()``. Its records must equal the serial
executor's across the scheduler x model matrix, under both metrics
modes, for every fleet shape (singletons, mixed frame counts, idle
members, mixed schedulers and models), and a campaign driven through it
must emit the serial frontier JSON. Units of every kind (schedulers
without a fused policy, the scalar backend, checkpointed units) run
the same way, silently. ``--executor batched`` is no longer an
executor name.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    ScenarioSpec,
    preset_spec,
    registry,
    run_scenario_fleet,
)
from repro.scenario.batched import BatchedExecutor
from repro.scenario.campaign import campaign_from_data, run_campaign
from repro.scenario.fleet import FleetUnit
from repro.sim.runner import CellResult
from repro.sim.sharding import SerialExecutor, make_executor

# scheduler x model combinations the parity matrix pins. Node budgets
# stay small: bit-identity is a structural property, not a scale one.
MATRIX_SPECS = {
    "kv-linear": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="linear-power",
        scheduler="kv",
        transform=True,
        frames=20,
    ),
    "decay-linear-transformed": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="linear-power",
        scheduler="decay",
        transform=True,
        frames=20,
    ),
    "fkv-conflict": ScenarioSpec(
        topology="grid",
        topology_kwargs={"rows": 3, "cols": 3},
        model="conflict-node",
        scheduler="fkv",
        transform=True,
        frames=20,
    ),
    "hm-linear": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="linear-power",
        scheduler="hm",
        frames=20,
    ),
    "kv-unreliable": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="unreliable",
        model_kwargs={"loss_probability": 0.2},
        scheduler="kv",
        transform=True,
        frames=20,
    ),
    "singlehop-routing": ScenarioSpec(
        topology="grid",
        topology_kwargs={"rows": 3, "cols": 3},
        model="packet-routing",
        scheduler="single-hop",
        frames=20,
    ),
}


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


def _assert_batched_matches_serial(specs):
    serial = run_scenario_fleet(specs, SerialExecutor())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = run_scenario_fleet(specs, BatchedExecutor())
    assert records_equal(serial.records, batched.records)
    assert serial.summary == batched.summary
    return serial, batched


# ----------------------------------------------------------------------
# The scheduler x model x metrics parity matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metrics", ["full", "streaming"])
@pytest.mark.parametrize("combo", sorted(MATRIX_SPECS))
def test_batched_parity_matrix(combo, metrics):
    base = MATRIX_SPECS[combo]
    specs = [
        base.replace(seed=seed, metrics=metrics) for seed in (0, 1, 2)
    ]
    _assert_batched_matches_serial(specs)


def test_every_batchable_scheduler_is_covered():
    """The matrix covers every registered scheduler with a fused
    policy."""
    fused = {
        name for name in registry.names("scheduler")
        if hasattr(registry.resolve("scheduler", name)(), "fused_policy")
    }
    covered = {spec.scheduler for spec in MATRIX_SPECS.values()}
    assert covered == fused


# ----------------------------------------------------------------------
# Fleet shapes: singletons, mixed frames, idle members, mixed fleets
# ----------------------------------------------------------------------


def test_batch_of_one():
    _assert_batched_matches_serial(
        [MATRIX_SPECS["hm-linear"].replace(seed=3)]
    )


def test_mixed_frames_batch_together():
    """Networks with fewer frames leave the others' private RNG streams
    untouched."""
    base = MATRIX_SPECS["kv-linear"]
    specs = [
        base.replace(seed=seed, frames=frames)
        for seed, frames in ((0, 20), (1, 40), (2, 25))
    ]
    _assert_batched_matches_serial(specs)


def test_idle_member_batches_with_busy_peers():
    """A network whose injection produces (next to) nothing — its
    sub-runs are born finished — runs beside busy peers."""
    base = MATRIX_SPECS["hm-linear"]
    specs = [
        base.replace(seed=0, rate_mode="absolute", rate=1e-6),
        base.replace(seed=1, rate_mode="absolute", rate=0.5),
    ]
    _assert_batched_matches_serial(specs)


def test_mixed_fleet_runs_in_one_batch(monkeypatch):
    """Units of different schedulers, models and sizes reach the module
    global ``run_batched_streams`` in one list, and parity holds across
    them."""
    import repro.scenario.batched as batched_mod

    sizes: list = []
    real = batched_mod.run_batched_streams

    def spy(streams):
        sizes.append(len(streams))
        return real(streams)

    monkeypatch.setattr(batched_mod, "run_batched_streams", spy)
    base = MATRIX_SPECS["kv-linear"]
    _assert_batched_matches_serial([
        base.replace(seed=0),
        base.replace(seed=1, topology_kwargs={"num_nodes": 14}),
        MATRIX_SPECS["hm-linear"].replace(seed=2),
        MATRIX_SPECS["fkv-conflict"].replace(seed=3),
    ])
    assert sizes == [4]


# ----------------------------------------------------------------------
# Every unit kind, and the executor name
# ----------------------------------------------------------------------


# These three once asserted a BatchFallbackWarning; no unit falls back
# any more, so each now asserts parity with the serial executor and that
# ``unit.run()`` runs it silently.


def test_unbatchable_scheduler_warns_and_matches_serial():
    """A scheduler without a fused policy runs through ``unit.run()``,
    without a warning."""
    round_robin = ScenarioSpec(
        topology="mac",
        topology_kwargs={"num_stations": 4},
        model="mac",
        scheduler="round-robin",
        frames=20,
    )
    _assert_batched_matches_serial(
        [round_robin.replace(seed=seed) for seed in (0, 1)]
    )


def test_scalar_backend_warns_and_matches_serial():
    """A scalar-backend unit runs through ``unit.run()``, without a
    warning."""
    _assert_batched_matches_serial([
        MATRIX_SPECS["kv-linear"].replace(seed=seed, backend="scalar")
        for seed in (0, 1)
    ])


def test_checkpointed_unit_warns_and_matches(tmp_path):
    """A checkpointed unit runs through ``unit.run()``, without a
    warning."""
    plain = FleetUnit(spec=MATRIX_SPECS["singlehop-routing"].replace(seed=4),
                      index=0)
    unit = plain.with_checkpoint(str(tmp_path / "unit.ckpt"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = BatchedExecutor().map([unit])
    assert records_equal([plain.run()], got)


def test_make_executor_rejects_batched():
    with pytest.raises(ConfigurationError, match="unknown executor"):
        make_executor("batched")


# ----------------------------------------------------------------------
# Preset fleets and the campaign frontier
# ----------------------------------------------------------------------


def test_preset_fleet_batches_bit_identically():
    specs = [
        preset_spec("sinr-linear", nodes=8, seed=seed, frames=20,
                    scheduler="hm")
        for seed in range(4)
    ]
    _assert_batched_matches_serial(specs)


CAMPAIGN_DATA = {
    "name": "batched-frontier",
    "axes": {
        "topology": [{"name": "mac", "kwargs": {"num_stations": 4}}],
        "model": ["mac"],
        "scheduler": ["single-hop", {"name": "decay", "transform": True}],
        "injection": ["uniform-pairs"],
    },
    "seeds": [0, 1],
    "frames": 20,
    "search": {"rate_low": 0.5, "rate_high": 2.0, "tolerance": 0.5},
}


def test_campaign_frontier_bit_identical_batched():
    """The frontier document is byte-for-byte the serial one when every
    probe wave runs through ``BatchedExecutor``."""
    spec = campaign_from_data(CAMPAIGN_DATA)
    serial = run_campaign(spec, executor=SerialExecutor()).to_json()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = run_campaign(spec, executor=BatchedExecutor()).to_json()
    assert serial == batched
