"""ScenarioSpec / sweep-unit serialization and validation edge cases.

The scenario layer's contract is that a spec is *plain data*: it
round-trips through JSON bit-exactly into the same records, survives
any pickle protocol and multiprocessing start method, and normalises
numpy scalars and arrays on the way out. These tests pin the edges of
that contract — numpy-typed kwargs, spawn-context pickling, unknown
fields, and the validation errors that keep malformed specs from
reaching a worker.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, preset_spec, sweep_units
from repro.scenario.fleet import specs_from_data
from repro.sim.sharding import ProcessExecutor

HAS_SPAWN = "spawn" in multiprocessing.get_all_start_methods()
needs_spawn = pytest.mark.skipif(
    not HAS_SPAWN, reason="spawn start method unavailable"
)

#: A small, fast scenario used throughout (grid is deterministic, so
#: only rate/seed/frames distinguish runs).
GRID_SPEC = ScenarioSpec(
    topology="grid",
    topology_kwargs={"rows": 3, "cols": 3},
    model="packet-routing",
    scheduler="single-hop",
    frames=25,
)


class TestNumpyNormalisation:
    def test_numpy_scalars_in_kwargs_normalise(self):
        spec = ScenarioSpec(
            topology="grid",
            topology_kwargs={"rows": np.int64(3), "cols": np.int32(3)},
            model="packet-routing",
            scheduler="single-hop",
            rate=np.float64(0.5),
            frames=25,
        )
        data = spec.to_dict()
        assert type(data["topology_kwargs"]["rows"]) is int
        assert type(data["topology_kwargs"]["cols"]) is int
        # json must accept the whole payload without a custom encoder.
        text = json.dumps(data)
        rebuilt = ScenarioSpec.from_json(text)
        assert rebuilt.topology_kwargs == {"rows": 3, "cols": 3}

    def test_numpy_arrays_in_kwargs_normalise_to_lists(self):
        pairs = np.array([[0, 1], [1, 2]], dtype=np.int64)
        spec = GRID_SPEC.replace(
            injection_kwargs={"pairs": pairs, "num_generators": np.int64(4)}
        )
        data = spec.to_dict()
        assert data["injection_kwargs"]["pairs"] == [[0, 1], [1, 2]]
        assert type(data["injection_kwargs"]["pairs"][0][0]) is int
        json.dumps(data)

    def test_rate_field_numpy_scalar_round_trips_bit_exact(self):
        rate = np.float64(0.487123498761234)
        spec = GRID_SPEC.replace(rate=rate, rate_mode="fraction")
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.rate == float(rate)

    def test_unserialisable_kwargs_fail_at_to_dict(self):
        spec = GRID_SPEC.replace(topology_kwargs={"rows": 3, "cols": object()})
        with pytest.raises(ConfigurationError, match="cannot serialise"):
            spec.to_dict()

    def test_numpy_typed_kwargs_produce_identical_records(self):
        plain = GRID_SPEC.run()
        numpy_typed = ScenarioSpec(
            topology="grid",
            topology_kwargs={"rows": np.int64(3), "cols": np.int64(3)},
            model="packet-routing",
            scheduler="single-hop",
            rate=np.float64(0.5),
            frames=np.int64(25),
        ).run()
        assert plain == numpy_typed


class TestJsonRoundTrip:
    @pytest.mark.parametrize("preset", ["packet-routing", "mac"])
    def test_round_trip_equality_and_identical_records(self, preset):
        spec = preset_spec(preset, nodes=9, seed=2, frames=25)
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.run() == spec.run()

    def test_random_topology_round_trip_identical_records(self):
        spec = preset_spec("sinr-linear", nodes=8, seed=4, frames=25)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.run() == spec.run()

    def test_unknown_fields_rejected(self):
        data = GRID_SPEC.to_dict()
        data["topologyy"] = "grid"
        with pytest.raises(ConfigurationError, match="topologyy"):
            ScenarioSpec.from_dict(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            ScenarioSpec.from_dict(["grid"])

    def test_spec_file_shapes(self):
        one = GRID_SPEC.to_dict()
        assert len(specs_from_data(one)) == 1
        assert len(specs_from_data([one, one])) == 2
        assert len(specs_from_data({"specs": [one]})) == 1
        with pytest.raises(ConfigurationError, match="spec file"):
            specs_from_data("not-a-spec")


class TestValidation:
    def test_bad_rate_mode(self):
        with pytest.raises(ConfigurationError, match="rate_mode"):
            GRID_SPEC.replace(rate_mode="relative")

    def test_bad_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            GRID_SPEC.replace(backend="cuda")

    def test_bad_frames_and_rate(self):
        with pytest.raises(ConfigurationError, match="frames"):
            GRID_SPEC.replace(frames=0)
        with pytest.raises(ConfigurationError, match="rate"):
            GRID_SPEC.replace(rate=0.0)

    def test_too_few_frames_to_assess(self):
        # A shorter run would simulate its whole horizon, then fail the
        # stability assessment, which needs 20 frames.
        with pytest.raises(ConfigurationError, match="frames must be >= 20"):
            GRID_SPEC.replace(frames=19)
        with pytest.raises(ConfigurationError, match="frames must be >= 20"):
            specs_from_data({**GRID_SPEC.to_dict(), "frames": 1})
        assert GRID_SPEC.replace(frames=20).frames == 20

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(False), "1"])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            GRID_SPEC.replace(seed=seed)
        data = {**GRID_SPEC.to_dict(), "seed": seed}
        with pytest.raises(ConfigurationError, match="seed"):
            specs_from_data(data)

    def test_numpy_integer_seed_accepted(self):
        spec = GRID_SPEC.replace(seed=np.int64(3))
        assert spec.fingerprint() == GRID_SPEC.replace(seed=3).fingerprint()

    def test_empty_component_name(self):
        with pytest.raises(ConfigurationError, match="topology"):
            GRID_SPEC.replace(topology="")

    def test_unknown_component_surfaces_at_build(self):
        spec = GRID_SPEC.replace(scheduler="no-such-scheduler")
        with pytest.raises(ConfigurationError, match="no-such-scheduler"):
            spec.build()

    def test_dotted_path_topology_without_seed_param_builds(self):
        # Third-party callables resolved by module:function path need
        # no 'seed' parameter; the spec seed is only injected into
        # builders that accept one.
        spec = GRID_SPEC.replace(
            topology="repro.network.topology:grid_network",
            topology_kwargs={"rows": 3, "cols": 3},
        )
        built = spec.build(with_protocol=False)
        assert built.network.num_nodes == 9
        assert spec.run() == GRID_SPEC.run()

    def test_scenario_cell_rejects_zero_rate_at_construction(self):
        with pytest.raises(ConfigurationError, match="rate must be positive"):
            sweep_units(GRID_SPEC, [0.1, 0.0], [0])


class TestPickling:
    def test_spec_pickles_across_protocols(self):
        spec = preset_spec("sinr-linear", nodes=8, seed=1)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(spec, protocol)) == spec

    def test_cellspec_with_scenario_pickles(self):
        # A sweep cell is a FleetUnit carrying its whole scenario.
        (cell,) = sweep_units(GRID_SPEC, [0.2], [0])
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert clone.run() == cell.run()

    @needs_spawn
    def test_scenario_cells_run_in_spawn_workers(self):
        # Spawn workers inherit nothing: the unpickle of ScenarioSpec
        # itself must re-register the built-in components.
        cells = sweep_units(GRID_SPEC, [0.1, 0.3], [0])
        serial = [cell.run() for cell in cells]
        spawned = ProcessExecutor(workers=2, start_method="spawn").map(cells)
        assert spawned == serial
