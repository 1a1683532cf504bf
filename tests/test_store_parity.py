"""Store-path protocol runs against golden digests.

The protocol once had two bookkeeping modes: an object-per-packet path
and the struct-of-arrays :class:`~repro.injection.store.PacketStore`
path. Before the object path was deleted, every case below was run
through it and its outcome hashed into ``golden_runs.json`` (keys
under ``protocol/``): the :class:`~repro.core.protocol.FrameReport`
stream, delivery ids and stamps, failed-buffer layout and potential
counters across scheduler × model pairs, the tracer event stream, the
shifted wrapper, Markov injection, and the stdout of
``repro sweep --model packet-routing --nodes 12``. The store path must
reproduce each digest bit for bit.

Re-record (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_store_parity.py --record
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

import repro
from repro.core.frames import FrameParameters
from repro.interference.builders import node_constraint_conflicts
from repro.interference.conflict import ConflictGraphModel
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import grid_network, random_sinr_network
from repro.sinr.weights import linear_power_model

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_runs.json"
)
GOLDEN_PREFIX = "protocol/"


def _random_weights(m: int, seed: int, scale: float = 0.3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.random((m, m)) * scale
    np.fill_diagonal(matrix, 1.0)
    return matrix


def _grid_routing_model():
    net = grid_network(3, 3)
    return PacketRoutingModel(net)


def _grid_conflict_model():
    net = grid_network(3, 3)
    return ConflictGraphModel(net, node_constraint_conflicts(net))


def _grid_affectance_model():
    net = grid_network(3, 3)
    return AffectanceThresholdModel(
        net, _random_weights(net.num_links, seed=7)
    )


def _sinr_model():
    net = random_sinr_network(10, rng=5)
    return linear_power_model(net, alpha=3.0, beta=1.0, noise=0.02)


MODEL_FACTORIES = {
    "packet-routing": _grid_routing_model,
    "conflict": _grid_conflict_model,
    "affectance": _grid_affectance_model,
    "sinr": _sinr_model,
}

SCHEDULER_FACTORIES = {
    "kv": lambda: repro.KvScheduler(),
    "decay": lambda: repro.DecayScheduler(),
    "single-hop": lambda: repro.SingleHopScheduler(),
    "hm": lambda: repro.HmScheduler(),
}


def _params(m: int) -> FrameParameters:
    # Deliberately tight phase-1 budget: overload failures feed the
    # clean-up lottery, so both buffer paths (plain appends and the
    # clean-up refile) execute.
    return FrameParameters(
        frame_length=60,
        phase1_budget=8,
        cleanup_budget=12,
        measure_budget=8.0,
        epsilon=0.5,
        rate=0.2,
        f_m=1.0,
        m=m,
    )


def _run(model_factory, scheduler_factory, frames=25, seed=3, tracer=None):
    model = model_factory()
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, 0.25, num_generators=5, rng=seed + 1000
    )
    protocol = repro.DynamicProtocol(
        model,
        scheduler_factory(),
        0.2,
        params=_params(model.network.size_m),
        cleanup_probability=0.5,
        rng=seed,
        tracer=tracer,
        store=injection.store,
    )
    frame_length = protocol.frame_length
    reports = []
    for frame in range(frames):
        start = frame * frame_length
        batch = injection.indices_for_range(start, start + frame_length)
        reports.append(protocol.run_frame(batch))
    return reports, protocol


def _hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _frame_report_digest(sched_name: str, model_name: str) -> str:
    reports, protocol = _run(
        MODEL_FACTORIES[model_name], SCHEDULER_FACTORIES[sched_name]
    )
    return _hash(
        {
            "reports": [dataclasses.asdict(report) for report in reports],
            "delivered": [p.id for p in protocol.delivered],
            "delivered_at": [p.delivered_at for p in protocol.delivered],
            "failed_buffers": sorted(protocol.failed_buffer_sizes().items()),
            "potential": protocol.potential.series,
            "total_failures": protocol.potential.total_failures,
            "total_cleanup_hops": protocol.potential.total_cleanup_hops,
        }
    )


def _tracer_digest() -> str:
    tracer = repro.Tracer()
    _run(
        _grid_routing_model, SCHEDULER_FACTORIES["single-hop"], tracer=tracer
    )
    return _hash(tracer.to_dicts())


def _shifted_digest() -> str:
    net = grid_network(3, 3)
    model = PacketRoutingModel(net)
    routing = repro.build_routing_table(net)
    paths = [routing.path(s, d) for s, d in routing.pairs() if s == 0]
    adversary = repro.BurstyAdversary(model, paths, window=120, rate=0.2, rng=5)
    tracer = repro.Tracer()
    protocol = repro.ShiftedDynamicProtocol(
        model,
        repro.SingleHopScheduler(),
        0.2,
        window=120,
        params=_params(net.size_m),
        rng=4,
        tracer=tracer,
    )
    simulation = repro.FrameSimulation(protocol, adversary)
    simulation.run(50)
    return _hash(
        {
            "queue": list(simulation.metrics.queue_series),
            "total_failures": protocol.inner.potential.total_failures,
            "delivered": [p.id for p in protocol.delivered],
            "held": protocol.held_count,
            "trace": tracer.to_dicts(),
        }
    )


def _markov_digest() -> str:
    net = grid_network(3, 3)
    model = PacketRoutingModel(net)
    routing = repro.build_routing_table(net)
    paths = [routing.path(s, d) for s, d in routing.pairs()[:8]]
    generators = [repro.PathGenerator([(path, 0.25)]) for path in paths[:4]]
    injection = repro.MarkovModulatedInjection(generators, 0.3, 0.3, rng=21)
    protocol = repro.DynamicProtocol(
        model,
        repro.SingleHopScheduler(),
        0.2,
        params=_params(net.size_m),
        cleanup_probability=0.5,
        rng=8,
    )
    simulation = repro.FrameSimulation(protocol, injection)
    simulation.run(40)
    return _hash(
        {
            "queue": list(simulation.metrics.queue_series),
            "delivered_series": list(simulation.metrics.delivered_series),
            "delivered": [p.id for p in protocol.delivered],
            "potential": protocol.potential.series,
        }
    )


def _sweep_digest() -> str:
    from repro.cli.main import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--model", "packet-routing", "--nodes", "12"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _golden_cases():
    """Golden key -> zero-argument digest function."""
    cases = {}
    for sched_name in sorted(SCHEDULER_FACTORIES):
        for model_name in sorted(MODEL_FACTORIES):
            cases[f"{GOLDEN_PREFIX}frame-report/{sched_name}/{model_name}"] = (
                lambda s=sched_name, m=model_name: _frame_report_digest(s, m)
            )
    cases[GOLDEN_PREFIX + "tracer"] = _tracer_digest
    cases[GOLDEN_PREFIX + "shifted"] = _shifted_digest
    cases[GOLDEN_PREFIX + "markov"] = _markov_digest
    cases[GOLDEN_PREFIX + "sweep-packet-routing-12"] = _sweep_digest
    return cases


def _golden(key: str) -> str:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)[key]


@pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
@pytest.mark.parametrize("sched_name", sorted(SCHEDULER_FACTORIES))
def test_frame_report_parity(sched_name, model_name):
    key = f"{GOLDEN_PREFIX}frame-report/{sched_name}/{model_name}"
    assert _frame_report_digest(sched_name, model_name) == _golden(key)


def test_tracer_stream_parity():
    """Per-packet event streams match the recorded stream, event for event."""
    assert _tracer_digest() == _golden(GOLDEN_PREFIX + "tracer")


def test_shifted_protocol_store_parity():
    """A shifted wrapper built without ``store=`` adopts the adversary's
    store and replays the recorded run, trace included."""
    assert _shifted_digest() == _golden(GOLDEN_PREFIX + "shifted")


def test_markov_injection_store_parity():
    assert _markov_digest() == _golden(GOLDEN_PREFIX + "markov")


def test_sweep_stdout_parity():
    assert _sweep_digest() == _golden(GOLDEN_PREFIX + "sweep-packet-routing-12")


def test_golden_file_covers_the_protocol_cases():
    with open(GOLDEN_PATH) as handle:
        recorded = [k for k in json.load(handle) if k.startswith(GOLDEN_PREFIX)]
    assert sorted(recorded) == sorted(_golden_cases())


def test_store_mode_accepts_views_and_index_lists():
    """run_frame coerces views / plain int lists in store mode."""
    model = _grid_routing_model()
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, 0.25, num_generators=5, rng=11
    )
    protocols = [
        repro.DynamicProtocol(
            model,
            repro.SingleHopScheduler(),
            0.2,
            params=_params(model.network.size_m),
            rng=4,
            store=injection.store,
        )
        for _ in range(3)
    ]
    frame_length = protocols[0].frame_length
    batch = injection.indices_for_range(0, frame_length)
    reports = [
        protocols[0].run_frame(batch),
        protocols[1].run_frame(batch.tolist()),
        protocols[2].run_frame(injection.store.views(batch)),
    ]
    assert reports[0] == reports[1] == reports[2]


def test_store_mode_rejects_foreign_packets():
    """Views from another store, or out-of-store indices, fail loudly
    instead of being reinterpreted against the protocol's arrays."""
    from repro.errors import SchedulingError

    model = _grid_routing_model()
    own_store = repro.PacketStore()
    protocol = repro.DynamicProtocol(
        model,
        repro.SingleHopScheduler(),
        0.2,
        params=_params(model.network.size_m),
        rng=4,
        store=own_store,
    )
    foreign = repro.PacketStore()
    foreign.allocate((0, 1), 0)
    with pytest.raises(SchedulingError, match="different"):
        protocol.run_frame(foreign.views([0]))
    with pytest.raises(SchedulingError, match="outside"):
        protocol.run_frame([3])  # own_store is empty
    for _ in range(3):
        own_store.allocate((0, 1), 0)
    # Non-integer arrays must not be cast into (wrong or repeated)
    # packet indices: 0.9/1.7 would truncate to 0/1, and a boolean
    # mask would name packet 1 twice.
    with pytest.raises(SchedulingError, match="integer"):
        protocol.run_frame(np.array([0.9, 1.7]))
    with pytest.raises(SchedulingError, match="integer"):
        protocol.run_frame(np.array([True, False, True]))
    assert protocol.packets_in_system == 0


def test_store_packets_keep_the_packet_contract():
    """What the deleted ``Packet`` class checked, on store rows: paths
    must be non-empty, views read hop progress and delivery, and a
    latency needs a delivery stamp."""
    from repro.errors import TopologyError

    store = repro.PacketStore()
    with pytest.raises(TopologyError, match="empty path"):
        store.allocate((), 0)
    index = store.allocate((0, 1), 3)
    view = store.view(index)
    assert (view.id, view.path, view.injected_at) == (0, (0, 1), 3)
    assert view.current_link == 0 and view.remaining_hops == 2
    with pytest.raises(TopologyError, match="not delivered"):
        view.latency()
    assert not store.advance_one(index, 10)
    assert view.current_link == 1
    assert store.advance_one(index, 11)
    assert view.is_delivered and view.latency() == 8
    with pytest.raises(TopologyError, match="already delivered"):
        view.current_link


def test_injection_subclass_without_emission_hook_fails_at_construction():
    from repro.injection.base import InjectionProcess

    class Hollow(InjectionProcess):
        pass

    with pytest.raises(TypeError, match="indices_for_slot"):
        Hollow()


def test_engine_auto_detects_shared_store():
    """FrameSimulation binds a protocol built without ``store=`` to the
    injection's store, keeps a matching one, and rejects a foreign one."""
    from repro.errors import ConfigurationError

    model = _grid_routing_model()
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, 0.25, num_generators=5, rng=11
    )

    def protocol(store=None):
        return repro.DynamicProtocol(
            model,
            repro.SingleHopScheduler(),
            0.2,
            params=_params(model.network.size_m),
            rng=4,
            store=store,
        )

    sharing = protocol(injection.store)
    repro.FrameSimulation(sharing, injection)
    assert sharing.store is injection.store

    unbound = protocol()
    assert unbound.store is None
    repro.FrameSimulation(unbound, injection)
    assert unbound.store is injection.store

    # A protocol holding a different store is a configuration error,
    # caught at construction rather than mid-run.
    with pytest.raises(ConfigurationError, match="share"):
        repro.FrameSimulation(protocol(repro.PacketStore()), injection)


def test_unbound_protocol_refuses_to_run_a_frame():
    from repro.errors import ConfigurationError

    model = _grid_routing_model()
    protocol = repro.DynamicProtocol(
        model,
        repro.SingleHopScheduler(),
        0.2,
        params=_params(model.network.size_m),
        rng=4,
    )
    with pytest.raises(ConfigurationError, match="store="):
        protocol.run_frame(np.empty(0, dtype=np.int64))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_store_parity.py --record")
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    golden = {k: v for k, v in golden.items() if not k.startswith(GOLDEN_PREFIX)}
    cases = _golden_cases()
    golden.update({key: digest() for key, digest in cases.items()})
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cases)} protocol digests to {GOLDEN_PATH}")
