"""The run-loop backend layer: selection, chunked RNG, lazy history.

Complements ``test_kernel_parity`` (which pins full-run equality per
backend × scheduler × model) with the machinery-level contracts:

* chunk-pre-drawn uniforms equal per-slot draws for arbitrary
  take/chunk interleavings, and the generator lands on the exact
  per-slot stream position afterwards (hypothesis sweep);
* backend resolution — ``auto``, retired lane names, the scalar
  reference winning ties, per-cell backend pinning in sharded sweeps;
* the single-hop policy's attempters are every busy local index,
  before and after compaction;
* ``LazySlotHistory`` behaves like the eager ``List[SlotRecord]`` it
  replaced (equality, concatenation, merge, feasibility consumers);
* threshold-boundary instances and protocol-shaped generator sharing
  replay the per-slot transcriptions in ``reference_loops``, and lone
  SINR transmitters at the ``beta·noise`` edge replay the scalar
  reference;
* the numpy engine — window scans over event-sparse stretches, slot
  steps over event-dense ones — replays the scalar reference, which
  steps every slot (hypothesis sweep over policy, model, requests,
  budget and history recording, with drain-heavy HM examples);
* HM's column-map compaction equals re-slicing its submatrix at every
  drain, bit for bit;
* decay's guarded measure estimate: it stays within its rounding
  bound of the exact measure (hypothesis sweep), a forced fallback
  (a wide guard band) still replays the scalar reference, bare and
  under the transform, and models that override the measure bind
  exactly;
* on an overloaded sparse HM fleet, serial runs step at most 5% of the
  slots they simulate: the scans clear the rest.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.steps import AlgorithmCall, drive_steps
from repro.core.transform import TransformedAlgorithm
from repro.errors import ConfigurationError, SchedulingError
from repro.interference.mac import MultipleAccessChannel
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import mac_network, random_sinr_network
from repro.scenario import preset_spec, run_scenario_fleet
from repro.sim.sharding import SerialExecutor
from repro.sinr.model import SinrModel
from repro.sinr.power import ExplicitPower
from repro.staticsched import (
    DecayScheduler,
    FkvScheduler,
    HmScheduler,
    KvScheduler,
    SingleHopScheduler,
)
import repro.staticsched.runloop as runloop
from repro.staticsched.base import LazySlotHistory, RunResult, SlotRecord
from repro.staticsched.runloop import (
    BACKENDS,
    ChunkedUniforms,
    DecayPolicy,
    FusedTask,
    HmPolicy,
    KvPolicy,
    SingleHopPolicy,
    available_backends,
    default_backend,
    resolve_backend,
    scalar_reference,
    set_default_backend,
    use_backend,
)
from reference_loops import run_reference
from test_kernel_parity import _conflict_model, _sinr_model


def _random_weights(m: int, seed: int, scale: float = 0.35) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.random((m, m)) * scale
    np.fill_diagonal(matrix, 1.0)
    return matrix


def _affectance_model(m: int = 10, seed: int = 11, threshold: float = 1.0):
    return AffectanceThresholdModel(
        mac_network(m), _random_weights(m, seed=seed), threshold=threshold
    )


# ----------------------------------------------------------------------
# Chunked RNG parity
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chunk_slots=st.integers(min_value=1, max_value=80),
    takes=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                   max_size=30),
)
def test_chunked_uniforms_match_per_slot_draws(seed, chunk_slots, takes):
    """Any interleaving of take sizes and chunk sizes replays the
    stream of separate per-slot draws, values and final state both."""
    ref_gen = np.random.default_rng(seed)
    expected = [ref_gen.random(k).copy() for k in takes]

    gen = np.random.default_rng(seed)
    chunk = ChunkedUniforms(gen, chunk_slots=chunk_slots)
    got = [chunk.take(k).copy() for k in takes]
    chunk.finalize()

    for want, have in zip(expected, got):
        assert np.array_equal(want, have)
    # finalize() must rewind overdraw: the generator sits exactly
    # where the per-slot draws left theirs.
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    assert gen.random() == ref_gen.random()


def test_chunked_uniforms_shared_generator_across_runs():
    """Back-to-back runs on one generator (the protocol's pattern)
    stay aligned with the per-slot reference."""
    takes_a, takes_b = [5, 5, 3], [7, 2]
    ref = np.random.default_rng(3)
    expected = [ref.random(k).copy() for k in takes_a + takes_b]

    gen = np.random.default_rng(3)
    got = []
    for takes in (takes_a, takes_b):
        chunk = ChunkedUniforms(gen, chunk_slots=4)
        got.extend(chunk.take(k).copy() for k in takes)
        chunk.finalize()
    for want, have in zip(expected, got):
        assert np.array_equal(want, have)
    assert gen.bit_generator.state == ref.bit_generator.state


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def test_backend_registry_names():
    assert BACKENDS == ("auto", "numpy", "scalar")
    assert available_backends() == ("scalar", "numpy")


@pytest.mark.parametrize("name", ["numba", "kernel"])
def test_retired_backends_rejected(name):
    """The removed lanes fail loudly, naming themselves as retired."""
    assert resolve_backend("auto") == "numpy"
    with pytest.raises(ConfigurationError, match="retired"):
        resolve_backend(name)
    with pytest.raises(ConfigurationError, match="retired"):
        set_default_backend(name)
    with pytest.raises(ConfigurationError, match="retired"):
        with use_backend(name):
            pass


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        resolve_backend("fortran")
    with pytest.raises(ConfigurationError):
        set_default_backend("fortran")
    with pytest.raises(ConfigurationError):
        with use_backend("fortran"):
            pass
    # The scalar short-circuit must not swallow the validation.
    with scalar_reference():
        with pytest.raises(ConfigurationError):
            resolve_backend("fortran")


def test_use_backend_nests_and_restores():
    assert default_backend() == "auto"
    with use_backend("numpy"):
        assert resolve_backend() == "numpy"
        with use_backend("scalar"):
            assert resolve_backend() == "scalar"
        assert resolve_backend() == "numpy"
    assert resolve_backend() == "numpy"


def test_scalar_reference_wins_ties():
    """A scalar verification context cannot be overridden from below —
    nested explicit backend selections still resolve to scalar."""
    with scalar_reference():
        assert resolve_backend() == "scalar"
        with use_backend("numpy"):
            assert resolve_backend() == "scalar"
        assert resolve_backend("numpy") == "scalar"
    assert resolve_backend() != "scalar"


def test_set_default_backend_round_trip():
    try:
        set_default_backend("scalar")
        assert resolve_backend() == "scalar"
    finally:
        set_default_backend("auto")


# ----------------------------------------------------------------------
# Single-hop attempters
# ----------------------------------------------------------------------


def test_single_hop_attempts_every_busy_link():
    """The single-hop policy's attempters are every busy local index,
    before and after compaction."""
    model = _affectance_model()
    busy = np.arange(4)
    policy = SingleHopPolicy()
    policy.bind(model, [0, 1, 2, 3], busy, np.ones(4, dtype=np.int64))
    assert policy.attempt(None, None).tolist() == [0, 1, 2, 3]
    policy.compact(np.array([True, False, True, True]))
    assert policy.attempt(None, None).tolist() == [0, 1, 2]


@pytest.mark.parametrize("recovery_slots", [0, -3])
def test_kv_policy_rejects_recovery_below_one(recovery_slots):
    """KV's recovery test (``last_reset == slot - R``) is exact only
    for ``R >= 1``: a streak then reaches the threshold one slot at a
    time and never steps over it."""
    with pytest.raises(SchedulingError, match="recovery_slots"):
        KvPolicy(0.125, 1e-4, 0.5, recovery_slots)


# ----------------------------------------------------------------------
# Lazy history
# ----------------------------------------------------------------------


def _kv_history(backend: str, seed: int = 5):
    model = _affectance_model()
    rng = np.random.default_rng(seed)
    requests = list(rng.integers(0, model.num_links, size=20))
    with use_backend(backend):
        return KvScheduler().run(
            model, requests, 120,
            rng=np.random.default_rng(seed + 1), record_history=True,
        )


def test_lazy_history_list_compatibility():
    result = _kv_history("numpy")
    history = result.history
    assert isinstance(history, LazySlotHistory)
    assert len(history) > 0
    # Indexing, negative indexing, slicing, iteration.
    first = history[0]
    assert isinstance(first, SlotRecord)
    assert history[-1] == history[len(history) - 1]
    assert history[1:3] == list(history)[1:3]
    assert all(isinstance(r, SlotRecord) for r in history)
    with pytest.raises(IndexError):
        history[len(history)]
    # Equality against a plain list of SlotRecords, both directions.
    eager = [SlotRecord(r.attempted, r.succeeded) for r in history]
    assert history == eager
    assert eager == list(history)
    assert not (history == eager[:-1])
    # Concatenation materialises like list + list.
    assert history + eager == eager + eager
    assert eager + history == eager + eager


def test_lazy_history_merge_after():
    a = _kv_history("numpy", seed=5)
    b = _kv_history("scalar", seed=9)
    merged = a.merge_after(
        RunResult(
            delivered=b.delivered,
            remaining=b.remaining,
            slots_used=b.slots_used,
            history=b.history,
        )
    )
    assert merged.history == list(a.history) + list(b.history)
    assert merged.slots_used == a.slots_used + b.slots_used


@pytest.mark.parametrize("backend", ["scalar", "numpy"])
def test_history_feasibility_consumers(backend):
    """The schedule-feasibility pattern used across the test suite —
    re-checking every recorded slot against the model's predicate —
    keeps working on lazily materialised histories."""
    model = _affectance_model()
    rng = np.random.default_rng(2)
    requests = list(rng.integers(0, model.num_links, size=18))
    with use_backend(backend):
        result = SingleHopScheduler().run(
            model, requests, 60, rng=0, record_history=True
        )
    assert result.history is not None
    assert len(result.history) == result.slots_used
    for record in result.history:
        attempted = list(record.attempted)
        assert set(record.succeeded) == model.successes(attempted)
        assert attempted == sorted(attempted)
        assert list(record.succeeded) == sorted(record.succeeded)


# ----------------------------------------------------------------------
# Threshold-boundary parity (exact-summation guard paths)
# ----------------------------------------------------------------------


def _boundary_model(m: int = 6, threshold: float = 1.0):
    """Impacts land exactly on the threshold for 1 + 2·threshold
    transmitters: 0.5 off-diagonal entries, integer-valued sums."""
    weights = np.full((m, m), 0.5)
    np.fill_diagonal(weights, 1.0)
    return AffectanceThresholdModel(
        mac_network(m), weights, threshold=threshold
    )


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("sched_factory", [
    lambda: KvScheduler(initial_probability=0.6),
    lambda: SingleHopScheduler(),
], ids=["kv", "single-hop"])
def test_threshold_boundary_parity(backend, sched_factory):
    requests = list(range(6)) * 3
    with use_backend(backend):
        run = sched_factory().run(
            _boundary_model(), requests, 200,
            rng=np.random.default_rng(3), record_history=True,
        )
    reference = run_reference(
        sched_factory(), _boundary_model(), requests, 200,
        rng=np.random.default_rng(3), record_history=True,
    )
    assert run.delivered == reference.delivered
    assert run.remaining == reference.remaining
    assert run.history == reference.history


def _drift_model():
    """Three links whose all-transmit slot after a drop lands inside the
    affectance evaluator's guard band.

    Link 0 suffers 0.2 from link 1 and 0.4 from link 2; the threshold
    is its exact impact from link 1 alone. Once link 2 drains, the
    maintained row sum ``((1 + 0.2) + 0.4) - 0.4`` exceeds the fresh
    ``1 + 0.2`` by a few ulps, so only the exact re-sum lets link 0 win.
    """
    weights = np.array([[1.0, 0.2, 0.4],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0]])
    threshold = float(np.array([1.0, 0.2]).sum() - 1.0)
    return AffectanceThresholdModel(mac_network(3), weights,
                                    threshold=threshold)


def test_all_transmit_guard_band_after_drop():
    """Slot 1: everyone transmits, link 0 loses (impact 0.6) and link 2
    drains. Slot 2: links 0 and 1 transmit; link 0's impact is exactly
    the threshold, and the maintained sum is a few ulps above it."""
    model = _drift_model()
    evaluator = model.batch_evaluator(np.arange(3))
    assert evaluator.successes_local(np.arange(3)).tolist() == [
        False, True, True]
    evaluator.drop(np.array([True, True, False]))
    drifted = evaluator._row_sums[0] - evaluator._diag[0]
    assert 0 < drifted - model.threshold < 1e-9
    assert evaluator.successes_local(np.arange(2)).tolist() == [True, True]
    assert model.successes([0, 1]) == {0, 1}

    requests = [0, 1, 1, 2]
    with use_backend("numpy"):
        run = SingleHopScheduler().run(model, requests, 10,
                                       record_history=True)
    reference = run_reference(SingleHopScheduler(), _drift_model(),
                              requests, 10, record_history=True)
    assert run.slots_used == reference.slots_used == 2
    assert run.delivered == reference.delivered == [1, 3, 0, 2]
    assert run.history == reference.history


def _lone_boundary_model():
    """Links whose lone ``p·g`` sits at the SINR edge.

    The lone verdict is ``p·g >= beta·noise - 1e-12``. The explicit
    powers put each link's ``p·g`` on that edge, a few ulps or a few
    1e-13 to either side of it, or within 1e-12 of ``beta·noise``.
    """
    net = random_sinr_network(6, rng=3)
    m = net.num_links
    beta, noise = 1.5, 0.4
    edge = beta * (0.0 + noise) - 1e-12
    targets = [
        edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
        edge - 4e-16, edge + 4e-16, edge - 3e-13, edge + 3e-13,
        beta * noise, beta * noise - 9e-13, beta * noise + 9e-13,
    ]
    gains = SinrModel(net, beta=beta, noise=noise).signal_strengths()
    powers = np.resize(np.array(targets), m) / gains
    weights = np.full((m, m), 0.05)
    np.fill_diagonal(weights, 1.0)
    return SinrModel(net, beta=beta, noise=noise,
                     power=ExplicitPower(powers), weight_matrix=weights)


@pytest.mark.parametrize("sched_factory", [
    lambda: DecayScheduler(probability_scale=8.0),
    lambda: KvScheduler(initial_probability=0.1),
], ids=["decay", "kv"])
def test_lone_sinr_boundary_parity(sched_factory):
    """Lone-transmitter verdicts at the SINR edge replay the scalar
    reference."""
    model = _lone_boundary_model()
    lone = np.array([model.singleton_succeeds(e)
                     for e in range(model.num_links)])
    assert lone.any() and not lone.all()
    requests = list(range(model.num_links)) * 2
    seeds = (3, 4)

    def outcomes(run_one):
        return [run_one(np.random.default_rng(seed)) for seed in seeds]

    def serial(gen):
        result = sched_factory().run(model, requests, 300, rng=gen,
                                     record_history=True)
        return _outcome(result, gen)

    with scalar_reference():
        reference = outcomes(serial)
    with use_backend("numpy"):
        assert outcomes(serial) == reference


# ----------------------------------------------------------------------
# Generator-state parity through protocol-shaped call sequences
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", available_backends())
def test_generator_state_matches_reference_after_runs(backend):
    """Back-to-back runs sharing one generator (the dynamic protocol's
    exact pattern) leave the stream where the reference leaves it."""
    model = _affectance_model()
    rng = np.random.default_rng(8)
    requests = list(rng.integers(0, model.num_links, size=22))

    second = list(rng.integers(0, model.num_links, size=9))

    gen_ref = np.random.default_rng(13)
    ref_a = run_reference(KvScheduler(), model, requests, 90, rng=gen_ref)
    ref_mid = gen_ref.random()
    ref_b = run_reference(DecayScheduler(), model, second, 50, rng=gen_ref)

    gen = np.random.default_rng(13)
    with use_backend(backend):
        got_a = KvScheduler().run(model, requests, 90, rng=gen)
        got_mid = gen.random()
        got_b = DecayScheduler().run(model, second, 50, rng=gen)
    assert got_a.delivered == ref_a.delivered
    assert got_mid == ref_mid
    assert got_b.delivered == ref_b.delivered
    assert gen.bit_generator.state == gen_ref.bit_generator.state


# ----------------------------------------------------------------------
# Backend threading through sharded sweeps
# ----------------------------------------------------------------------


def test_cellspec_backend_pins_and_pickles():
    # A sweep cell is a FleetUnit; its spec carries the backend.
    from repro.scenario import ScenarioSpec, sweep_units
    from repro.sim.sharding import SerialExecutor

    spec = ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 6},
        model="linear-power",
        scheduler="single-hop",
        t_scale=0.01,
        frames=25,
        backend="numpy",
    )
    units = sweep_units(spec, [0.02], [0])
    assert all(unit.spec.backend == "numpy" for unit in units)
    clone = pickle.loads(pickle.dumps(units[0]))
    assert clone.spec.backend == "numpy"

    scalar_units = sweep_units(spec.replace(backend="scalar"), [0.02], [0])
    fused = SerialExecutor().map(units)
    scalar = SerialExecutor().map(scalar_units)
    # Backends are bit-identical, so pinning different backends per
    # cell cannot change any record.
    assert fused[0].injected > 0
    for a, b in zip(fused, scalar):
        assert a == b


# ----------------------------------------------------------------------
# Scan-versus-step parity
# ----------------------------------------------------------------------


def _phased_model():
    """Event density sparse, then dense, then sparse under HM.

    Links 0-39 ("heavy") load every link's contention by 1, links
    40-59 ("light") and 60 ("tail") load only themselves. While the
    heavy links are busy every HM probability is about ``chi / 41``;
    once they have drained the light links transmit at ``chi`` each
    (dense); once those have drained the tail link is alone, at ``chi``
    (sparse).
    """
    weights = np.zeros((61, 61))
    weights[:, :40] = 1.0
    np.fill_diagonal(weights, 1.0)
    return AffectanceThresholdModel(mac_network(61), weights, threshold=1.0)


PHASED_REQUESTS = list(range(40)) + list(range(40, 60)) * 3 + [60] * 12

PARITY_MODELS = {
    "affectance": lambda: _affectance_model(m=12, seed=5),
    "conflict": _conflict_model,
    "sinr": _sinr_model,
    "phased": _phased_model,
    # Identity W through the pass-through evaluator (HM on it is the
    # markov-bursty workload's slot loop).
    "packet-routing": lambda: PacketRoutingModel(mac_network(12)),
}

#: Policy name -> factory of (sparsity knob, secondary knob), each 0-3;
#: a higher sparsity knob means rarer attempts. The secondary knob is
#: KV's recovery streak and FKV's phase length.
PARITY_POLICIES = {
    "decay": lambda knob, extra: DecayScheduler(
        probability_scale=(4.0, 16.0, 64.0, 256.0)[knob]
    ),
    "hm": lambda knob, extra: HmScheduler(
        chi=(0.25, 0.1, 0.01, 0.002)[knob]
    ),
    "fkv": lambda knob, extra: FkvScheduler(
        probability_scale=(4.0, 16.0, 64.0, 256.0)[knob],
        phase_scale=(6.0, 1.0, 0.3, 0.05)[extra],
    ),
    "kv": lambda knob, extra: KvScheduler(
        initial_probability=(0.125, 0.05, 0.01, 0.002)[knob],
        recovery_slots=(1, 2, 5, 40)[extra],
    ),
}


def _outcome(result, gen):
    history = None if result.history is None else list(result.history)
    return (
        list(result.delivered),
        list(result.remaining),
        result.slots_used,
        history,
        gen.bit_generator.state,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    policy=st.sampled_from(sorted(PARITY_POLICIES)),
    model=st.sampled_from(sorted(PARITY_MODELS)),
    knob=st.integers(0, 3),
    extra=st.integers(0, 3),
    links=st.lists(st.integers(0, 63), max_size=60),
    budget=st.integers(0, 700),
    record_history=st.booleans(),
    seed=st.integers(0, 2**16),
)
# The budget ends inside a scanned window.
@example(policy="hm", model="affectance", knob=3, extra=0,
         links=list(range(12)) * 2, budget=300, record_history=True,
         seed=1)
# KV's recovery horizon: windows end exactly where a streak recovers.
@example(policy="kv", model="affectance", knob=3, extra=2,
         links=list(range(12)) * 3, budget=500, record_history=False,
         seed=2)
@example(policy="kv", model="sinr", knob=2, extra=3,
         links=list(range(30)), budget=600, record_history=True, seed=3)
# FKV phase boundaries inside the scanned stretches.
@example(policy="fkv", model="conflict", knob=2, extra=2,
         links=list(range(12)) * 2, budget=700, record_history=True,
         seed=4)
# Sparse, then dense, then sparse again (see _phased_model).
@example(policy="hm", model="phased", knob=1, extra=0,
         links=PHASED_REQUESTS, budget=700, record_history=True, seed=5)
# Drain-heavy HM at chi 0.25: most links hold one packet, so links
# drain within a few slots of each other, several in one slot.
@example(policy="hm", model="packet-routing", knob=0, extra=0,
         links=list(range(12)) + [0, 1], budget=60, record_history=True,
         seed=6)
@example(policy="hm", model="affectance", knob=0, extra=0,
         links=list(range(12)) + [0, 1, 2], budget=400,
         record_history=True, seed=7)
# Backed-off KV links recovering inside scanned stretches: a window
# one slot past the recovery horizon changes the run.
@example(policy="kv", model="conflict", knob=0, extra=2,
         links=list(range(12)) * 3, budget=500, record_history=False,
         seed=0)
# KV recovering after one idle slot (recovery_slots=1): a streak
# reaches the threshold on the slot after every attempt.
@example(policy="kv", model="affectance", knob=1, extra=0,
         links=list(range(12)) * 2, budget=400, record_history=True,
         seed=8)
# Drain-heavy KV at p0 0.125: links drain a few slots apart, several in
# one slot, so the idle-streak stamps are compacted between recoveries.
@example(policy="kv", model="affectance", knob=0, extra=1,
         links=list(range(12)) + [0, 1, 2], budget=400,
         record_history=True, seed=9)
def test_scan_matches_scalar_reference(
    policy, model, knob, extra, links, budget, record_history, seed
):
    """The numpy engine, scanning or stepping, replays the scalar
    reference: delivered and remaining order, slots used, history and
    the generator's end state."""
    instance = PARITY_MODELS[model]()
    requests = [e % instance.num_links for e in links]
    scheduler = PARITY_POLICIES[policy](knob, extra)

    gen = np.random.default_rng(seed)
    with scalar_reference():
        reference = _outcome(
            scheduler.run(instance, requests, budget, rng=gen,
                          record_history=record_history),
            gen,
        )
    gen = np.random.default_rng(seed)
    with use_backend("numpy"):
        via_run = _outcome(
            scheduler.run(instance, requests, budget, rng=gen,
                          record_history=record_history),
            gen,
        )
    assert via_run == reference
    # The task itself, built and run directly.
    gen = np.random.default_rng(seed)
    task = FusedTask(scheduler.fused_policy(), instance, requests, budget,
                     gen, record_history)
    assert _outcome(task.run(), gen) == reference


def test_phased_run_switches_sparse_dense_sparse(monkeypatch):
    """The phased example really exercises both mode switches.

    A scanning pass asks ``_scan_state`` for the thresholds and a
    stepped slot asks the policy's ``attempt``, so the run's call
    trace shows its modes: a stepping stretch is a run of attempts
    with no scan in between.
    """
    trace = []
    scan_state = runloop._scan_state

    def traced_scan_state(policy, depths):
        trace.append("s")
        return scan_state(policy, depths)

    monkeypatch.setattr(runloop, "_scan_state", traced_scan_state)
    policy = PARITY_POLICIES["hm"](1, 0).fused_policy()
    attempt = policy.attempt

    def traced_attempt(u, depths):
        trace.append("a")
        return attempt(u, depths)

    policy.attempt = traced_attempt
    FusedTask(policy, _phased_model(), PHASED_REQUESTS, 700,
              np.random.default_rng(5)).run()
    stepping = "a" * (2 * runloop.DENSITY_SPAN)
    # Stepping first (the start), then scanning, stepping, scanning.
    first_scan = trace.index("s")
    dense = "".join(trace).find(stepping, first_scan)
    assert dense > first_scan
    assert "s" in trace[dense + len(stepping):]


#: Stepped slots may be at most this share of the slots simulated.
STEPPED_FRACTION_CEILING = 0.05


def test_sparse_fleet_steps_at_most_5_percent_of_slots(monkeypatch):
    """An overloaded fleet of small ``sinr-linear`` networks under HM at
    ``chi = 0.002`` (long, almost event-free frame runs), run serially:
    the scans clear at least 95% of the slots every task simulates.

    ``HmPolicy.update``, called once for every slot a task runs through
    its slot body, counts the slots no scan cleared, and
    ``FusedTask.finish`` the slots each run took."""
    counts = {"slots": 0, "stepped": 0}
    update, finish = HmPolicy.update, FusedTask.finish

    def counted_update(policy, att_idx, ok):
        counts["stepped"] += 1
        return update(policy, att_idx, ok)

    def counted_finish(task):
        counts["slots"] += task.slots
        return finish(task)

    monkeypatch.setattr(HmPolicy, "update", counted_update)
    monkeypatch.setattr(FusedTask, "finish", counted_finish)
    specs = [
        preset_spec(
            "sinr-linear", nodes=(10, 11, 12)[seed % 3], seed=seed,
            frames=20, scheduler="hm", scheduler_kwargs={"chi": 0.002},
            transform=False, rate_mode="absolute", rate=0.2,
        )
        for seed in range(4)
    ]
    run_scenario_fleet(specs, SerialExecutor())
    assert 0 < counts["stepped"] < counts["slots"]
    assert counts["stepped"] / counts["slots"] <= STEPPED_FRACTION_CEILING


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), m=st.integers(2, 60))
def test_hm_compaction_matches_step_by_step_reslice(seed, m):
    """HM's contention after a chain of compactions equals, bit for bit,
    re-slicing the shrunken submatrix at every step and subtracting the
    drained columns' row sums (``sub[ix_(keep, gone)]``)."""
    rng = np.random.default_rng(seed)
    # Entries spread over many magnitudes, so a different summation
    # order would show in the last bits.
    weights = rng.random((m, m)) * 10.0 ** rng.uniform(-9, 0, (m, m))
    np.fill_diagonal(weights, 1.0)
    model = AffectanceThresholdModel(mac_network(m), weights, threshold=1.0)
    busy = np.arange(m)
    policy = HmPolicy(0.25)
    policy.bind(model, list(busy), busy, np.ones(m, dtype=np.int64))
    sub = weights[np.ix_(busy, busy)]
    contention = sub.sum(axis=1)
    assert policy.contention.tobytes() == contention.tobytes()
    while contention.size > 1:
        keep = rng.random(contention.size) < 0.7
        keep[rng.integers(contention.size)] = False
        if not keep.any():
            break
        gone = ~keep
        contention = contention[keep] - sub[np.ix_(keep, gone)].sum(axis=1)
        sub = sub[np.ix_(keep, keep)]
        policy.compact(keep)
        assert policy.contention.tobytes() == contention.tobytes()


# ----------------------------------------------------------------------
# Decay's guarded measure estimate
# ----------------------------------------------------------------------


def _single_call(algorithm, model, requests, budget, gen):
    """A step generator making one base call (a bare run's stream)."""
    result = yield AlgorithmCall(algorithm, model, requests, budget, gen,
                                 True)
    return result


def _decay_stream(model, requests, gen, transformed):
    if transformed:
        algorithm = TransformedAlgorithm(
            DecayScheduler(), m=model.network.size_m, chi_scale=0.05
        )
        return algorithm.run_steps(model, requests, 10**9, gen,
                                   record_history=True)
    return _single_call(DecayScheduler(), model, requests, 10**6, gen)


GUARD_MODELS = {
    "affectance": lambda: _affectance_model(m=12, seed=5),
    "conflict": _conflict_model,
    "mac": lambda: MultipleAccessChannel(mac_network(6)),
    "sinr-linear": _sinr_model,
}


@pytest.mark.parametrize("transformed, from_refill", [
    (False, 1), (False, 2), (True, 1),
], ids=["bare", "bare-second-refill", "transformed"])
@pytest.mark.parametrize("model_name", sorted(GUARD_MODELS))
def test_wide_guard_band_falls_back_to_the_exact_measure(
    monkeypatch, model_name, transformed, from_refill
):
    """With a band no coin can miss, every estimated bind falls back to
    the exact measure at its first coin refill (a stepping one) or its
    second (a scanning one, in bare runs), and runs still replay the
    scalar reference. Transform sub-runs are too short for a second
    refill."""
    model = GUARD_MODELS[model_name]()
    seeds = (1, 2, 3)
    requests = {
        seed: [int(e) for e in np.random.default_rng(seed).integers(
            0, model.num_links, size=40)]
        for seed in seeds
    }

    def outcomes(run_streams):
        gens = {seed: np.random.default_rng(seed + 10) for seed in seeds}
        results = run_streams([
            _decay_stream(model, requests[seed], gens[seed], transformed)
            for seed in seeds
        ])
        return [_outcome(r, gens[s]) for r, s in zip(results, seeds)]

    def serial(streams):
        return [drive_steps(stream) for stream in streams]

    with scalar_reference():
        reference = outcomes(serial)

    counts = {"estimated": 0, "fallbacks": 0, "scanning": 0}
    refills = {}
    bind, guard = DecayPolicy.bind, DecayPolicy.guard

    def counted_bind(self, *args, **kwargs):
        bind(self, *args, **kwargs)
        counts["estimated"] += not self.certified

    def counted_guard(self, coins, depths):
        refills[self] = refills.get(self, 0) + 1
        wide = refills[self] >= from_refill
        monkeypatch.setattr(runloop, "GUARD_BAND", 1.0 if wide else 0.0)
        fell_back = guard(self, coins, depths)
        assert fell_back == wide
        counts["fallbacks"] += fell_back
        # A stepping refill draws at most STEP_CHUNK slots of coins.
        counts["scanning"] += fell_back and (
            coins.size > (runloop.STEP_CHUNK + 1) * depths.size
        )
        return fell_back

    monkeypatch.setattr(DecayPolicy, "bind", counted_bind)
    monkeypatch.setattr(DecayPolicy, "guard", counted_guard)
    with use_backend("numpy"):
        assert outcomes(serial) == reference
    assert counts["estimated"] > 0
    if from_refill == 1:
        assert counts["fallbacks"] == counts["estimated"]
    else:
        assert counts["scanning"] > 0


class _DoubledMeasureModel(AffectanceThresholdModel):
    """Overrides the measure: decay must bind with the override."""

    def interference_measure(self, requests):
        return 2.0 * super().interference_measure(requests)


class _DoubledVectorModel(AffectanceThresholdModel):
    """Overrides the request vector the base measure is taken over."""

    def as_request_vector(self, requests):
        return 2.0 * super().as_request_vector(requests)


@pytest.mark.parametrize("model_class", [
    _DoubledMeasureModel, _DoubledVectorModel,
], ids=["measure", "request-vector"])
def test_overridden_measure_takes_the_exact_path(model_class):
    weights = _random_weights(12, seed=5)
    requests = [0, 3, 3, 7, 11]
    doubled = model_class(mac_network(12), weights)
    base = AffectanceThresholdModel(mac_network(12), weights)

    def bound(model, scalar=False):
        policy = DecayScheduler().fused_policy()
        FusedTask(policy, model, requests, 0, np.random.default_rng(0),
                  scalar=scalar)
        return policy

    policy = bound(doubled)
    assert policy.certified
    assert policy.measure == doubled.interference_measure(requests)
    assert policy.measure == 2.0 * base.interference_measure(requests)
    # The base model's numpy bind estimates; the scalar reference never
    # does.
    assert not bound(base).certified
    assert bound(base, scalar=True).certified

    gen = np.random.default_rng(9)
    with scalar_reference():
        reference = _outcome(
            DecayScheduler().run(doubled, requests, 400, rng=gen,
                                 record_history=True), gen)
    gen = np.random.default_rng(9)
    with use_backend("numpy"):
        got = DecayScheduler().run(doubled, requests, 400, rng=gen,
                                   record_history=True)
    assert _outcome(got, gen) == reference


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 48),
    spread=st.floats(1.0, 12.0),
    links=st.lists(st.integers(0, 200), min_size=1, max_size=150),
    seed=st.integers(0, 2**16),
)
def test_measure_estimate_within_rounding_bound(m, spread, links, seed):
    """The column-subset estimate lies within ``2·γ_k·I`` of the exact
    measure (``k`` requested links; see ``DecayPolicy``)."""
    rng = np.random.default_rng(seed)
    weights = rng.random((m, m)) ** spread
    np.fill_diagonal(weights, 1.0)
    model = AffectanceThresholdModel(mac_network(m), weights)
    requests = [e % m for e in links]
    policy = DecayScheduler().fused_policy()
    FusedTask(policy, model, requests, 0, np.random.default_rng(0))
    assert not policy.certified
    exact = model.interference_measure(requests)
    unit = 2.0 ** -53
    k = len(set(requests))
    gamma = k * unit / (1 - k * unit)
    assert abs(policy.measure - exact) <= 2 * gamma / (1 - gamma) * exact


def test_scanning_fallback_refetches_thresholds(monkeypatch):
    """A fallback at a scanning refill re-derives the thresholds before
    the task retires or steps another slot."""
    trace = []
    scan_state = runloop._scan_state
    skip = FusedTask._skip

    def traced_scan_state(policy, depths):
        trace.append("scan")
        return scan_state(policy, depths)

    def traced_skip(self, s):
        trace.append("skip")
        return skip(self, s)

    monkeypatch.setattr(runloop, "_scan_state", traced_scan_state)
    monkeypatch.setattr(FusedTask, "_skip", traced_skip)
    policy = DecayScheduler(probability_scale=16.0).fused_policy()
    guard, attempt = policy.guard, policy.attempt

    def second_refill_falls_back(coins, depths):
        trace.append("refill")
        wide = trace.count("refill") >= 2
        monkeypatch.setattr(runloop, "GUARD_BAND", 1.0 if wide else 0.0)
        if guard(coins, depths):
            trace.append("fallback")
            return True
        return False

    def traced_attempt(u, depths):
        trace.append("attempt")
        return attempt(u, depths)

    policy.guard = second_refill_falls_back
    policy.attempt = traced_attempt
    FusedTask(policy, _affectance_model(m=12, seed=5),
              list(range(12)) * 3, 2000, np.random.default_rng(4)).run()
    at = trace.index("fallback")
    # The refill was a scanning one, and the next scan starts afresh.
    assert trace[at - 2:at] == ["scan", "refill"]
    assert trace[at + 1] == "scan"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    probability_scale=st.floats(1.0, 64.0),
    depth=st.integers(1, 30),
    picks=st.lists(
        st.tuples(st.integers(1, 31), st.floats(-2.0, 2.0)),
        min_size=1, max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_guard_clears_exactly_the_coins_outside_every_band(
    probability_scale, depth, picks, seed
):
    """The one-pass band check agrees with checking every threshold
    ``lp(1..max depth)`` separately, for coins placed near thresholds
    (inside and outside the band, and near depths past the maximum)
    among ordinary uniform coins."""
    model = _affectance_model(m=12, seed=5)
    requests = list(range(11)) + [11] * depth
    policy = DecayScheduler(probability_scale).fused_policy()
    task = FusedTask(policy, model, requests, 0, np.random.default_rng(0))
    assert not policy.certified
    depths = task.depths
    lp = 1.0 - policy.complement ** np.arange(1, depths.max() + 1)
    near = [
        1.0 - policy.complement ** d + offset * runloop.GUARD_BAND
        for d, offset in picks
    ]
    coins = np.random.default_rng(seed).random(64)
    coins[:len(near)] = np.clip(near, 0.0, np.nextafter(1.0, 0.0))
    band = runloop.GUARD_BAND
    inside = any(
        threshold - band <= coin <= threshold + band
        for coin in coins for threshold in lp
    )
    assert policy.guard(coins, depths) == inside
    assert policy.certified == inside


def test_guard_clears_one_refill_then_binds_exactly(monkeypatch):
    """A run whose first refill is cleared switches to the exact
    measure at its second refill, whatever the coins: however long the
    run, the guard clears one refill and computes at most one exact
    measure. Runs still replay the scalar reference."""
    model = _affectance_model(m=12, seed=5)
    requests = [int(e) for e in np.random.default_rng(3).integers(
        0, 12, size=60)]
    calls = []
    guard = DecayPolicy.guard

    def traced_guard(self, coins, depths):
        fell_back = guard(self, coins, depths)
        calls.append(fell_back)
        return fell_back

    gen = np.random.default_rng(8)
    with scalar_reference():
        reference = _outcome(
            DecayScheduler().run(model, requests, 5000, rng=gen,
                                 record_history=True), gen)
    monkeypatch.setattr(DecayPolicy, "guard", traced_guard)
    gen = np.random.default_rng(8)
    with use_backend("numpy"):
        run = DecayScheduler().run(model, requests, 5000, rng=gen,
                                   record_history=True)
    assert _outcome(run, gen) == reference
    # The run outlasts its first refill, which is cleared; the second
    # switches to the exact measure and no refill is guarded after it.
    assert run.slots_used > runloop.STEP_CHUNK
    assert calls == [False, True]
