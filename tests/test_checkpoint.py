"""Checkpoint/resume parity: interrupt + resume == uninterrupted run.

The checkpoint layer snapshots a frame simulation at frame boundaries
— where every layer is quiescent — so a restored run must continue
*bit-identically* to one that never stopped, across schedulers, models,
injection processes and run-loop backends. These tests pin that
contract, plus the file format's validation guarantees: any corrupt,
truncated, foreign or mismatched checkpoint raises
:class:`ConfigurationError`, never a numpy traceback.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, preset_spec
from repro.sim.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint_into,
    read_checkpoint,
    run_with_checkpoints,
    save_checkpoint,
    write_checkpoint,
)
from repro.sim.engine import FrameSimulation
from repro.staticsched.runloop import available_backends

BACKENDS = [b for b in available_backends() if b != "auto"]


def _build_sim(spec: ScenarioSpec) -> FrameSimulation:
    built = spec.build()
    return FrameSimulation(built.protocol, built.injection, metrics=spec.metrics)


def _assert_same(a, b):
    """Field-exact record equality that treats NaN == NaN.

    ``repr`` prints floats round-trip exactly, so equal reprs mean
    bit-identical records — while NaN latencies (a cell that delivered
    nothing) compare equal instead of tripping NaN != NaN.
    """
    assert repr(a) == repr(b)


def _interrupt_then_resume(spec, tmp_path, interrupt=9, interval=4):
    """Run to ``interrupt`` frames with snapshots, then resume via spec.

    Returns (clean CellResult, resumed CellResult); the caller asserts
    equality via :func:`_assert_same`.
    """
    path = str(tmp_path / "cell.ckpt")
    clean = spec.run()
    partial = _build_sim(spec)
    run_with_checkpoints(
        partial, interrupt, path, interval=interval,
        fingerprint=spec.fingerprint(),
    )
    assert os.path.exists(path)
    resumed = spec.run(checkpoint_path=path, snapshot_interval=interval)
    return clean, resumed


# ----------------------------------------------------------------------
# The resume parity matrix: scheduler x model x backend
# ----------------------------------------------------------------------

MATRIX = {
    "kv-routing": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="packet-routing", scheduler="kv", transform=True,
        frames=24,
    ),
    "decay-linear": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="linear-power", scheduler="decay", transform=True,
        frames=24,
    ),
    "fkv-routing": ScenarioSpec(
        topology="grid", topology_kwargs={"rows": 3, "cols": 3},
        model="packet-routing", scheduler="fkv", transform=True,
        frames=24,
    ),
    "hm-transformed": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="linear-power", scheduler="hm", transform=True, frames=24,
    ),
    "single-hop-grid": ScenarioSpec(
        topology="grid", topology_kwargs={"rows": 3, "cols": 3},
        model="packet-routing", scheduler="single-hop", frames=24,
    ),
    "mac-roundrobin": ScenarioSpec(
        topology="mac", topology_kwargs={"num_stations": 4},
        model="mac", scheduler="round-robin", frames=24,
    ),
    "mac-backoff": ScenarioSpec(
        topology="mac", topology_kwargs={"num_stations": 4},
        model="mac", scheduler="mac-backoff", frames=24,
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_resume_parity_matrix(name, tmp_path):
    spec = MATRIX[name].replace(seed=7)
    clean, resumed = _interrupt_then_resume(spec, tmp_path)
    _assert_same(resumed, clean)


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_parity_per_backend(backend, tmp_path):
    spec = MATRIX["kv-routing"].replace(seed=3, backend=backend)
    clean, resumed = _interrupt_then_resume(spec, tmp_path)
    _assert_same(resumed, clean)


def test_resume_crosses_backends(tmp_path):
    """A snapshot taken under one backend resumes under another."""
    path = str(tmp_path / "cell.ckpt")
    scalar = MATRIX["kv-routing"].replace(seed=5, backend="scalar")
    numpy_spec = scalar.replace(backend="numpy")
    clean = numpy_spec.run()
    partial = _build_sim(scalar)
    run_with_checkpoints(
        partial, 9, path, interval=4, fingerprint=scalar.fingerprint()
    )
    resumed = numpy_spec.run(checkpoint_path=path, snapshot_interval=4)
    _assert_same(resumed, clean)


# ----------------------------------------------------------------------
# Stateful models and injections
# ----------------------------------------------------------------------

STATEFUL = {
    "fading-model": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="fading-sinr", scheduler="kv", transform=True,
        frames=24,
    ),
    "unreliable-model": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="unreliable", model_kwargs={"loss_probability": 0.1},
        scheduler="kv", transform=True, frames=24,
    ),
    "jammed-random-model": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="jammed", model_kwargs={"pattern": "random"},
        scheduler="kv", transform=True, frames=24,
    ),
    "markov-injection": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="packet-routing", scheduler="kv", transform=True,
        injection="markov", frames=24,
    ),
    "adversarial-injection": ScenarioSpec(
        topology="random", topology_kwargs={"num_nodes": 8},
        model="packet-routing", scheduler="kv", transform=True,
        injection="adversarial", injection_kwargs={"window": 16},
        frames=24,
    ),
}


@pytest.mark.parametrize("name", sorted(STATEFUL))
def test_resume_parity_stateful_components(name, tmp_path):
    spec = STATEFUL[name].replace(seed=11)
    clean, resumed = _interrupt_then_resume(spec, tmp_path)
    _assert_same(resumed, clean)


# ----------------------------------------------------------------------
# Streaming-retention resume parity
# ----------------------------------------------------------------------


def _same_tree(a, b, path=""):
    """Recursive bit-exact equality over state_dict trees."""
    import math

    import numpy as np

    if isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b), path
        for key in a:
            _same_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            _same_tree(x, y, f"{path}[{index}]")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b)), path
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), path
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_resume_parity_streaming_matrix(name, tmp_path):
    spec = MATRIX[name].replace(seed=7, metrics="streaming")
    clean, resumed = _interrupt_then_resume(spec, tmp_path)
    _assert_same(resumed, clean)


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_parity_streaming_per_backend(backend, tmp_path):
    spec = MATRIX["kv-routing"].replace(
        seed=3, backend=backend, metrics="streaming"
    )
    clean, resumed = _interrupt_then_resume(spec, tmp_path)
    _assert_same(resumed, clean)


def test_streaming_records_match_full_records():
    """Retention changes memory, never physics or records."""
    full = MATRIX["kv-routing"].replace(seed=7)
    _assert_same(full.replace(metrics="streaming").run(), full.run())


def test_cross_retention_resume_refused(tmp_path):
    """A full-mode checkpoint cannot resume a streaming spec."""
    full = MATRIX["kv-routing"].replace(seed=7)
    path = str(tmp_path / "cell.ckpt")
    partial = _build_sim(full)
    run_with_checkpoints(
        partial, 9, path, interval=4, fingerprint=full.fingerprint()
    )
    streaming = full.replace(metrics="streaming")
    # Fingerprints differ, so spec.run() discards the foreign
    # checkpoint and restarts clean — still record-identical.
    _assert_same(
        streaming.run(checkpoint_path=str(tmp_path / "other.ckpt")),
        full.run(),
    )
    with pytest.raises(ConfigurationError):
        load_checkpoint_into(
            _build_sim(streaming), path, fingerprint=streaming.fingerprint()
        )


def test_resume_parity_streaming_mid_window_interrupt(tmp_path):
    """Interrupt between release boundaries, with releases having fired.

    The 24-frame matrix cells never reach the default release interval
    (64), so this drives a small-interval recorder directly: released
    latency state, compacted store, and pending delivered ids all cross
    the checkpoint, and the resumed state tree is bit-identical to the
    uninterrupted one.
    """
    from repro.sim.metrics import MetricsRecorder

    spec = MATRIX["kv-routing"].replace(seed=11)
    frames, interrupt, release = 24, 13, 5
    assert interrupt % release != 0

    def build():
        built = spec.build()
        recorder = MetricsRecorder(
            retention="streaming", release_interval=release
        )
        return FrameSimulation(
            built.protocol, built.injection, metrics=recorder
        )

    uninterrupted = build()
    uninterrupted.run(frames)
    # The scenario delivers early; the premise of the test is that
    # releases (frames 5 and 10) actually moved latencies + compacted.
    assert uninterrupted.metrics.released_count > 0

    partial = build()
    partial.run(interrupt)
    path = str(tmp_path / "mid.ckpt")
    save_checkpoint(path, partial)

    resumed = build()
    load_checkpoint_into(resumed, path)
    resumed.run(frames - interrupt)

    _same_tree(resumed.state_dict(), uninterrupted.state_dict())
    verdict_kwargs = dict(load_per_frame=2.0, min_frames=10)
    assert repr(
        resumed.metrics.stability_verdict(**verdict_kwargs)
    ) == repr(uninterrupted.metrics.stability_verdict(**verdict_kwargs))


# ----------------------------------------------------------------------
# Protocols built without store= (bound by FrameSimulation)
# ----------------------------------------------------------------------


def _unbound_sim(metrics="full", seed=4):
    """A protocol built without ``store=``, so the simulation binds it
    to the injection's store; a tight phase-1 budget keeps failed
    buffers busy across the checkpoint."""
    import repro
    from repro.core.frames import FrameParameters

    net = repro.grid_network(3, 3)
    model = repro.PacketRoutingModel(net)
    injection = repro.uniform_pair_injection(
        repro.build_routing_table(net), model, 0.25, num_generators=5,
        rng=seed + 1000,
    )
    params = FrameParameters(
        frame_length=60, phase1_budget=8, cleanup_budget=12,
        measure_budget=8.0, epsilon=0.5, rate=0.2, f_m=1.0, m=net.size_m,
    )
    protocol = repro.DynamicProtocol(
        model, repro.SingleHopScheduler(), 0.2, params=params,
        cleanup_probability=0.5, rng=seed,
    )
    assert protocol.store is None
    return FrameSimulation(protocol, injection, metrics=metrics)


def test_unbound_protocol_adopts_injection_store():
    sim = _unbound_sim()
    assert sim.protocol.store is sim.injection.store


def test_unbound_protocol_resumes_bit_identically(tmp_path):
    frames, interrupt = 24, 11
    uninterrupted = _unbound_sim()
    uninterrupted.run(frames)
    assert uninterrupted.protocol.failed_count > 0

    partial = _unbound_sim()
    partial.run(interrupt)
    path = str(tmp_path / "unbound.ckpt")
    save_checkpoint(path, partial)

    resumed = _unbound_sim()
    load_checkpoint_into(resumed, path)
    resumed.run(frames - interrupt)

    _same_tree(resumed.state_dict(), uninterrupted.state_dict())
    assert resumed.metrics.queue_series == uninterrupted.metrics.queue_series


def test_unbound_protocol_releases_under_streaming():
    """Streaming metrics release and compact an unbound protocol's
    delivered packets, and its records match full retention."""
    from repro.sim.metrics import MetricsRecorder

    frames = 40
    full = _unbound_sim()
    full.run(frames)
    streaming = _unbound_sim(
        metrics=MetricsRecorder(retention="streaming", release_interval=5)
    )
    streaming.run(frames)

    assert streaming.metrics.released_count > 0
    # Compaction dropped the released rows from the shared store.
    assert len(streaming.injection.store) < streaming.metrics.injected_total
    assert len(full.injection.store) == full.metrics.injected_total
    assert streaming.metrics.delivered_count() == full.metrics.delivered_count()
    assert streaming.metrics.final_queue == full.metrics.final_queue
    full_latency = full.metrics.latency_summary(full.protocol.delivered)
    streaming_latency = streaming.metrics.latency_summary(
        streaming.protocol.delivered
    )
    assert streaming_latency.count == full_latency.count
    assert streaming_latency.mean == pytest.approx(full_latency.mean)
    assert streaming_latency.maximum == full_latency.maximum


def test_shifted_protocol_checkpoint_is_a_configuration_error():
    """The shifted wrapper has no snapshot support; saying so must not
    surface as a bare AttributeError."""
    import repro

    net = repro.grid_network(3, 3)
    model = repro.PacketRoutingModel(net)
    routing = repro.build_routing_table(net)
    paths = [routing.path(s, d) for s, d in routing.pairs() if s == 0]
    adversary = repro.BurstyAdversary(model, paths, window=120, rate=0.2, rng=5)
    protocol = repro.ShiftedDynamicProtocol(
        model, repro.SingleHopScheduler(), 0.2, window=120, t_scale=0.01,
        rng=4,
    )
    sim = FrameSimulation(protocol, adversary)
    sim.run(2)
    with pytest.raises(ConfigurationError, match="ShiftedDynamicProtocol"):
        sim.state_dict()
    with pytest.raises(ConfigurationError, match="ShiftedDynamicProtocol"):
        sim.load_state_dict({})


# ----------------------------------------------------------------------
# File format validation
# ----------------------------------------------------------------------


@pytest.fixture
def snapshot(tmp_path):
    """A real checkpoint file plus the spec that produced it."""
    spec = MATRIX["kv-routing"].replace(seed=2)
    path = str(tmp_path / "cell.ckpt")
    sim = _build_sim(spec)
    sim.run(8)
    save_checkpoint(path, sim, fingerprint=spec.fingerprint())
    return spec, path


def test_read_back_roundtrip(snapshot):
    spec, path = snapshot
    state, fingerprint = read_checkpoint(path)
    assert fingerprint == spec.fingerprint()
    assert state["frame"] == 8
    sim = _build_sim(spec)
    assert load_checkpoint_into(sim, path) == 8


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        read_checkpoint(str(tmp_path / "nope.ckpt"))


def test_foreign_file_raises(tmp_path):
    path = tmp_path / "foreign.ckpt"
    path.write_bytes(b"definitely not a checkpoint at all, no magic here")
    with pytest.raises(ConfigurationError, match="not a repro checkpoint"):
        read_checkpoint(str(path))


def test_truncated_file_raises(snapshot):
    _, path = snapshot
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    with pytest.raises(ConfigurationError, match="corrupt or truncated"):
        read_checkpoint(path)


def test_flipped_byte_raises(snapshot):
    _, path = snapshot
    with open(path, "r+b") as handle:
        handle.seek(200)
        byte = handle.read(1)
        handle.seek(200)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(ConfigurationError, match="checksum mismatch"):
        read_checkpoint(path)


def test_version_skew_raises(snapshot):
    _, path = snapshot
    with open(path, "r+b") as handle:
        handle.seek(len(MAGIC))
        handle.write(struct.pack("<I", FORMAT_VERSION + 1))
    with pytest.raises(ConfigurationError, match="format version"):
        read_checkpoint(path)


def test_fingerprint_mismatch_raises(snapshot):
    spec, path = snapshot
    other = spec.replace(seed=99)
    assert other.fingerprint() != spec.fingerprint()
    with pytest.raises(ConfigurationError, match="different run"):
        read_checkpoint(path, expect_fingerprint=other.fingerprint())
    # ... and matching (or absent) fingerprints read fine.
    read_checkpoint(path, expect_fingerprint=spec.fingerprint())


def test_fingerprint_ignores_frames_and_backend(snapshot):
    """Resume extends the horizon: frames/backend are not identity."""
    spec, _ = snapshot
    assert spec.replace(frames=999).fingerprint() == spec.fingerprint()
    assert (
        spec.replace(backend="numpy").fingerprint() == spec.fingerprint()
    )


def test_array_shape_mismatch_raises(tmp_path):
    import numpy as np

    path = str(tmp_path / "arr.ckpt")
    write_checkpoint(path, {"x": np.arange(5, dtype=np.int64)})
    state, _ = read_checkpoint(path)
    assert list(state["x"]) == [0, 1, 2, 3, 4]
    # Forge a header that promises a different shape for the payload.
    blob = open(path, "rb").read()
    body = blob[len(MAGIC) + 4 + 32 :]
    (header_len,) = struct.unpack_from("<Q", body, 0)
    header = body[8 : 8 + header_len].replace(b'"shape": [5]', b'"shape": [6]')
    import hashlib

    new_body = struct.pack("<Q", len(header)) + header + body[8 + header_len:]
    with open(path, "wb") as handle:
        handle.write(
            MAGIC
            + struct.pack("<I", FORMAT_VERSION)
            + hashlib.sha256(new_body).digest()
            + new_body
        )
    with pytest.raises(ConfigurationError, match="should be"):
        read_checkpoint(path)


def test_corrupt_checkpoint_falls_back_to_fresh_run(tmp_path):
    """spec.run discards a bad checkpoint and reproduces the clean result."""
    spec = MATRIX["kv-routing"].replace(seed=4)
    clean = spec.run()
    path = str(tmp_path / "cell.ckpt")
    partial = _build_sim(spec)
    run_with_checkpoints(
        partial, 9, path, interval=4, fingerprint=spec.fingerprint()
    )
    with open(path, "r+b") as handle:
        handle.seek(100)
        byte = handle.read(1)
        handle.seek(100)
        handle.write(bytes([byte[0] ^ 0xFF]))
    _assert_same(spec.run(checkpoint_path=path, snapshot_interval=4), clean)


def test_scheduler_mismatch_raises(tmp_path):
    """A snapshot restores only onto an identically configured scheduler."""
    spec = MATRIX["kv-routing"].replace(seed=2)
    path = str(tmp_path / "cell.ckpt")
    sim = _build_sim(spec)
    sim.run(5)
    save_checkpoint(path, sim)
    other = _build_sim(
        spec.replace(scheduler_kwargs={"backoff": 0.25})
    )
    with pytest.raises(ConfigurationError):
        load_checkpoint_into(other, path)


# ----------------------------------------------------------------------
# run_with_checkpoints edges
# ----------------------------------------------------------------------


def test_bad_snapshot_interval_raises(tmp_path):
    spec = MATRIX["kv-routing"]
    sim = _build_sim(spec)
    with pytest.raises(ConfigurationError, match="interval"):
        run_with_checkpoints(sim, 10, str(tmp_path / "c.ckpt"), interval=0)


def test_past_horizon_raises(tmp_path):
    spec = MATRIX["kv-routing"]
    sim = _build_sim(spec)
    sim.run(12)
    with pytest.raises(ConfigurationError, match="past the"):
        run_with_checkpoints(sim, 10, str(tmp_path / "c.ckpt"))


def test_snapshot_written_every_interval(tmp_path):
    spec = MATRIX["kv-routing"].replace(seed=1)
    path = str(tmp_path / "c.ckpt")
    sim = _build_sim(spec)
    run_with_checkpoints(sim, 10, path, interval=3)
    state, _ = read_checkpoint(path)
    assert state["frame"] == 10  # final snapshot covers the horizon
    assert sim.frames_run == 10


def test_preset_end_to_end_resume(tmp_path):
    """The headline workflow: preset spec, interrupt, resume, parity."""
    spec = preset_spec("sinr-linear", nodes=8, seed=3, frames=30)
    clean = spec.run()
    path = str(tmp_path / "cell.ckpt")
    partial = _build_sim(spec)
    run_with_checkpoints(
        partial, 13, path, interval=5, fingerprint=spec.fingerprint()
    )
    resumed = spec.run(checkpoint_path=path, snapshot_interval=5)
    _assert_same(resumed, clean)
