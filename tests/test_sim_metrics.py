"""Metrics recording and latency summaries."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.injection.store import PacketStore
from repro.sim.metrics import LatencySummary, MetricsRecorder


def delivered_packets(*rows):
    """Delivered packets from ``(injected, delivered, hops)`` rows."""
    store = PacketStore()
    for injected, delivered, hops in rows:
        index = store.allocate(tuple(range(hops)), injected)
        for k in range(hops):
            store.advance_one(index, delivered if k == hops - 1 else injected + k)
    return store.sequence(list(range(len(rows))))


def test_latency_summary_empty_is_nan_not_zero():
    """No delivered packets must not masquerade as zero latency."""
    summary = LatencySummary.from_packets(PacketStore().sequence([]))
    assert summary.count == 0
    assert math.isnan(summary.mean)
    assert math.isnan(summary.median)
    assert math.isnan(summary.p95)
    assert math.isnan(summary.maximum)


def test_latency_summary_values():
    packets = delivered_packets((0, 10, 1), (5, 25, 1), (0, 30, 1))
    summary = LatencySummary.from_packets(packets)
    assert summary.count == 3
    assert summary.mean == pytest.approx((10 + 20 + 30) / 3)
    assert summary.median == 20
    assert summary.maximum == 30


def test_recorder_series_and_totals():
    recorder = MetricsRecorder()
    for frame in range(5):
        recorder.record_frame(
            injected=2,
            in_system=frame,
            active=frame,
            failed=0,
            potential=0,
            delivered_total=frame * 2,
        )
    assert recorder.frames == 5
    assert recorder.injected_total == 10
    assert recorder.queue_series == [0, 1, 2, 3, 4]
    assert recorder.final_queue == 4
    assert recorder.max_queue == 4
    assert recorder.delivered_count() == 8
    assert recorder.throughput() == pytest.approx(8 / 5)


def test_mean_queue_tail():
    recorder = MetricsRecorder()
    for value in [100, 100, 0, 0]:
        recorder.record_frame(0, value, value, 0, 0, 0)
    assert recorder.mean_queue(tail_fraction=0.5) == 0.0
    assert recorder.mean_queue(tail_fraction=1.0) == 50.0


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, 2.0])
def test_mean_queue_rejects_out_of_range_tail_fraction(bad):
    """tail_fraction > 1 used to slice a wrong window from the tail."""
    recorder = MetricsRecorder()
    for value in [100, 100, 0, 0]:
        recorder.record_frame(0, value, value, 0, 0, 0)
    with pytest.raises(ConfigurationError):
        recorder.mean_queue(tail_fraction=bad)


def test_latency_summary_from_store_sequence_matches_object_path():
    store = PacketStore()
    for pid, (injected, delivered) in enumerate([(0, 10), (5, 25), (0, 30)]):
        index = store.allocate((0,), injected)
        assert index == pid
        store.advance_one(index, delivered)
    sequence = store.sequence([0, 1, 2])
    summary = LatencySummary.from_packets(sequence)
    per_packet = LatencySummary.from_latencies(
        [packet.latency() for packet in sequence]
    )
    assert summary == per_packet
    assert summary.count == 3
    assert summary.mean == pytest.approx((10 + 20 + 30) / 3)


def test_empty_recorder_defaults():
    recorder = MetricsRecorder()
    assert recorder.final_queue == 0
    assert recorder.max_queue == 0
    assert recorder.mean_queue() == 0.0
    assert recorder.throughput() == 0.0


def test_latency_by_path_length():
    recorder = MetricsRecorder()
    packets = delivered_packets((0, 10, 1), (0, 30, 2), (0, 20, 1))
    groups = recorder.latency_by_path_length(packets)
    assert set(groups) == {1, 2}
    assert groups[1].count == 2
    assert groups[2].mean == 30


# ----------------------------------------------------------------------
# load_state_dict validation (negative / boolean / non-integral counts)
# ----------------------------------------------------------------------


def _full_state(frames=2):
    recorder = MetricsRecorder()
    for frame in range(frames):
        recorder.record_frame(1, frame, frame, 0, 0, frame)
    return recorder.state_dict()


def test_load_state_dict_roundtrip():
    state = _full_state()
    recorder = MetricsRecorder()
    recorder.load_state_dict(state)
    assert recorder.state_dict() == state


@pytest.mark.parametrize("field", ["frames", "injected_total"])
@pytest.mark.parametrize("bad", [-1, -7, True, False, 2.5, "3", None])
def test_load_state_dict_rejects_bad_scalars(field, bad):
    """Negative counts, bools, and non-integral values all raise,
    naming the offending field."""
    state = _full_state()
    state[field] = bad
    recorder = MetricsRecorder()
    with pytest.raises(ConfigurationError, match=field):
        recorder.load_state_dict(state)


@pytest.mark.parametrize("bad", [-1, True, 1.5, "x"])
def test_load_state_dict_rejects_bad_series_entries(bad):
    state = _full_state()
    state["queue_series"][1] = bad
    recorder = MetricsRecorder()
    with pytest.raises(ConfigurationError, match="queue_series"):
        recorder.load_state_dict(state)


def test_load_state_dict_rejects_numpy_bool():
    import numpy as np

    state = _full_state()
    state["frames"] = np.bool_(True)
    with pytest.raises(ConfigurationError, match="frames"):
        MetricsRecorder().load_state_dict(state)


def test_load_state_dict_accepts_numpy_integers():
    import numpy as np

    state = _full_state()
    state["frames"] = np.int64(state["frames"])
    recorder = MetricsRecorder()
    recorder.load_state_dict(state)
    assert recorder.frames == 2


def test_load_state_dict_rejects_length_mismatch():
    state = _full_state()
    state["queue_series"].append(0)
    with pytest.raises(ConfigurationError, match="queue_series"):
        MetricsRecorder().load_state_dict(state)


# ----------------------------------------------------------------------
# Streaming retention
# ----------------------------------------------------------------------


def _record(recorder, values, injected=1):
    for frame, value in enumerate(values):
        recorder.record_frame(injected, value, value, 0, 0, frame + 1)


def test_streaming_recorder_matches_full_summaries():
    import numpy as np

    rng = np.random.default_rng(5)
    values = rng.integers(0, 100, size=300).tolist()
    full = MetricsRecorder()
    stream = MetricsRecorder(retention="streaming")
    _record(full, values)
    _record(stream, values)
    assert stream.frames == full.frames
    assert stream.injected_total == full.injected_total
    assert stream.final_queue == full.final_queue
    assert stream.max_queue == full.max_queue
    assert stream.delivered_count() == full.delivered_count()
    assert stream.throughput() == full.throughput()
    # Exact (not approximate) while the run fits the ring window.
    assert stream.mean_queue() == full.mean_queue()
    assert stream.mean_queue(tail_fraction=1.0) == full.mean_queue(
        tail_fraction=1.0
    )
    assert repr(stream.stability_verdict(load_per_frame=2.0)) == repr(
        full.stability_verdict(load_per_frame=2.0)
    )
    assert stream.recent_queue_series() == values
    assert full.recent_queue_series() is full.queue_series


def test_streaming_recorder_series_stay_empty():
    stream = MetricsRecorder(retention="streaming")
    _record(stream, list(range(100)))
    assert stream.queue_series == []
    assert stream.delivered_series == []
    assert stream.frames == 100


def test_streaming_recorder_rejects_unknown_retention():
    with pytest.raises(ConfigurationError, match="retention"):
        MetricsRecorder(retention="bounded")
    with pytest.raises(ConfigurationError, match="release_interval"):
        MetricsRecorder(retention="streaming", release_interval=0)


def test_streaming_state_roundtrip_preserves_summaries():
    stream = MetricsRecorder(retention="streaming", window=64)
    _record(stream, list(range(200)))
    state = stream.state_dict()
    other = MetricsRecorder(retention="streaming", window=64)
    other.load_state_dict(state)
    assert other.frames == stream.frames
    assert other.mean_queue() == stream.mean_queue()
    assert other.max_queue == stream.max_queue
    assert repr(other.stability_verdict()) == repr(stream.stability_verdict())


def test_streaming_state_refuses_cross_retention_and_config_drift():
    stream = MetricsRecorder(retention="streaming")
    _record(stream, list(range(30)))
    state = stream.state_dict()
    with pytest.raises(ConfigurationError, match="retention"):
        MetricsRecorder().load_state_dict(state)
    with pytest.raises(ConfigurationError, match="retention"):
        stream.load_state_dict(_full_state())
    other = MetricsRecorder(retention="streaming", window=1024)
    with pytest.raises(ConfigurationError, match="window"):
        other.load_state_dict(state)


def test_streaming_latency_summary_merges_pending_and_released():
    import numpy as np

    stream = MetricsRecorder(retention="streaming")
    stream.absorb_latencies(
        np.asarray([10, 30], dtype=np.int64),
        np.asarray([1, 2], dtype=np.int64),
    )
    pending = delivered_packets((0, 20, 1))
    summary = stream.latency_summary(pending)
    assert summary.count == 3
    assert summary.mean == pytest.approx(20.0)
    assert summary.maximum == 30.0
    # Idempotent: merging pending packets must not mutate the sketch.
    assert stream.latency_summary(pending) == summary
    groups = stream.latency_by_path_length(pending)
    assert set(groups) == {1, 2}
    assert groups[1].count == 2
    assert groups[2].count == 1


def test_full_recorder_rejects_absorb():
    import numpy as np

    recorder = MetricsRecorder()
    with pytest.raises(ConfigurationError, match="streaming"):
        recorder.absorb_latencies(
            np.asarray([1], dtype=np.int64), np.asarray([1], dtype=np.int64)
        )
