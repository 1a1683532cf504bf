"""Shared-threshold scans, decay's depth ladder and one-call compaction.

* decay's per-bind ladder ``lp(d)`` has the bits of the per-slot
  ``1 - np.power(complement, depths)`` it replaced, for ``d`` in 1..64
  over a sweep of complements;
* the numpy engine, scanning, replays the per-slot transcriptions in
  ``reference_loops`` (``run_reference``) on runs whose slots drain
  two or more links at once and drain the first and the last local
  index — decay, HM and KV on SINR, packet routing and affectance;
* a shared-threshold run keeps its scan's hits across drains: a fixed
  seed-0 transformed decay run with every depth 1 pins its scan count.

A scan asks ``runloop._scan_state`` for its thresholds once per window
it compares (a shared run reads kept hits without asking), so the
tests count scans by wrapping it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.transform import TransformedAlgorithm
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.topology import mac_network
from repro.staticsched import DecayScheduler, HmScheduler, KvScheduler
import repro.staticsched.runloop as runloop
from repro.staticsched.runloop import DecayPolicy, FusedTask, use_backend
from reference_loops import run_reference
from test_kernel_parity import _sinr_model
from test_runloop import _affectance_model, _outcome

#: Complements ``1 - p`` from p = 1 (complement 0) down to p ~ 1e-9.
COMPLEMENTS = np.concatenate([
    [0.0, 0.5, np.nextafter(1.0, 0.0)],
    1.0 - np.geomspace(1e-9, 1.0, 61)[:-1],
    np.random.default_rng(0).random(16),
])


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("complement", COMPLEMENTS)
def test_decay_ladder_bits_match_per_slot_power(complement):
    """``ladder[d]`` equals ``1 - np.power(complement, d)`` bit for bit,
    whatever array the depth sits in: alone, in ``1..64``, shuffled."""
    model = PacketRoutingModel(mac_network(2))
    # Link 0 holds 64 requests, so the ladder spans depths 0..64.
    requests = [0] * 64 + [1]
    measure = 64.0
    scale = 1.0 / ((1.0 - complement) * measure)
    policy = DecayScheduler(probability_scale=scale).fused_policy()
    policy.bind(model, requests, np.array([0, 1]), np.array([64, 1]))
    c = policy.complement
    depths = np.arange(1, 65)
    assert policy.ladder.size == 65
    assert _bits(policy.ladder[1:]) == _bits(1.0 - np.power(c, depths))
    for d in depths.tolist():
        alone = np.subtract(1.0, np.power(c, np.array([d])))
        assert _bits(policy.ladder[d:d + 1]) == _bits(alone)
    shuffled = np.random.default_rng(1).permutation(depths)
    assert _bits(policy.ladder.take(shuffled)) == _bits(
        1.0 - c ** shuffled
    )


DRAIN_MODELS = {
    "sinr": _sinr_model,
    "packet-routing": lambda: PacketRoutingModel(mac_network(12)),
    "affectance": lambda: _affectance_model(m=12, seed=5),
}

#: Per scheduler, a dense and a sparser configuration: dense runs
#: drain links together, sparse ones scan.
DRAIN_SCHEDULERS = {
    "decay": lambda dense: DecayScheduler(
        probability_scale=1.0 if dense else 8.0
    ),
    "hm": lambda dense: HmScheduler(chi=0.5 if dense else 0.05),
    "kv": lambda dense: KvScheduler(
        initial_probability=0.5 if dense else 0.05, recovery_slots=3
    ),
}


def _count_scans(monkeypatch, counts):
    scan_state = runloop._scan_state

    def counted(policy, depths):
        counts["scans"] += 1
        return scan_state(policy, depths)

    monkeypatch.setattr(runloop, "_scan_state", counted)


def _drains(model, requests, history):
    """Per slot of ``history``: the drained links' local indices in the
    busy set the slot started with, and that set's size."""
    depth = np.bincount(requests, minlength=model.num_links)
    slots = []
    for record in history:
        busy = np.flatnonzero(depth).tolist()
        for link in record.succeeded:
            depth[link] -= 1
        drained = [busy.index(e) for e in record.succeeded if not depth[e]]
        slots.append((drained, len(busy)))
    return slots


@pytest.mark.parametrize("model_name", sorted(DRAIN_MODELS))
@pytest.mark.parametrize("scheduler_name", sorted(DRAIN_SCHEDULERS))
def test_scanning_drains_replay_the_per_slot_loop(monkeypatch,
                                                  scheduler_name,
                                                  model_name):
    """Runs whose slots drain several links at once, and drain the
    first and the last local index, replay ``run_reference`` on the
    numpy engine with scans on: delivered and remaining order, slots,
    history and the generator's end state."""
    model = DRAIN_MODELS[model_name]()
    links = model.num_links
    shapes = {
        # Every depth 1: decay scans at a shared threshold.
        "single": list(range(links)),
        # The first and the last link hold two packets each.
        "mixed": list(range(links)) + [0, links - 1],
    }
    seen = {"together": 0, "first": 0, "last": 0, "scans": 0}
    _count_scans(monkeypatch, seen)
    for dense in (True, False):
        scheduler = DRAIN_SCHEDULERS[scheduler_name](dense)
        for requests in shapes.values():
            for seed in range(6):
                gen = np.random.default_rng(seed)
                reference = run_reference(scheduler, model, requests, 600,
                                          gen, record_history=True)
                want = _outcome(reference, gen)
                gen = np.random.default_rng(seed)
                with use_backend("numpy"):
                    task = FusedTask(scheduler.fused_policy(), model,
                                     requests, 600, gen, True)
                    assert _outcome(task.run(), gen) == want
                for drained, size in _drains(model, requests,
                                             reference.history):
                    seen["together"] += len(drained) >= 2
                    seen["first"] += size >= 2 and 0 in drained
                    seen["last"] += size >= 2 and size - 1 in drained
    assert all(seen.values()), seen


#: The scans of the run below (21 sub-runs, 96 event slots). A shared-threshold sub-run reads every event slot
#: from the hits of one scan until its coins run out; rescanning after
#: every drain would add about one scan per event slot.
PINNED_SCANS = 21


def test_shared_threshold_run_pins_its_scan_count(monkeypatch):
    """A seed-0 transformed decay run on distinct links (every sub-run
    has every depth 1, so its links share one threshold) compares
    :data:`PINNED_SCANS` windows, fewer than its event slots."""
    counts = {"scans": 0, "events": 0, "runs": 0}
    finish, update = FusedTask.finish, DecayPolicy.update
    _count_scans(monkeypatch, counts)

    def counted_finish(task):
        counts["runs"] += 1
        assert task.policy.shared
        return finish(task)

    def counted_update(policy, att_idx, ok):
        counts["events"] += att_idx.size > 0
        return update(policy, att_idx, ok)

    monkeypatch.setattr(FusedTask, "finish", counted_finish)
    monkeypatch.setattr(DecayPolicy, "update", counted_update)
    model = _sinr_model()
    algorithm = TransformedAlgorithm(
        DecayScheduler(), m=model.network.size_m, chi_scale=0.05
    )
    with use_backend("numpy"):
        result = algorithm.run(model, list(range(model.num_links)), 10**6,
                               np.random.default_rng(0))
    assert not result.remaining
    assert counts["runs"] > 1
    assert counts["scans"] == PINNED_SCANS
    assert counts["scans"] < counts["events"]
