"""Numpy-versus-scalar parity over every registered interference model.

The model list comes from the component registry, not a hand-written
matrix, so a newly registered model is covered the day it lands. Each
model is built twice from the same seed on one small geometric network
and driven by decay, HM and KV — once through the numpy engine and once
through :func:`scalar_reference`. The two runs must agree on the
:class:`RunResult`, on the caller generator's end state and, for a
stateful model (fading, unreliable, jammed), on the model's
``state_dict()``: a numpy evaluator that skips the model's own
randomness shows up there even when the results happen to agree.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.scenario.components  # noqa: F401  (registers the models)
from repro.network.topology import random_sinr_network
from repro.scenario import registry
from repro.staticsched import DecayScheduler, HmScheduler, KvScheduler
from repro.staticsched.runloop import scalar_reference, use_backend

SCHEDULERS = {
    "decay": lambda: DecayScheduler(probability_scale=4.0),
    "hm": lambda: HmScheduler(chi=0.25),
    "kv": lambda: KvScheduler(initial_probability=0.25, recovery_slots=3),
}

BUDGET = 120


def _network():
    return random_sinr_network(8, rng=3)


def _run(model_name, scheduler_name, requests, seed):
    model = registry.resolve("model", model_name)(_network())
    gen = np.random.default_rng(seed)
    result = SCHEDULERS[scheduler_name]().run(
        model, requests, BUDGET, rng=gen, record_history=True
    )
    state = model.state_dict() if hasattr(model, "state_dict") else None
    return (
        list(result.delivered),
        list(result.remaining),
        result.slots_used,
        list(result.history),
        gen.bit_generator.state,
        state,
    )


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("model_name", registry.names("model"))
def test_numpy_matches_scalar_reference(model_name, scheduler_name):
    links = _network().num_links
    requests = [
        int(e) for e in np.random.default_rng(17).integers(0, links, 40)
    ]
    with scalar_reference():
        reference = _run(model_name, scheduler_name, requests, seed=9)
    with use_backend("numpy"):
        fused = _run(model_name, scheduler_name, requests, seed=9)
    assert fused == reference
