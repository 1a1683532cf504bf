"""Golden digests of static-scheduler runs, recorded before lanes changed.

``golden_runs.json`` holds one sha256 per (scheduler, model, backend,
seed) over the ``test_kernel_parity`` scheduler × model matrix, run
with history recording on. Each digest covers the delivered order, the
remaining order, the slots used, the materialised slot history and the
caller's generator end state, so any change to what a backend draws,
decides or records shows up here — independently of the other parity
tests, which only compare lanes with each other.

Re-record (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_golden_runs.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.staticsched import scalar_reference, use_backend

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_kernel_parity import KERNEL_SCHEDULERS, MODEL_FACTORIES  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_runs.json"
)
BACKENDS = ("numpy", "scalar")
# Keys other test modules own: "protocol/" is tests/test_store_parity.py,
# "injection/" is tests/test_injection_golden.py, "cli/" is
# tests/test_cli_golden.py, "transform/" is tests/test_transform_golden.py.
FOREIGN_PREFIXES = ("protocol/", "injection/", "cli/", "transform/")
SEEDS = (5, 17)


def _digest(sched_name: str, model_name: str, backend: str, seed: int) -> str:
    model = MODEL_FACTORIES[model_name]()
    scheduler = KERNEL_SCHEDULERS[sched_name]()
    rng = np.random.default_rng(seed)
    requests = list(rng.integers(0, model.num_links, size=25))
    budget = min(
        scheduler.budget_for(model.interference_measure(requests), 25), 400
    )
    gen = np.random.default_rng(seed + 1)
    context = scalar_reference() if backend == "scalar" else use_backend(backend)
    with context:
        result = scheduler.run(
            model, requests, budget, rng=gen, record_history=True
        )
    payload = {
        "delivered": [int(i) for i in result.delivered],
        "remaining": [int(i) for i in result.remaining],
        "slots_used": int(result.slots_used),
        "history": [
            [[int(e) for e in r.attempted], [int(e) for e in r.succeeded]]
            for r in result.history
        ],
        "generator": gen.bit_generator.state,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _keys():
    for sched_name in sorted(KERNEL_SCHEDULERS):
        for model_name in sorted(MODEL_FACTORIES):
            for backend in BACKENDS:
                for seed in SEEDS:
                    yield sched_name, model_name, backend, seed


def _key(sched_name, model_name, backend, seed) -> str:
    return f"{sched_name}/{model_name}/{backend}/{seed}"


def _load():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
@pytest.mark.parametrize("sched_name", sorted(KERNEL_SCHEDULERS))
def test_runs_match_golden_digests(sched_name, model_name):
    golden = _load()
    for backend in BACKENDS:
        for seed in SEEDS:
            key = _key(sched_name, model_name, backend, seed)
            assert _digest(sched_name, model_name, backend, seed) == (
                golden[key]
            ), key


def test_golden_file_covers_the_matrix():
    static = [k for k in _load() if not k.startswith(FOREIGN_PREFIXES)]
    assert sorted(static) == sorted(_key(*k) for k in _keys())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_runs.py --record")
    digests = {_key(*k): _digest(*k) for k in _keys()}
    foreign = {
        k: v for k, v in _load().items() if k.startswith(FOREIGN_PREFIXES)
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({**digests, **foreign}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
