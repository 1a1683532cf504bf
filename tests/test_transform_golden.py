"""The Section-3 transform against golden digests.

Every case below runs :class:`~repro.core.transform.TransformedAlgorithm`
with history recording on and hashes the delivered order, the remaining
order, the slots used, the materialised slot history, the size of every
base sub-run and the caller's generator end state into
``golden_runs.json`` (keys under ``transform/``). The cases cover decay
and KV bases on the SINR and affectance models, instances dense enough
for ``psi > 1`` delay classes over one to three rounds (some classes
empty), ``charge_reserved`` accounting and a run at exactly the
transform's own Theorem-1 budget. Every budget leaves room for every
sub-run's full window, so the cases pin the class partition and the
sub-run sequence, not the out-of-budget cut (``tests/test_transform.py``
pins that).

Re-record (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_transform_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.core.steps import drive_steps
from repro.core.transform import TransformedAlgorithm
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.network.topology import mac_network, random_sinr_network
from repro.sinr.weights import linear_power_model
from repro.staticsched import DecayScheduler, KvScheduler

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_runs.json"
)
GOLDEN_PREFIX = "transform/"
SEEDS = (3, 11)


def _sinr_model():
    return linear_power_model(
        random_sinr_network(15, rng=7), alpha=3.0, beta=1.0, noise=0.05
    )


def _affectance_model():
    rng = np.random.default_rng(23)
    weights = rng.random((12, 12)) * 0.3
    np.fill_diagonal(weights, 1.0)
    return AffectanceThresholdModel(mac_network(12), weights, threshold=1.0)


MODELS = {"sinr": _sinr_model, "affectance": _affectance_model}
BASES = {"decay": DecayScheduler, "kv": KvScheduler}
#: Case name -> (requests, links they crowd, chi_scale, charge_reserved,
#: budget); a budget of None is the transform's own ``budget_for``.
CASES = {
    "dense": (120, 4, 0.05, False, 10**9),
    "reserved": (90, 3, 0.05, True, 10**9),
    "own-budget": (150, 3, 0.05, False, None),
    "empty-classes": (30, 2, 0.01, False, 10**9),
    "sparse": (20, 12, 1.0, False, 10**9),
}


def _requests(model, n, links, seed):
    rng = np.random.default_rng(seed)
    pool = rng.choice(model.num_links, size=min(links, model.num_links),
                      replace=False)
    return [int(pool[i % pool.size]) for i in range(n)]


def _digest(base: str, model_name: str, case: str, seed: int) -> str:
    model = MODELS[model_name]()
    n, links, chi_scale, reserved, budget = CASES[case]
    requests = _requests(model, n, links, seed)
    transformed = TransformedAlgorithm(
        BASES[base](), m=model.network.size_m, chi_scale=chi_scale,
        charge_reserved=reserved,
    )
    if budget is None:
        budget = transformed.budget_for(
            model.interference_measure(requests), n
        )
    gen = np.random.default_rng(seed + 1)
    steps = transformed.run_steps(
        model, requests, budget, gen, record_history=True
    )
    subruns = []

    def counted(inner):
        value = None
        while True:
            try:
                call = inner.send(value)
            except StopIteration as stop:
                return stop.value
            subruns.append(len(call.requests))
            value = yield call

    result = drive_steps(counted(steps))
    payload = {
        "delivered": [int(i) for i in result.delivered],
        "remaining": [int(i) for i in result.remaining],
        "slots_used": int(result.slots_used),
        "history": [
            [[int(e) for e in r.attempted], [int(e) for e in r.succeeded]]
            for r in result.history
        ],
        "subruns": subruns,
        "generator": gen.bit_generator.state,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _golden_cases():
    return {
        f"{GOLDEN_PREFIX}{base}/{model}/{case}/{seed}": (base, model, case,
                                                        seed)
        for base in sorted(BASES)
        for model in sorted(MODELS)
        for case in sorted(CASES)
        for seed in SEEDS
    }


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("base", sorted(BASES))
def test_transform_runs_match_golden_digests(base, model_name, case):
    golden = _golden()
    for seed in SEEDS:
        key = f"{GOLDEN_PREFIX}{base}/{model_name}/{case}/{seed}"
        assert _digest(base, model_name, case, seed) == golden[key], key


def test_golden_file_covers_the_transform_cases():
    recorded = [k for k in _golden() if k.startswith(GOLDEN_PREFIX)]
    assert sorted(recorded) == sorted(_golden_cases())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_transform_golden.py --record")
    golden = {
        k: v for k, v in _golden().items() if not k.startswith(GOLDEN_PREFIX)
    }
    cases = _golden_cases()
    golden.update({key: _digest(*args) for key, args in cases.items()})
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cases)} transform digests to {GOLDEN_PATH}")
