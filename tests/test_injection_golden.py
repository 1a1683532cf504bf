"""Markov ON/OFF injection against golden digests.

Before :class:`~repro.injection.markov.MarkovModulatedInjection` emitted
whole ranges at once, it ran one literal per-slot loop. Every case below
was run through that loop and its outcome hashed into
``golden_runs.json`` (keys under ``injection/``): the indices each call
returned, the store's ``injected_at`` stamps and path CSR, the chain
states, the slot cursor and every generator's RNG ``state_dict``. The
cases cover several seeds and generator shapes, range splits of length
1, frame-sized and uneven ranges, a ``state_dict``/``load_state_dict``
round-trip mid-stream, and the edge cases ``p_on_off = 1``,
``p_off_on = 1``, total mass below 1, zero-probability paths and an
empty distribution. The range sampler must reproduce each digest bit
for bit.

Re-record (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_injection_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.injection.markov import MarkovModulatedInjection
from repro.injection.stochastic import PathGenerator

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_runs.json"
)
GOLDEN_PREFIX = "injection/"

HORIZON = 120


def _shapes():
    """Shape name -> (generators, p_on_off, p_off_on)."""
    pair = [
        PathGenerator([((0,), 0.4), ((0, 1), 0.3)]),
        PathGenerator([((1,), 0.5)]),
    ]
    mixed = [
        PathGenerator([((0, 1, 2), 0.2), ((3,), 0.3), ((4, 5), 0.5)]),
        PathGenerator([((2,), 1.0)]),
        PathGenerator([((5, 4, 3, 2), 0.1)]),
        PathGenerator([((1,), 0.25), ((0, 2), 0.25), ((3, 1), 0.25)]),
        PathGenerator([((6,), 0.6), ((6, 7), 0.4)]),
        PathGenerator([((7,), 0.05)]),
    ]
    return {
        "pair": (pair, 0.3, 0.4),
        "mixed": (mixed, 0.15, 0.2),
        "single-full": ([PathGenerator([((0, 1), 1.0)])], 0.1, 0.1),
        "leave-on-always": (pair, 1.0, 0.35),
        "leave-off-always": (pair, 0.35, 1.0),
        "flip-every-slot": (pair, 1.0, 1.0),
        "sub-unit-mass": (
            [PathGenerator([((0,), 0.1), ((1,), 0.2)]),
             PathGenerator([((2, 3), 0.05)])],
            0.2,
            0.5,
        ),
        "zero-probability-paths": (
            [PathGenerator([((0,), 0.0), ((1,), 0.5), ((2,), 0.0),
                            ((3,), 0.5), ((4,), 0.0)]),
             PathGenerator([((5,), 0.0)])],
            0.25,
            0.6,
        ),
        "empty-distribution": (
            [PathGenerator([]), PathGenerator([((0, 1), 0.7)]),
             PathGenerator([])],
            0.4,
            0.3,
        ),
    }


def _splits():
    """Split name -> list of (start, end) ranges covering [0, HORIZON)."""
    uneven_cuts = [0, 1, 8, 8, 9, 40, 41, 77, 78, HORIZON]
    return {
        "slots": [(t, t + 1) for t in range(HORIZON)],
        "frames": [(t, t + 16) for t in range(0, HORIZON - 8, 16)]
        + [(HORIZON - 8, HORIZON)],
        "uneven": list(zip(uneven_cuts[:-1], uneven_cuts[1:])),
        "whole": [(0, HORIZON)],
    }


SEEDS = (0, 7, 123)


def _process(shape: str, seed: int) -> MarkovModulatedInjection:
    generators, p_on_off, p_off_on = _shapes()[shape]
    return MarkovModulatedInjection(generators, p_on_off, p_off_on, rng=seed)


def _emit(process, ranges, use_slot_calls: bool):
    returned = []
    for start, end in ranges:
        if use_slot_calls and end == start + 1:
            indices = process.indices_for_slot(start)
        else:
            indices = process.indices_for_range(start, end)
        returned.append([int(i) for i in indices])
    return returned


def _state_payload(process) -> dict:
    store = process.store
    return {
        "injected_at": [int(v) for v in store.injected_at],
        "offsets": [int(v) for v in store.offsets],
        "path_links": [int(v) for v in store.path_links],
        "state": process.state_dict(),
    }


def _hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _emission_digest(shape: str, split: str, seed: int) -> str:
    process = _process(shape, seed)
    ranges = _splits()[split]
    returned = _emit(process, ranges, use_slot_calls=split == "slots")
    return _hash({"returned": returned, **_state_payload(process)})


def _roundtrip_digest(shape: str, seed: int) -> str:
    """Run 37 slots, checkpoint through JSON, resume on a fresh process."""
    first = _process(shape, seed)
    head = first.indices_for_range(0, 37)
    state = json.loads(json.dumps(first.state_dict()))
    second = _process(shape, seed + 1000)
    second.load_state_dict(state)
    tail = _emit(second, [(37, 38), (38, 53), (53, HORIZON)], False)
    return _hash(
        {
            "head": [int(i) for i in head],
            "tail": tail,
            **_state_payload(second),
        }
    )


def _golden_cases():
    """Golden key -> zero-argument digest function."""
    cases = {}
    for shape in sorted(_shapes()):
        for seed in SEEDS:
            for split in sorted(_splits()):
                key = f"{GOLDEN_PREFIX}markov/{shape}/{split}/{seed}"
                cases[key] = (
                    lambda a=shape, b=split, c=seed: _emission_digest(a, b, c)
                )
            key = f"{GOLDEN_PREFIX}markov/{shape}/roundtrip/{seed}"
            cases[key] = lambda a=shape, c=seed: _roundtrip_digest(a, c)
    return cases


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("shape", sorted(_shapes()))
def test_markov_emission_matches_golden_digests(shape):
    golden = _golden()
    for seed in SEEDS:
        for split in sorted(_splits()):
            key = f"{GOLDEN_PREFIX}markov/{shape}/{split}/{seed}"
            assert _emission_digest(shape, split, seed) == golden[key], key


@pytest.mark.parametrize("shape", sorted(_shapes()))
def test_markov_checkpoint_roundtrip_matches_golden_digests(shape):
    golden = _golden()
    for seed in SEEDS:
        key = f"{GOLDEN_PREFIX}markov/{shape}/roundtrip/{seed}"
        assert _roundtrip_digest(shape, seed) == golden[key], key


def test_golden_file_covers_the_injection_cases():
    recorded = [k for k in _golden() if k.startswith(GOLDEN_PREFIX)]
    assert sorted(recorded) == sorted(_golden_cases())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_injection_golden.py --record")
    golden = {
        k: v for k, v in _golden().items() if not k.startswith(GOLDEN_PREFIX)
    }
    cases = _golden_cases()
    golden.update({key: digest() for key, digest in cases.items()})
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cases)} injection digests to {GOLDEN_PATH}")
