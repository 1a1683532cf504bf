"""Golden digests of the ``sweep`` and ``compare`` commands.

``golden_runs.json`` holds, under ``cli/`` keys, one sha256 of each
command's stdout and one per cell of the ``CellResult`` every cell
reduced to (captured by wrapping the executor the command maps its
cells over). The sweep runs a random-topology preset, so its digests
also pin the convention that a sweep draws its network from seed 0 and
varies only the protocol and injection seeds.

Re-record (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import sys

import pytest

from repro.sim.sharding import SerialExecutor

# The module, not the ``main`` function ``repro.cli`` re-exports.
cli_main = importlib.import_module("repro.cli.main")

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_runs.json"
)
GOLDEN_PREFIX = "cli/"

RUNS = {
    "sweep/sinr-linear-8": [
        "sweep", "--model", "sinr-linear", "--nodes", "8", "--frames", "20",
        "--fractions", "0.5,1.2", "--seeds", "0,1",
    ],
    "compare/10-seed1-f0.5": [
        "compare", "--nodes", "10", "--frames", "20", "--seed", "1",
        "--rate-fraction", "0.5",
    ],
    "compare/10-seed1-f1.0": [
        "compare", "--nodes", "10", "--frames", "20", "--seed", "1",
        "--rate-fraction", "1.0",
    ],
}

#: Cells per run: sweep = 2 fractions x 2 seeds, compare = 3 contenders.
CELLS = {"sweep/sinr-linear-8": 4}
CELLS.update({run: 3 for run in RUNS if run.startswith("compare/")})


class _RecordingExecutor:
    """Serial execution that keeps every cell's result."""

    name = "serial"
    workers = 1

    def __init__(self):
        self.results = []

    def map(self, cells):
        results = SerialExecutor().map(cells)
        self.results.extend(results)
        return results


def _sha(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()


def _cell_digest(result) -> str:
    return _sha(
        json.dumps(
            dataclasses.asdict(result),
            sort_keys=True,
            default=lambda value: value.item(),
        )
    )


def _run_digests(run: str, monkeypatch=None) -> dict:
    """Golden key -> digest for one CLI run."""
    recorder = _RecordingExecutor()
    patch = monkeypatch or pytest.MonkeyPatch()
    patch.setattr(cli_main, "make_executor", lambda *a, **k: recorder)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main.main(RUNS[run])
    finally:
        if monkeypatch is None:
            patch.undo()
    assert code == 0
    digests = {f"{GOLDEN_PREFIX}{run}/stdout": _sha(out.getvalue())}
    for index, result in enumerate(recorder.results):
        digests[f"{GOLDEN_PREFIX}{run}/cell/{index}"] = _cell_digest(result)
    return digests


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _golden_keys():
    for run, cells in CELLS.items():
        yield f"{GOLDEN_PREFIX}{run}/stdout"
        for index in range(cells):
            yield f"{GOLDEN_PREFIX}{run}/cell/{index}"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_run_matches_golden_digests(run, monkeypatch):
    golden = _golden()
    digests = _run_digests(run, monkeypatch)
    assert sorted(digests) == sorted(
        key for key in golden if key.startswith(f"{GOLDEN_PREFIX}{run}/")
    )
    for key, digest in digests.items():
        assert digest == golden[key], key


def test_golden_file_covers_the_runs():
    recorded = [k for k in _golden() if k.startswith(GOLDEN_PREFIX)]
    assert sorted(recorded) == sorted(_golden_keys())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_cli_golden.py --record")
    golden = {
        k: v for k, v in _golden().items() if not k.startswith(GOLDEN_PREFIX)
    }
    recorded = {}
    for run in RUNS:
        recorded.update(_run_digests(run))
    golden.update(recorded)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(recorded)} cli digests to {GOLDEN_PATH}")
