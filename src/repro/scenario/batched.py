"""Two names kept for callers that still import them: a fleet executor
and a stream runner, both serial.

Each network runs its frames on its own static algorithm, so the order
in which a fleet's networks run can never change a record.
:class:`BatchedExecutor` is therefore the serial executor: its
:meth:`~BatchedExecutor.map` hands the units to
:func:`run_batched_streams`, which runs each one through ``unit.run()``.
"""

from __future__ import annotations

from typing import Any, List, Sequence


def run_batched_streams(units: List[Any]) -> List:
    """Run each unit through ``unit.run()``; results in input order."""
    return [unit.run() for unit in units]


class BatchedExecutor:
    """The serial executor under the name ``BatchedExecutor``.

    ``strict`` is accepted and ignored: every unit runs the same way.
    """

    def __init__(self, strict: bool = False):
        del strict

    def map(self, cells: Sequence[Any]) -> List:
        return run_batched_streams(list(cells))


__all__ = ["BatchedExecutor", "run_batched_streams"]
