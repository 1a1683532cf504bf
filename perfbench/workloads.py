"""Workload definitions and the passes the benchmark times.

``workloads.json`` beside this file holds each workload as plain
:class:`~repro.scenario.ScenarioSpec` data: a ``base`` spec plus one
override per unit. The workload seed offsets every unit's ``seed`` (the
protocol and injection randomness); topologies pin their own seed in
``topology_kwargs`` so every seed runs the same networks. The program
only ever receives the generated specs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil

from repro.scenario import FleetUnit, ScenarioSpec, run_scenario_fleet
from repro.scenario.batched import BatchedExecutor
from repro.sim.engine import FrameSimulation
from repro.sim.runner import summarize_cell
from repro.sim.sharding import SerialExecutor
from repro.staticsched.runloop import resolve_backend

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_PATH = os.path.join(HERE, "workloads.json")


def load_config() -> dict:
    with open(CONFIG_PATH) as handle:
        return json.load(handle)


def spec_dicts(workload: dict, seed: int) -> list:
    """The workload's unit specs as plain dicts, seeds offset by ``seed``."""
    specs = []
    for unit in workload["units"]:
        spec = {**workload["base"], **unit}
        spec["seed"] = spec.get("seed", 0) + seed
        specs.append(spec)
    return specs


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------


def _canonical(value):
    if dataclasses.is_dataclass(value):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    raise TypeError(f"cannot digest {type(value).__name__}")


def record_digest(record) -> str:
    """sha256 of one ``CellResult``; floats exact, every NaN equal."""
    text = json.dumps(_canonical(record), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_digest(unit_digests) -> str:
    return hashlib.sha256("\n".join(unit_digests).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


class SteppedUnit:
    """A fleet unit advanced one frame per ``FrameSimulation.run(1)``.

    Mirrors ``ScenarioSpec.run`` without a checkpoint; the record must
    equal the executor pass's record. ``clock`` is the pass's
    ``tracing.Clock``: it marks each frame's start and end, and each
    frame appends its ``(first, stop)`` range of marks to ``frames``.
    """

    def __init__(self, spec, index: int, clock, frames: list):
        self.spec = spec
        self.index = index
        self.clock = clock
        self.frames = frames

    def run(self):
        spec = self.spec
        built = spec.build()
        simulation = FrameSimulation(
            built.protocol, built.injection, metrics=spec.metrics
        )
        clock = self.clock
        for _ in range(spec.frames):
            first = len(clock.marks)
            clock()
            simulation.run(1)
            clock()
            self.frames.append((first, len(clock.marks)))
        return summarize_cell(
            built.protocol,
            simulation.metrics,
            spec.frames,
            rate=built.rate,
            seed=spec.seed,
            rate_index=self.index,
            load_from_injected=spec.load_from_injected,
        )


class Workload:
    """One named workload at one seed, ready to run passes."""

    def __init__(self, name: str, config: dict, seed: int, work_dir: str):
        self.name = name
        self.config = config
        self.seed = seed
        self.work_dir = work_dir
        self.spec_data = spec_dicts(config, seed)
        self.specs = [ScenarioSpec.from_dict(data) for data in self.spec_data]
        self.resume = config["pass"] == "resume"

    def executor(self):
        if self.config["executor"] == "batched":
            return BatchedExecutor(strict=True)
        return SerialExecutor()

    def run_pass(self):
        """One executor pass; returns its records in unit order."""
        if not self.resume:
            return run_scenario_fleet(self.specs, self.executor()).records
        return self._resume_pass()

    def _resume_pass(self):
        """Half the horizon with snapshots, then resume to the full one."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        interval = self.config["snapshot_interval"]
        paths = [
            os.path.join(self.work_dir, f"unit{index}.ckpt")
            for index in range(len(self.specs))
        ]
        executor = self.executor()
        executor.map([
            FleetUnit(spec.replace(frames=spec.frames // 2), index)
            .with_checkpoint(path, interval)
            for index, (spec, path) in enumerate(zip(self.specs, paths))
        ])
        records = executor.map([
            FleetUnit(spec, index).with_checkpoint(path, interval)
            for index, (spec, path) in enumerate(zip(self.specs, paths))
        ])
        shutil.rmtree(self.work_dir, ignore_errors=True)
        return records

    def stepped_pass(self, clock, frames: list):
        """Every unit stepped frame by frame through ``SerialExecutor``."""
        return SerialExecutor().map([
            SteppedUnit(spec, index, clock, frames)
            for index, spec in enumerate(self.specs)
        ])

    def simulated_slots(self, records) -> int:
        return sum(
            spec.frames * record.frame_length
            for spec, record in zip(self.specs, records)
        )

    def lanes(self) -> dict:
        return {
            str(spec.backend): resolve_backend(spec.backend)
            for spec in self.specs
        }
