"""`ScenarioSpec` — one serializable description of a whole experiment.

Kesselheim's results are statements about *distributions of networks*:
a random geometric instance is drawn, a power scheme fixes the weight
matrix, a scheduler runs under some injection regime. A
:class:`ScenarioSpec` captures that entire pipeline as plain data —
topology generator + params, interference model, scheduler (optionally
transformed), injection process, backend, horizon, seed — so an
experiment can be

* **serialized**: ``to_dict``/``from_dict`` round-trip through JSON
  (numpy scalars and arrays are normalised on the way out), and the
  round-tripped spec produces bit-identical records;
* **shipped across a process boundary**: the spec is picklable under
  any start method; workers rebuild the network *inside* the worker,
  topology RNG derived from the spec's own seed, so nothing random
  ever crosses the boundary. A sweep cell is the same spec with its
  (rate, seed) applied (:func:`~repro.scenario.fleet.sweep_units`);
* **resolved late**: components are named through the unified registry
  (:mod:`repro.scenario.registry`) or by ``"module:function"`` path,
  with ``requires`` listing modules whose import registers custom
  components (spawn workers do not inherit the parent's registry).

Seeding convention (shared with the CLI): the topology and protocol
draw from ``seed`` itself, the injection process from ``seed + 1000``.
A sweep pins ``"seed"`` in ``topology_kwargs`` so every cell shares
one network while its protocol and injection vary with the cell seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import numbers
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.competitive import certified_rate
from repro.core.protocol import DynamicProtocol
from repro.core.transform import TransformedAlgorithm
from repro.errors import ConfigurationError
from repro.network.routing import build_routing_table
import repro.scenario.components  # noqa: F401  (registers the built-ins)
from repro.scenario.registry import resolve
from repro.sim.metrics import RETENTIONS
from repro.sim.runner import CellResult, measure_cell
from repro.staticsched.runloop import check_backend, use_backend

_RATE_MODES = ("fraction", "absolute")


def _accepts_seed(builder: Any) -> bool:
    """Whether ``builder`` takes a ``seed`` kwarg (directly or **kwargs).

    Registered topology components all do; dotted-path third-party
    callables may not, and handing them an unexpected kwarg would be a
    raw TypeError from a documented path. When in doubt (uninspectable
    builtins), don't inject.
    """
    try:
        parameters = inspect.signature(builder).parameters.values()
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return False
    return any(
        param.name == "seed" or param.kind is inspect.Parameter.VAR_KEYWORD
        for param in parameters
    )


def _plain(value: Any, where: str) -> Any:
    """Normalise ``value`` to plain JSON-serialisable Python data.

    Numpy scalars become Python scalars, numpy arrays nested lists,
    tuples lists. Anything else non-JSON raises — a spec that cannot
    round-trip must fail at serialisation time, not in a worker.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item, where) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item, where) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot serialise {type(value).__name__} value {value!r} "
        f"in {where}; specs carry plain data only"
    )


@dataclass(frozen=True)
class BuiltScenario:
    """Everything :meth:`ScenarioSpec.build` constructed, pre-wired.

    ``rate`` is the resolved absolute injection rate (fraction specs
    are multiplied out against ``certified``). ``protocol`` and
    ``injection`` are ``None`` when built with ``with_protocol=False``
    (component-only builds, e.g. the CLI preset adapter).
    """

    spec: "ScenarioSpec"
    network: Any
    model: Any
    algorithm: Any
    routing: Any
    certified: float
    rate: float
    protocol: Any = None
    injection: Any = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment as plain data; see the module docstring.

    ``rate`` is interpreted per ``rate_mode``: a *fraction* of the
    built algorithm's certified rate (the CLI convention), or an
    *absolute* injection rate. The protocol is always provisioned at
    ``min(rate, certified)`` — the sweep convention, so overload specs
    push injection past provisioning instead of inflating frames.
    """

    topology: str
    scheduler: str
    model: str = "packet-routing"
    injection: str = "uniform-pairs"
    topology_kwargs: Mapping[str, Any] = field(default_factory=dict)
    model_kwargs: Mapping[str, Any] = field(default_factory=dict)
    scheduler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    injection_kwargs: Mapping[str, Any] = field(default_factory=dict)
    transform: bool = False
    chi_scale: float = 0.05
    rate: float = 0.5
    rate_mode: str = "fraction"
    t_scale: float = 0.001
    frames: int = 100
    seed: int = 0
    backend: Optional[str] = None
    load_from_injected: bool = False
    metrics: str = "full"
    name: Optional[str] = None
    requires: Tuple[str, ...] = ()

    def __post_init__(self):
        for kind in ("topology", "scheduler", "model", "injection"):
            value = getattr(self, kind)
            if not isinstance(value, str) or not value:
                raise ConfigurationError(
                    f"scenario {kind} must be a non-empty component name, "
                    f"got {value!r}"
                )
        for kwargs_field in ("topology_kwargs", "model_kwargs",
                             "scheduler_kwargs", "injection_kwargs"):
            object.__setattr__(
                self, kwargs_field, dict(getattr(self, kwargs_field))
            )
        object.__setattr__(
            self, "requires", tuple(str(m) for m in self.requires)
        )
        if self.frames < 1:
            raise ConfigurationError(
                f"scenario frames must be >= 1, got {self.frames}"
            )
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, numbers.Integral)
            or self.seed < 0
        ):
            raise ConfigurationError(
                "scenario seed must be a non-negative integer, "
                f"got {self.seed!r}"
            )
        if not self.rate > 0:
            raise ConfigurationError(
                f"scenario rate must be positive, got {self.rate}"
            )
        if self.rate_mode not in _RATE_MODES:
            raise ConfigurationError(
                f"rate_mode must be one of {', '.join(_RATE_MODES)}, "
                f"got {self.rate_mode!r}"
            )
        if not self.t_scale > 0:
            raise ConfigurationError(
                f"t_scale must be positive, got {self.t_scale}"
            )
        if not self.chi_scale > 0:
            raise ConfigurationError(
                f"chi_scale must be positive, got {self.chi_scale}"
            )
        if self.backend is not None:
            check_backend(self.backend)
        if self.metrics not in RETENTIONS:
            raise ConfigurationError(
                f"scenario metrics must be one of {', '.join(RETENTIONS)}, "
                f"got {self.metrics!r}"
            )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data dict; JSON-safe (numpy scalars/arrays normalised)."""
        data: Dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "requires":
                value = list(value)
            data[spec_field.name] = _plain(
                value, f"ScenarioSpec.{spec_field.name}"
            )
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a scenario spec must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario spec field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**dict(data))

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with ``changes`` applied (fields re-validated)."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable hash of the run-defining configuration.

        Stored in checkpoints as a compatibility check: a checkpoint is
        resumable only by a spec with the same fingerprint. ``frames``
        is excluded (the horizon is exactly what resume extends) and so
        is ``backend`` (all backends replay the same bit stream —
        resuming under a different backend is supported and identical).
        ``metrics`` stays *in* the fingerprint: the two retention
        policies write different metrics/store snapshots, so cross-mode
        resume is refused rather than half-restored.
        """
        data = self.to_dict()
        data.pop("frames", None)
        data.pop("backend", None)
        if data.get("metrics") == "full":
            # The default drops out so full-mode fingerprints (and the
            # checkpoints carrying them) predating the metrics field
            # remain valid.
            data.pop("metrics")
        canonical = json.dumps(data, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- construction and execution ------------------------------------

    def build(self, with_protocol: bool = True) -> BuiltScenario:
        """Resolve components and construct the scenario.

        The topology builder receives ``seed=self.seed`` unless the
        spec's ``topology_kwargs`` pin one explicitly (or the builder —
        e.g. a dotted-path third-party callable — takes no ``seed``
        parameter at all); deterministic generators ignore it. With
        ``with_protocol`` the injection process is built first and the
        protocol shares its ``PacketStore``, exactly like the CLI
        commands.
        """
        for module in self.requires:
            importlib.import_module(module)
        topology_builder = resolve("topology", self.topology)
        topology_kwargs = dict(self.topology_kwargs)
        if "seed" not in topology_kwargs and _accepts_seed(topology_builder):
            topology_kwargs["seed"] = self.seed
        network = topology_builder(**topology_kwargs)
        model_builder = resolve("model", self.model)
        model_kwargs = dict(self.model_kwargs)
        if "seed" not in model_kwargs and _accepts_seed(model_builder):
            # Stateful models (fading, unreliable, jammed) draw their
            # own randomness; the spec's seed keeps them replayable.
            model_kwargs["seed"] = self.seed
        model = model_builder(network, **model_kwargs)
        algorithm = resolve("scheduler", self.scheduler)(
            **self.scheduler_kwargs
        )
        if self.transform:
            algorithm = TransformedAlgorithm(
                algorithm, m=network.size_m, chi_scale=self.chi_scale
            )
        certified = certified_rate(algorithm, network.size_m)
        rate = (
            self.rate * certified
            if self.rate_mode == "fraction"
            else self.rate
        )
        routing = build_routing_table(network)
        protocol = injection = None
        if with_protocol:
            injection = resolve("injection", self.injection)(
                routing, model, rate, self.seed, **self.injection_kwargs
            )
            protocol = DynamicProtocol(
                model,
                algorithm,
                min(rate, certified),
                t_scale=self.t_scale,
                rng=self.seed,
                store=injection.store,
            )
        return BuiltScenario(
            spec=self,
            network=network,
            model=model,
            algorithm=algorithm,
            routing=routing,
            certified=certified,
            rate=rate,
            protocol=protocol,
            injection=injection,
        )

    def run(
        self,
        rate_index: int = 0,
        checkpoint_path: Optional[str] = None,
        snapshot_interval: Optional[int] = None,
    ) -> CellResult:
        """Build and measure the scenario in whichever process this runs.

        Returns the same :class:`~repro.sim.runner.CellResult` a sweep
        cell produces, so fleet results fold through the shared
        aggregation machinery. ``backend`` (when set) is pinned for the
        duration of the run only.

        With ``checkpoint_path`` the run is resumable: a valid existing
        checkpoint (matching this spec's :meth:`fingerprint`) is
        restored and only the remaining frames run, with a snapshot
        written every ``snapshot_interval`` frames and at the end. An
        invalid, corrupt, or foreign checkpoint is discarded and the
        run restarts from frame 0 — the run is deterministic, so the
        result is bit-identical either way.
        """
        built = self.build()
        context = (
            use_backend(self.backend) if self.backend else nullcontext()
        )
        with context:
            if checkpoint_path is None:
                return measure_cell(
                    built.protocol,
                    built.injection,
                    self.frames,
                    rate=built.rate,
                    seed=self.seed,
                    rate_index=rate_index,
                    load_from_injected=self.load_from_injected,
                    metrics=self.metrics,
                )
            from repro.sim import checkpoint as ckpt
            from repro.sim.engine import FrameSimulation
            from repro.sim.runner import summarize_cell

            fingerprint = self.fingerprint()
            simulation = FrameSimulation(
                built.protocol, built.injection, metrics=self.metrics
            )
            if os.path.exists(checkpoint_path):
                try:
                    ckpt.load_checkpoint_into(
                        simulation, checkpoint_path, fingerprint=fingerprint
                    )
                    if simulation.frames_run > self.frames:
                        raise ConfigurationError(
                            "checkpoint is past the requested horizon"
                        )
                except ConfigurationError:
                    # A restore can fail mid-way, leaving mixed state:
                    # rebuild from scratch and start at frame 0.
                    built = self.build()
                    simulation = FrameSimulation(
                        built.protocol, built.injection, metrics=self.metrics
                    )
            ckpt.run_with_checkpoints(
                simulation,
                self.frames,
                checkpoint_path,
                interval=snapshot_interval,
                fingerprint=fingerprint,
            )
            return summarize_cell(
                built.protocol,
                simulation.metrics,
                self.frames,
                rate=built.rate,
                seed=self.seed,
                rate_index=rate_index,
                load_from_injected=self.load_from_injected,
            )


__all__ = ["BuiltScenario", "ScenarioSpec"]
