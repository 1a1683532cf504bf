"""Campaign engine: cross-product grids and frontier bisection.

The paper's headline claims are statements about *where the stable-rate
boundary sits* for each scheduler (Kesselheim, PODC 2012) — yet a fixed
rate sweep spends most of its cells far from that boundary. This module
turns the fleet runner into a survey instrument:

* A :class:`CampaignSpec` expresses a cross-product grid — topology x
  model x scheduler x injection — as one JSON document. It expands
  deterministically (axis-listing order, topology-major) into the
  existing declarative :class:`~repro.scenario.spec.ScenarioSpec`
  layer, so every grid cell resolves through the unified component
  registry and crosses process boundaries like any fleet spec.

* A **stability-frontier bisection** brackets each cell's boundary at
  the search range's endpoints, then bisects on injection rate until
  the bracket is narrower than ``tolerance``. Each probe is the
  majority verdict over the campaign's seeds. Probes are dispatched in
  deterministic waves through any executor from
  :mod:`repro.sim.sharding` (serial, process, resilient) — the
  bisection decisions depend only on the (deterministic) verdicts, so
  the frontier document is bit-identical across executors and worker
  counts.

* With a ``manifest_dir`` the campaign journals every completed probe
  into the PR 6 :class:`~repro.sim.resilience.FleetManifest`
  (checksummed, append-only). An interrupted campaign re-invoked with
  ``resume=True`` replays the identical probe sequence, recovering
  completed probes from the journal instead of re-simulating them —
  and produces a document bit-identical to an uninterrupted run.

A bisection resolves a cell's boundary to ``tolerance`` in
``2 + ceil(log2(span / tolerance))`` rate points where a fixed grid at
the same resolution needs ``ceil(span / tolerance) + 1`` — the
campaign result reports both counts (``total_simulations`` vs
``grid_equivalent_simulations``) so the saving is auditable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.asciiplot import phase_diagram
from repro.errors import ConfigurationError
from repro.scenario.fleet import FleetUnit
from repro.scenario.spec import ScenarioSpec, _plain
from repro.sim.runner import CellResult
from repro.sim.stability import MIN_FRAMES

#: The four grid axes, in expansion (outer-to-inner) order.
AXIS_KINDS = ("topology", "model", "scheduler", "injection")

#: How a finished cell search classifies its boundary.
FRONTIER_STATUSES = ("bracketed", "below-range", "above-range")

#: ScenarioSpec fields a campaign's ``base`` section may set. The
#: campaign owns the component axes, the rate (the search variable),
#: the seed, and the horizon — letting ``base`` override those would
#: make the document lie about what ran.
_BASE_FIELDS = ("t_scale", "backend", "metrics", "load_from_injected",
                "requires")


# ----------------------------------------------------------------------
# Spec: axes, search parameters, the campaign document
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AxisComponent:
    """One point on a grid axis: a named component plus its kwargs.

    In the JSON document an axis entry is either a bare component name
    (``"decay"``) or a mapping with ``name``, optional ``kwargs``,
    optional display ``label``, and — on the scheduler axis only —
    ``transform`` / ``chi_scale`` (the Section-3 wrapper is part of
    *which scheduler* runs, so it rides on this axis).
    """

    kind: str
    name: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    transform: bool = False
    chi_scale: Optional[float] = None

    def __post_init__(self):
        if self.kind not in AXIS_KINDS:
            raise ConfigurationError(
                f"unknown campaign axis '{self.kind}'; choose from "
                f"{', '.join(AXIS_KINDS)}"
            )
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"campaign {self.kind} axis entries need a non-empty "
                f"component name, got {self.name!r}"
            )
        object.__setattr__(self, "kwargs", dict(self.kwargs))
        if self.kind != "scheduler" and (
            self.transform or self.chi_scale is not None
        ):
            raise ConfigurationError(
                "transform/chi_scale belong on the scheduler axis, not "
                f"on {self.kind} entry '{self.name}'"
            )

    @classmethod
    def from_value(cls, kind: str, value: Any) -> "AxisComponent":
        if isinstance(value, str):
            return cls(kind=kind, name=value)
        if isinstance(value, Mapping):
            known = {"name", "kwargs", "label", "transform", "chi_scale"}
            unknown = set(value) - known
            if unknown:
                raise ConfigurationError(
                    f"unknown campaign {kind} axis field(s): "
                    f"{', '.join(sorted(unknown))}"
                )
            if "name" not in value:
                raise ConfigurationError(
                    f"campaign {kind} axis entries need a 'name'"
                )
            return cls(
                kind=kind,
                name=value["name"],
                kwargs=dict(value.get("kwargs") or {}),
                label=value.get("label"),
                transform=bool(value.get("transform", False)),
                chi_scale=value.get("chi_scale"),
            )
        raise ConfigurationError(
            f"a campaign {kind} axis entry is a component name or a "
            f"mapping, got {type(value).__name__}"
        )

    @property
    def display(self) -> str:
        """Label for tables and the phase diagram."""
        if self.label:
            return self.label
        return f"{self.name}+T" if self.transform else self.name

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.kwargs:
            data["kwargs"] = _plain(
                dict(self.kwargs), f"campaign {self.kind} axis kwargs"
            )
        if self.label is not None:
            data["label"] = self.label
        if self.transform:
            data["transform"] = True
        if self.chi_scale is not None:
            data["chi_scale"] = self.chi_scale
        return data


@dataclass(frozen=True)
class FrontierSearch:
    """The bisection axis: rate range, resolution, interpretation.

    ``rate_mode`` follows :class:`~repro.scenario.spec.ScenarioSpec`:
    ``"fraction"`` searches in multiples of each cell's own certified
    rate (the paper-normalised axis — one frontier number is comparable
    across schedulers), ``"absolute"`` in raw injection rate.
    ``max_rounds`` caps the bisection; a cell that hits the cap reports
    ``converged: false`` with its bracket as-is instead of looping.
    """

    rate_low: float = 0.25
    rate_high: float = 1.5
    tolerance: float = 0.1
    rate_mode: str = "fraction"
    max_rounds: int = 32

    def __post_init__(self):
        if not self.rate_low > 0:
            raise ConfigurationError(
                f"search rate_low must be positive, got {self.rate_low}"
            )
        if not self.rate_high > self.rate_low:
            raise ConfigurationError(
                f"search needs rate_high > rate_low, got "
                f"[{self.rate_low}, {self.rate_high}]"
            )
        if not self.tolerance > 0:
            raise ConfigurationError(
                f"search tolerance must be positive, got {self.tolerance}"
            )
        if self.rate_mode not in ("fraction", "absolute"):
            raise ConfigurationError(
                f"search rate_mode must be 'fraction' or 'absolute', "
                f"got {self.rate_mode!r}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"search max_rounds must be >= 1, got {self.max_rounds}"
            )

    @property
    def span(self) -> float:
        return self.rate_high - self.rate_low

    def grid_points(self) -> int:
        """Rate points a fixed grid needs for the same resolution."""
        return int(math.ceil(self.span / self.tolerance - 1e-12)) + 1

    def bisection_points(self) -> int:
        """Worst-case rate points the bisection needs (bracket + halvings)."""
        halvings = max(0, int(math.ceil(
            math.log2(self.span / self.tolerance) - 1e-12
        )))
        return 2 + min(halvings, self.max_rounds)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate_low": self.rate_low,
            "rate_high": self.rate_high,
            "tolerance": self.tolerance,
            "rate_mode": self.rate_mode,
            "max_rounds": self.max_rounds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FrontierSearch":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"campaign search must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign search field(s): "
                f"{', '.join(sorted(unknown))}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: a component choice per axis, pre-expanded to a spec.

    ``base`` is a fully-validated :class:`ScenarioSpec` whose rate is a
    placeholder — :meth:`probe_spec` stamps the probe's (rate, seed)
    onto it, which is all a bisection probe varies.
    """

    index: int
    topology: AxisComponent
    model: AxisComponent
    scheduler: AxisComponent
    injection: AxisComponent
    base: ScenarioSpec

    @property
    def label(self) -> str:
        return "|".join(
            getattr(self, kind).display for kind in AXIS_KINDS
        )

    def axis_labels(self) -> Dict[str, str]:
        return {kind: getattr(self, kind).display for kind in AXIS_KINDS}

    def probe_spec(self, rate: float, seed: int) -> ScenarioSpec:
        return self.base.replace(rate=rate, seed=seed)


@dataclass(frozen=True)
class CampaignSpec:
    """A cross-product scenario grid plus one frontier search, as data.

    The JSON shape (see :func:`campaign_from_data`)::

        {
          "name": "survey-1",
          "axes": {
            "topology":  ["grid", {"name": "random",
                                   "kwargs": {"num_nodes": 14}}],
            "model":     ["packet-routing"],
            "scheduler": ["single-hop",
                          {"name": "decay", "transform": true}],
            "injection": ["uniform-pairs"]
          },
          "seeds": [0, 1, 2],
          "frames": 150,
          "search": {"rate_low": 0.25, "rate_high": 1.5,
                     "tolerance": 0.1},
          "base": {"t_scale": 0.001}
        }

    ``axes.topology`` and ``axes.scheduler`` are required; ``model``
    and ``injection`` default to the ScenarioSpec defaults. ``base``
    may set only the run-environment fields (``t_scale``, ``backend``,
    ``metrics``, ``load_from_injected``, ``requires``) — the campaign
    owns the axes, the rate, the seed and the horizon.
    """

    topologies: Tuple[AxisComponent, ...]
    schedulers: Tuple[AxisComponent, ...]
    models: Tuple[AxisComponent, ...] = ()
    injections: Tuple[AxisComponent, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    frames: int = 150
    search: FrontierSearch = field(default_factory=FrontierSearch)
    base: Mapping[str, Any] = field(default_factory=dict)
    name: Optional[str] = None

    def __post_init__(self):
        if not self.models:
            object.__setattr__(
                self, "models",
                (AxisComponent(kind="model", name="packet-routing"),),
            )
        if not self.injections:
            object.__setattr__(
                self, "injections",
                (AxisComponent(kind="injection", name="uniform-pairs"),),
            )
        for attr, kind in self._AXIS_ATTRS.items():
            entries = tuple(getattr(self, attr))
            if not entries:
                raise ConfigurationError(
                    f"campaign axis '{kind}' must list at least one "
                    "component"
                )
            for entry in entries:
                if not isinstance(entry, AxisComponent):
                    raise ConfigurationError(
                        f"campaign axis '{kind}' entries must be "
                        f"AxisComponent, got {type(entry).__name__}"
                    )
                if entry.kind != kind:
                    raise ConfigurationError(
                        f"axis '{kind}' holds a component of kind "
                        f"'{entry.kind}' ({entry.name})"
                    )
            object.__setattr__(self, attr, entries)
        seeds = tuple(int(seed) for seed in self.seeds)
        if not seeds:
            raise ConfigurationError("campaign seeds must be non-empty")
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(
                f"campaign seeds must be distinct, got {list(seeds)}"
            )
        object.__setattr__(self, "seeds", seeds)
        if self.frames < MIN_FRAMES:
            raise ConfigurationError(
                f"campaign frames must be >= {MIN_FRAMES} (the stability "
                f"assessment's minimum), got {self.frames}"
            )
        base = dict(self.base)
        unknown = set(base) - set(_BASE_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"campaign base may set only {', '.join(_BASE_FIELDS)}; "
                f"got {', '.join(sorted(unknown))}"
            )
        object.__setattr__(self, "base", base)

    _AXIS_ATTRS = {
        "topologies": "topology",
        "models": "model",
        "schedulers": "scheduler",
        "injections": "injection",
    }

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "axes": {
                kind: [entry.to_dict() for entry in getattr(self, attr)]
                for attr, kind in self._AXIS_ATTRS.items()
            },
            "seeds": list(self.seeds),
            "frames": self.frames,
            "search": self.search.to_dict(),
        }
        if self.base:
            data["base"] = _plain(dict(self.base), "campaign base")
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a campaign spec must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {"axes", "seeds", "frames", "search", "base", "name"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign field(s): {', '.join(sorted(unknown))}"
            )
        axes = data.get("axes")
        if not isinstance(axes, Mapping):
            raise ConfigurationError(
                "a campaign needs an 'axes' mapping with at least "
                "'topology' and 'scheduler' entries"
            )
        unknown_axes = set(axes) - set(AXIS_KINDS)
        if unknown_axes:
            raise ConfigurationError(
                f"unknown campaign axes: {', '.join(sorted(unknown_axes))}"
                f"; choose from {', '.join(AXIS_KINDS)}"
            )
        for required in ("topology", "scheduler"):
            if required not in axes:
                raise ConfigurationError(
                    f"campaign axes must include '{required}'"
                )

        def axis(kind: str) -> Tuple[AxisComponent, ...]:
            values = axes.get(kind, [])
            if isinstance(values, (str, Mapping)):
                values = [values]
            if not isinstance(values, Sequence):
                raise ConfigurationError(
                    f"campaign axis '{kind}' must be a list of entries"
                )
            return tuple(
                AxisComponent.from_value(kind, value) for value in values
            )

        kwargs: Dict[str, Any] = {
            "topologies": axis("topology"),
            "models": axis("model"),
            "schedulers": axis("scheduler"),
            "injections": axis("injection"),
        }
        if "seeds" in data:
            kwargs["seeds"] = tuple(data["seeds"])
        if "frames" in data:
            kwargs["frames"] = data["frames"]
        if "search" in data:
            kwargs["search"] = FrontierSearch.from_dict(data["search"])
        if "base" in data:
            base = data["base"]
            if not isinstance(base, Mapping):
                raise ConfigurationError(
                    f"campaign base must be a mapping, got "
                    f"{type(base).__name__}"
                )
            kwargs["base"] = dict(base)
        if "name" in data:
            kwargs["name"] = data["name"]
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    def fingerprint(self) -> str:
        """Stable identity of the whole campaign (grid + search + seeds).

        Stamped into the resume manifest: a manifest directory is only
        reusable by the identical campaign, so editing the spec refuses
        a stale journal instead of silently mixing probe results.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- expansion -----------------------------------------------------

    def expand(self) -> List[CampaignCell]:
        """The deterministic cross product, topology-major.

        Cells come out in ``itertools.product`` order over (topology,
        model, scheduler, injection), each axis in its listed order —
        expansion is a pure function of the document, so two processes
        (or a resumed campaign) agree on every cell index.
        """
        cells: List[CampaignCell] = []
        for index, (topology, model, scheduler, injection) in enumerate(
            itertools.product(
                self.topologies, self.models, self.schedulers,
                self.injections,
            )
        ):
            spec_kwargs: Dict[str, Any] = dict(self.base)
            if scheduler.chi_scale is not None:
                spec_kwargs["chi_scale"] = scheduler.chi_scale
            base = ScenarioSpec(
                topology=topology.name,
                topology_kwargs=dict(topology.kwargs),
                model=model.name,
                model_kwargs=dict(model.kwargs),
                scheduler=scheduler.name,
                scheduler_kwargs=dict(scheduler.kwargs),
                transform=scheduler.transform,
                injection=injection.name,
                injection_kwargs=dict(injection.kwargs),
                rate=self.search.rate_low,
                rate_mode=self.search.rate_mode,
                frames=self.frames,
                seed=self.seeds[0],
                **spec_kwargs,
            )
            cells.append(
                CampaignCell(
                    index=index,
                    topology=topology,
                    model=model,
                    scheduler=scheduler,
                    injection=injection,
                    base=base,
                )
            )
        return cells


def campaign_from_data(data: Any) -> CampaignSpec:
    """Parse campaign-file payloads: the campaign dict, possibly wrapped
    in ``{"campaign": {...}}``."""
    if isinstance(data, Mapping) and "campaign" in data:
        data = data["campaign"]
    return CampaignSpec.from_dict(data)


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Read a JSON campaign file (see :func:`campaign_from_data`)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read campaign file '{path}': {exc}"
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"campaign file '{path}' is not valid JSON: {exc}"
        )
    return campaign_from_data(data)


# ----------------------------------------------------------------------
# Frontier search results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeOutcome:
    """One rate probed for one cell: majority verdict over the seeds."""

    rate: float
    stable: bool
    stable_fraction: float
    results: Tuple[CellResult, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "stable": self.stable,
            "stable_fraction": self.stable_fraction,
            "seeds": [
                {
                    "seed": result.seed,
                    "stable": result.verdict.stable,
                    "tail_queue": result.tail_queue,
                    "throughput": result.throughput,
                    "injected": result.injected,
                    "delivered": result.delivered,
                }
                for result in self.results
            ],
        }


@dataclass(frozen=True)
class CellFrontier:
    """Where one cell's stable-rate boundary landed.

    ``status``: ``"bracketed"`` (boundary inside the search range,
    ``lower`` the highest rate probed stable and ``upper`` the lowest
    probed unstable), ``"below-range"`` (unstable already at
    ``rate_low``), or ``"above-range"`` (still stable at ``rate_high``).
    ``frontier`` is the bracket midpoint (``None`` out of range);
    ``converged`` is False only when ``max_rounds`` cut the bisection
    short of ``tolerance``.
    """

    index: int
    labels: Mapping[str, str]
    status: str
    lower: Optional[float]
    upper: Optional[float]
    frontier: Optional[float]
    converged: bool
    probes: Tuple[ProbeOutcome, ...]

    @property
    def simulations(self) -> int:
        return sum(len(probe.results) for probe in self.probes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "labels": dict(self.labels),
            "status": self.status,
            "lower": self.lower,
            "upper": self.upper,
            "frontier": self.frontier,
            "converged": self.converged,
            "simulations": self.simulations,
            "probes": [probe.to_dict() for probe in self.probes],
        }


@dataclass
class CampaignResult:
    """The full survey outcome: one frontier per grid cell."""

    spec: CampaignSpec
    cells: List[CellFrontier]

    @property
    def total_simulations(self) -> int:
        return sum(cell.simulations for cell in self.cells)

    @property
    def grid_equivalent_simulations(self) -> int:
        """Simulations a fixed-rate grid needs for the same resolution."""
        return (
            self.spec.search.grid_points()
            * len(self.spec.seeds)
            * len(self.cells)
        )

    def document(self) -> Dict[str, Any]:
        """The JSON result document (deterministic: no timestamps)."""
        return {
            "kind": "campaign-frontier",
            "campaign": self.spec.to_dict(),
            "fingerprint": self.spec.fingerprint(),
            "cells": [cell.to_dict() for cell in self.cells],
            "total_simulations": self.total_simulations,
            "grid_equivalent_simulations": self.grid_equivalent_simulations,
        }

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.document(), **dumps_kwargs)

    def phase_diagram(self, width: int = 44) -> str:
        """Ascii phase diagram: one frontier bar per cell."""
        varying = [
            kind
            for attr, kind in CampaignSpec._AXIS_ATTRS.items()
            if len(getattr(self.spec, attr)) > 1
        ]
        rows = []
        for cell in self.cells:
            if varying:
                label = "|".join(cell.labels[kind] for kind in varying)
            else:
                label = "|".join(
                    cell.labels[kind] for kind in AXIS_KINDS
                )
            rows.append((label, cell.lower, cell.upper, cell.status))
        axis_name = (
            "fraction of certified rate"
            if self.spec.search.rate_mode == "fraction"
            else "absolute injection rate"
        )
        return phase_diagram(
            rows,
            self.spec.search.rate_low,
            self.spec.search.rate_high,
            width=width,
            title=f"stable-rate frontier ({axis_name})",
        )


# ----------------------------------------------------------------------
# The bisection engine
# ----------------------------------------------------------------------


@dataclass
class _CellSearch:
    """Mutable bisection state for one cell."""

    cell: CampaignCell
    lower: Optional[float] = None  # highest rate probed stable
    upper: Optional[float] = None  # lowest rate probed unstable
    status: Optional[str] = None
    converged: bool = True
    rounds: int = 0
    probes: List[ProbeOutcome] = field(default_factory=list)
    wave_outcomes: Dict[float, ProbeOutcome] = field(default_factory=dict)

    def next_rates(self, search: FrontierSearch) -> List[float]:
        """The rates this cell needs probed in the coming wave."""
        if self.status is not None:
            return []
        if not self.probes:
            # Bracket wave: both endpoints at once (they are
            # independent, so one wave covers both).
            return [search.rate_low, search.rate_high]
        assert self.lower is not None and self.upper is not None
        if self.upper - self.lower <= search.tolerance:
            self.status = "bracketed"
            return []
        if self.rounds >= search.max_rounds:
            self.status = "bracketed"
            self.converged = False
            return []
        return [0.5 * (self.lower + self.upper)]

    def fold(self, outcomes: Mapping[float, ProbeOutcome],
             search: FrontierSearch) -> None:
        """Absorb this wave's probe outcomes into the bracket."""
        if self.lower is None and self.upper is None and self.status is None:
            low = outcomes[search.rate_low]
            high = outcomes[search.rate_high]
            self.probes.extend([low, high])
            if not low.stable:
                self.status = "below-range"
            elif high.stable:
                self.status = "above-range"
            else:
                self.lower = search.rate_low
                self.upper = search.rate_high
            return
        (rate,) = outcomes
        outcome = outcomes[rate]
        self.probes.append(outcome)
        self.rounds += 1
        if outcome.stable:
            self.lower = rate
        else:
            self.upper = rate

    def frontier(self, search: FrontierSearch) -> CellFrontier:
        assert self.status is not None
        if self.status == "below-range":
            lower, upper, frontier = None, search.rate_low, None
        elif self.status == "above-range":
            lower, upper, frontier = search.rate_high, None, None
        else:
            lower, upper = self.lower, self.upper
            frontier = 0.5 * (lower + upper)
        return CellFrontier(
            index=self.cell.index,
            labels=self.cell.axis_labels(),
            status=self.status,
            lower=lower,
            upper=upper,
            frontier=frontier,
            converged=self.converged,
            probes=tuple(self.probes),
        )


def run_campaign(
    spec: CampaignSpec,
    executor=None,
    manifest_dir: Optional[str] = None,
    resume: bool = False,
    metrics: Optional[str] = None,
    backend: Optional[str] = None,
) -> CampaignResult:
    """Map every grid cell's stable-rate boundary by bisection.

    Probes advance in lockstep waves: every still-active cell
    contributes its next rate(s), the flattened (cell, rate, seed)
    batch runs through ``executor`` (default
    :class:`~repro.sim.sharding.SerialExecutor`; any order-preserving
    ``map(units)`` executor works), and the verdicts move each cell's
    bracket. The wave contents depend only on earlier (deterministic)
    verdicts, so the executor and worker count cannot change the
    document.

    ``manifest_dir`` journals each completed probe into a
    :class:`~repro.sim.resilience.FleetManifest`; with ``resume=True``
    probes already journalled are recovered instead of re-simulated
    (the manifest refuses a directory stamped by a different
    campaign). ``metrics`` / ``backend`` override every probe's
    retention policy / run-loop backend (``"streaming"`` caps each
    probe's memory at O(window) for long horizons).
    """
    # Imported lazily, mirroring sharding: the resilience module pulls
    # in the scenario layer and the serial path should not pay for it.
    from repro.sim.resilience import FleetManifest, unit_key
    from repro.sim.sharding import SerialExecutor

    if resume and manifest_dir is None:
        raise ConfigurationError(
            "resume=True needs a manifest_dir to resume from"
        )
    if executor is None:
        executor = SerialExecutor()
    cells = spec.expand()
    if metrics is not None or backend is not None:
        overrides = {}
        if metrics is not None:
            overrides["metrics"] = metrics
        if backend is not None:
            overrides["backend"] = backend
        cells = [
            dataclasses.replace(cell, base=cell.base.replace(**overrides))
            for cell in cells
        ]
    manifest = FleetManifest(manifest_dir) if manifest_dir else None
    if manifest is not None:
        # The campaign fingerprint covers any overrides: a manifest is
        # only reusable by the exact probe sequence that wrote it.
        identity = json.dumps(
            {
                "campaign": spec.to_dict(),
                "metrics": metrics,
                "backend": backend,
            },
            sort_keys=True,
        )
        manifest.record_fleet(
            hashlib.sha256(identity.encode("utf-8")).hexdigest(),
            len(cells),
        )

    searches = [_CellSearch(cell=cell) for cell in cells]
    while True:
        wave: List[Tuple[_CellSearch, float]] = []
        for search in searches:
            for rate in search.next_rates(spec.search):
                wave.append((search, rate))
        if not wave:
            break
        units: List[FleetUnit] = []
        for search, rate in wave:
            for seed in spec.seeds:
                units.append(
                    FleetUnit(
                        spec=search.cell.probe_spec(rate, seed),
                        index=search.cell.index,
                    )
                )
        keys = [unit_key(unit) for unit in units]
        results: List[Optional[CellResult]] = [None] * len(units)
        to_run: List[int] = []
        for position, key in enumerate(keys):
            recovered = None
            if resume and manifest is not None:
                recovered = manifest.completed_result(key)
            if recovered is not None:
                results[position] = recovered
            else:
                to_run.append(position)
        if to_run:
            fresh = executor.map([units[position] for position in to_run])
            for position, result in zip(to_run, fresh):
                if result is None:
                    # A non-strict resilient executor leaves holes; a
                    # frontier with missing probes would be silently
                    # wrong, so refuse instead.
                    raise ConfigurationError(
                        f"campaign probe {position} produced no result "
                        "(executor reported a failed cell)"
                    )
                results[position] = result
                if manifest is not None:
                    manifest.record_completed(
                        keys[position],
                        units[position].index,
                        result,
                    )
        position = 0
        for search, rate in wave:
            seed_results = tuple(
                results[position + offset]
                for offset in range(len(spec.seeds))
            )
            position += len(spec.seeds)
            stable_fraction = sum(
                1.0 for result in seed_results if result.verdict.stable
            ) / len(seed_results)
            # Matches RateSweepRecord.stable: majority over seeds.
            search.wave_outcomes[rate] = ProbeOutcome(
                rate=rate,
                stable=stable_fraction >= 0.5,
                stable_fraction=stable_fraction,
                results=seed_results,
            )
        for search in searches:
            if search.wave_outcomes:
                search.fold(search.wave_outcomes, spec.search)
                search.wave_outcomes = {}

    return CampaignResult(
        spec=spec,
        cells=[search.frontier(spec.search) for search in searches],
    )


__all__ = [
    "AXIS_KINDS",
    "AxisComponent",
    "CampaignCell",
    "CampaignResult",
    "CampaignSpec",
    "CellFrontier",
    "FRONTIER_STATUSES",
    "FrontierSearch",
    "ProbeOutcome",
    "campaign_from_data",
    "load_campaign",
    "run_campaign",
]
