"""Preset and topology names for the CLI, and its topology builder.

The model presets are :class:`~repro.scenario.spec.ScenarioSpec`
templates (:mod:`repro.scenario.presets`); the commands build them with
``preset_spec(name, nodes, seed).build(...)``. The presets mirror the
benchmark families:

===============  ====================================================
``packet-routing``  grid network, identity ``W``, single-hop scheduler
``sinr-linear``     random geometric net, linear power (Corollary 12)
``sinr-sqrt``       same net, square-root power (Corollary 13)
``mac``             multiple-access channel, Round-Robin-Withholding
``conflict``        grid disk graph, node-constraint conflicts
===============  ====================================================

Topologies resolve through the unified component registry
(:mod:`repro.scenario.registry`); this module only maps the CLI's
``(kind, nodes, seed)`` call shape onto each component's parameters.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.scenario.presets import _grid_side, preset_names
from repro.scenario.registry import resolve as resolve_component


def scenario_names() -> List[str]:
    """The preset names, in presentation order."""
    return preset_names()


#: CLI topology kind -> registry component name + ``nodes`` mapping.
_TOPOLOGY_ARGS: Dict[str, Callable[[int, int], tuple]] = {
    "random": lambda nodes, seed: ("random", {"num_nodes": nodes,
                                              "seed": seed}),
    "grid": lambda nodes, seed: ("grid", {"rows": _grid_side(nodes),
                                          "cols": _grid_side(nodes)}),
    "line": lambda nodes, seed: ("line", {"num_nodes": nodes}),
    "star": lambda nodes, seed: ("star", {"leaves": max(1, nodes - 1)}),
    "mac": lambda nodes, seed: ("mac", {"num_stations": max(2, nodes)}),
    "figure1": lambda nodes, seed: ("figure1", {"m": max(2, nodes)}),
}


def topology_names() -> List[str]:
    return list(_TOPOLOGY_ARGS)


def build_topology(kind: str, nodes: int, seed: int) -> Network:
    """Build one topology; raises on unknown kinds."""
    if kind not in _TOPOLOGY_ARGS:
        raise ConfigurationError(
            f"unknown topology '{kind}'; choose from "
            f"{', '.join(_TOPOLOGY_ARGS)}"
        )
    if nodes < 2:
        raise ConfigurationError(f"nodes must be >= 2, got {nodes}")
    component, kwargs = _TOPOLOGY_ARGS[kind](nodes, seed)
    return resolve_component("topology", component)(**kwargs)


__all__ = [
    "build_topology",
    "scenario_names",
    "topology_names",
]
