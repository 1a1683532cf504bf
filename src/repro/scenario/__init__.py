"""The declarative scenario layer.

One serializable description — :class:`~repro.scenario.spec.ScenarioSpec`
— from topology to run-loop backend, resolved through the unified
component registry (:mod:`repro.scenario.registry`), executable
anywhere (:meth:`ScenarioSpec.run`), and runnable as multi-network
fleets with one process per network
(:func:`~repro.scenario.fleet.run_scenario_fleet`). On top of the
fleet layer, :mod:`repro.scenario.campaign` surveys cross-product
grids with a stability-frontier bisection per cell
(:func:`~repro.scenario.campaign.run_campaign`).

The CLI's presets live on as spec templates in
:mod:`repro.scenario.presets`. A rate sweep is a fleet of one spec at
many (rate, seed) points (:func:`~repro.scenario.fleet.sweep_units`);
``repro sweep`` and ``repro compare`` both run as fleet units.

Exports resolve lazily (PEP 562), so importing the registry alone
stays light and cycle-safe: the spec layer builds protocols from
:mod:`repro.core`, which must not be re-entered while it is still
initialising. Importing any spec-layer name (or the
:mod:`~repro.scenario.components` module itself, as unpickling a
``ScenarioSpec`` does) registers the built-in components.
"""

from __future__ import annotations

import importlib

from repro.scenario.registry import (  # noqa: F401  (cycle-safe: registry has no heavy imports)
    KINDS,
    describe,
    names,
    register,
    resolve,
    signature,
)

#: Lazily-resolved export -> defining submodule.
_EXPORTS = {
    "BuiltScenario": "repro.scenario.spec",
    "ScenarioSpec": "repro.scenario.spec",
    "AxisComponent": "repro.scenario.campaign",
    "CampaignCell": "repro.scenario.campaign",
    "CampaignResult": "repro.scenario.campaign",
    "CampaignSpec": "repro.scenario.campaign",
    "CellFrontier": "repro.scenario.campaign",
    "FrontierSearch": "repro.scenario.campaign",
    "ProbeOutcome": "repro.scenario.campaign",
    "campaign_from_data": "repro.scenario.campaign",
    "load_campaign": "repro.scenario.campaign",
    "run_campaign": "repro.scenario.campaign",
    "PRESETS": "repro.scenario.presets",
    "preset_names": "repro.scenario.presets",
    "preset_spec": "repro.scenario.presets",
    "FleetResult": "repro.scenario.fleet",
    "FleetSummary": "repro.scenario.fleet",
    "FleetUnit": "repro.scenario.fleet",
    "aggregate_fleet": "repro.scenario.fleet",
    "load_specs": "repro.scenario.fleet",
    "run_scenario_fleet": "repro.scenario.fleet",
    "specs_from_data": "repro.scenario.fleet",
    "sweep_units": "repro.scenario.fleet",
    "components": "repro.scenario.components",
}

__all__ = [
    "KINDS",
    "describe",
    "names",
    "register",
    "resolve",
    "signature",
    *sorted(name for name in _EXPORTS if name != "components"),
]


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    module = importlib.import_module(target)
    value = module if name == "components" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
