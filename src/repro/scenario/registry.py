"""The component registry every spec resolves through.

A component is a named callable filed under a *kind* — ``topology``,
``model``, ``scheduler`` or ``injection`` — that the declarative
:class:`~repro.scenario.spec.ScenarioSpec` layer resolves by name.
Resolution falls back to ``"module:function"`` dotted paths, so
third-party components need no registration call at all (the
importing module registers them as a side effect, or the spec names
them by path).

Registration is idempotent per callable: re-registering the same
function under the same name is a no-op, a *different* callable under
a taken name raises — silently replacing a component would let two
processes resolve the same spec to different code.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError

#: The component kinds specs resolve through. ``topology`` builders
#: return a Network, ``model`` builders an InterferenceModel over one,
#: ``scheduler`` builders a StaticAlgorithm, ``injection`` builders an
#: InjectionProcess.
KINDS = ("topology", "model", "scheduler", "injection")

_TABLES: Dict[str, Dict[str, Callable]] = {kind: {} for kind in KINDS}


def _table(kind: str) -> Dict[str, Callable]:
    try:
        return _TABLES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown component kind '{kind}'; choose from {', '.join(KINDS)}"
        ) from None


def register(kind: str, name: str, builder: Optional[Callable] = None):
    """Register ``builder`` under ``(kind, name)``.

    Usable as a decorator (``builder`` omitted) or a direct call.
    Re-registering the same callable is a no-op; a different callable
    under a taken name raises :class:`ConfigurationError`.
    """
    table = _table(kind)

    def _file(fn: Callable) -> Callable:
        existing = table.get(name)
        if existing is not None and existing is not fn:
            raise ConfigurationError(
                f"{kind} builder '{name}' is already registered to "
                f"{existing!r}"
            )
        table[name] = fn
        return fn

    if builder is not None:
        return _file(builder)
    return _file


def resolve(kind: str, name: str) -> Callable:
    """Look ``name`` up under ``kind``, or import a ``module:attr`` path."""
    table = _table(kind)
    builder = table.get(name)
    if builder is not None:
        return builder
    if ":" in name:
        module_name, _, attr = name.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ConfigurationError(
                f"cannot import module '{module_name}' for {kind} "
                f"'{name}': {exc}"
            ) from exc
        builder = getattr(module, attr, None)
        if callable(builder):
            return builder
        raise ConfigurationError(
            f"module '{module_name}' has no callable '{attr}' "
            f"for {kind} '{name}'"
        )
    known = ", ".join(sorted(table)) or "(none)"
    raise ConfigurationError(
        f"unknown {kind} '{name}'; registered: {known} "
        "(or use a 'module:function' dotted path)"
    )


def names(kind: str) -> List[str]:
    """Registered names under ``kind``, sorted."""
    return sorted(_table(kind))


def signature(kind: str, name: str) -> str:
    """``name(params...)`` for the registered builder — the authoring aid
    behind ``repro scenarios`` (spec files without reading source)."""
    builder = resolve(kind, name)
    try:
        sig = str(inspect.signature(builder))
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        sig = "(...)"
    return f"{name}{sig}"


def describe(kind: str, name: str) -> str:
    """First docstring line of the registered builder ('' if none)."""
    doc = inspect.getdoc(resolve(kind, name)) or ""
    return doc.splitlines()[0] if doc else ""


__all__ = ["KINDS", "describe", "names", "register", "resolve", "signature"]
