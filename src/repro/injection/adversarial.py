"""(w, lambda)-bounded window adversaries (Section 2.1).

An adversary is bounded when, for *every* interval of ``w`` consecutive
slots, the interference measure ``||W . R||_inf`` of all packets
injected inside the interval is at most ``w * lambda``.

The built-in adversaries plan one window at a time against a measure
budget and differ in *when inside the window* they release the packets:

* :class:`SmoothAdversary` — spreads packets evenly over the window
  (the friendly case; close to the stochastic model).
* :class:`BurstyAdversary` — releases the whole budget in the first
  slot of each window. The worst case the Section-5 random shift is
  designed for.
* :class:`SawtoothAdversary` — alternates heavy and idle half-windows.
* :class:`TargetedAdversary` — spends the entire budget on the paths
  crossing the single most-loaded link, creating a hotspot.

All planning is greedy: candidate paths are added while the window's
cumulative measure stays within budget, so boundedness holds by
construction *per aligned window*; since every built-in releases
nothing in the last-slot overhang pattern that could double a sliding
window, the sliding-window condition holds too — and is verified
empirically by :class:`WindowAudit` in the test suite rather than
trusted.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, InjectionError
from repro.injection.base import InjectionProcess
from repro.injection.store import PacketStore, PacketView
from repro.interference.base import InterferenceModel
from repro.utils.rng import RngLike, ensure_rng

Path = Tuple[int, ...]


class WindowAdversary(InjectionProcess):
    """Base class: plans packets window by window under a measure budget.

    Subclasses implement :meth:`_plan_window`, returning a mapping from
    slot offset (``0 .. w-1``) to the list of paths injected at that
    offset. The base class enforces the budget on every plan before
    caching it.
    """

    def __init__(
        self,
        model: InterferenceModel,
        paths: Sequence[Path],
        window: int,
        rate: float,
        rng: RngLike = None,
        store: Optional[PacketStore] = None,
    ):
        super().__init__(store=store)
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {rate}")
        if not paths:
            raise ConfigurationError("adversary needs a non-empty path pool")
        self._model = model
        self._paths = [tuple(int(e) for e in p) for p in paths]
        self._window = int(window)
        self._rate = float(rate)
        self._rng = ensure_rng(rng)
        self._plans: Dict[int, Dict[int, List[Path]]] = {}

    @property
    def window(self) -> int:
        return self._window

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def budget(self) -> float:
        """The per-window measure budget ``w * lambda``."""
        return self._window * self._rate

    def indices_for_slot(self, slot: int) -> List[int]:
        index, offset = divmod(slot, self._window)
        if index not in self._plans:
            plan = self._plan_window(index)
            self._verify_budget(plan, index)
            self._plans[index] = plan
            # Windows far in the past can be dropped to bound memory.
            stale = [k for k in self._plans if k < index - 2]
            for k in stale:
                del self._plans[k]
        return [
            self._allocate(path, slot)
            for path in self._plans[index].get(offset, [])
        ]

    def _plan_window(self, index: int) -> Dict[int, List[Path]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    @staticmethod
    def _plan_to_state(plan: Dict[int, List[Path]]) -> Dict[str, list]:
        return {
            str(offset): [list(path) for path in paths]
            for offset, paths in plan.items()
        }

    @staticmethod
    def _plan_from_state(state: Dict[str, list]) -> Dict[int, List[Path]]:
        return {
            int(offset): [tuple(int(e) for e in path) for path in paths]
            for offset, paths in state.items()
        }

    def state_dict(self) -> dict:
        """Mutable state: the packing RNG plus every cached window plan.

        Plans must be serialized, not recomputed — planning consumes the
        RNG, so a resumed adversary that re-planned a window would
        diverge from the uninterrupted run.
        """
        state = {
            "rng": self._rng.bit_generator.state,
            "plans": {
                str(index): self._plan_to_state(plan)
                for index, plan in self._plans.items()
            },
        }
        if hasattr(self, "_periodic_plan"):
            periodic = self._periodic_plan
            state["periodic_plan"] = (
                None if periodic is None else self._plan_to_state(periodic)
            )
        return state

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import restore_generator_state

        try:
            plans = {
                int(index): self._plan_from_state(plan)
                for index, plan in state["plans"].items()
            }
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(
                f"invalid adversary plan state: {exc}"
            ) from exc
        restore_generator_state(self._rng, state["rng"])
        self._plans = plans
        if hasattr(self, "_periodic_plan"):
            periodic = state.get("periodic_plan")
            self._periodic_plan = (
                None if periodic is None else self._plan_from_state(periodic)
            )

    def _verify_budget(self, plan: Dict[int, List[Path]], index: int) -> None:
        all_links: List[int] = []
        for paths in plan.values():
            for path in paths:
                all_links.extend(path)
        measure = self._model.interference_measure(all_links)
        if measure > self.budget + 1e-6:
            raise InjectionError(
                f"window {index} plan has measure {measure:.3f} exceeding the "
                f"budget {self.budget:.3f} — adversary bug"
            )

    # ------------------------------------------------------------------
    # Greedy packing helper shared by the subclasses
    # ------------------------------------------------------------------

    def _pack(self, pool: Sequence[Path], budget: float) -> List[Path]:
        """Greedily pick paths from ``pool`` while measure <= ``budget``.

        Paths are tried in random order with repetition until no path
        fits any more (or a safety cap is hit). The running products
        vector ``W . R`` is updated incrementally — adding a path only
        touches the columns of its links — so packing a large budget is
        O(paths * m) instead of O(paths * m^2).
        """
        chosen: List[Path] = []
        weights = self._model.weight_matrix()
        products = np.zeros(self._model.num_links, dtype=float)
        cap = max(64, int(4 * budget) * max(1, self._model.num_links))
        attempts = 0
        while attempts < cap:
            attempts += 1
            path = pool[int(self._rng.integers(len(pool)))]
            delta = np.zeros_like(products)
            for link_id in path:
                delta += weights[:, link_id]
            trial = products + delta
            if float(trial.max()) <= budget + 1e-9:
                products = trial
                chosen.append(path)
            else:
                # A single miss does not mean saturation (other paths may
                # fit); stop only after a run of consecutive misses.
                if attempts > 16 and not chosen:
                    break
                if len(chosen) > 0 and attempts > 8 * (len(chosen) + 4):
                    break
        return chosen


class SmoothAdversary(WindowAdversary):
    """Budget spread evenly across the window's slots.

    The plan is drawn once and repeated every window (period exactly
    ``w``), so every *sliding* window sees a rotation of the same
    multiset — the bound holds for arbitrary intervals, not just
    aligned ones.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._periodic_plan: Optional[Dict[int, List[Path]]] = None

    def _plan_window(self, index: int) -> Dict[int, List[Path]]:
        if self._periodic_plan is None:
            chosen = self._pack(self._paths, self.budget)
            plan: Dict[int, List[Path]] = {}
            for k, path in enumerate(chosen):
                plan.setdefault(k % self._window, []).append(path)
            self._periodic_plan = plan
        return self._periodic_plan


class BurstyAdversary(WindowAdversary):
    """The whole window budget released in the window's first slot."""

    def _plan_window(self, index: int) -> Dict[int, List[Path]]:
        return {0: self._pack(self._paths, self.budget)}


class SawtoothAdversary(WindowAdversary):
    """Heavy first half-window, idle second half.

    Periodic like :class:`SmoothAdversary` (one plan, repeated), which
    is what keeps *sliding* windows spanning two heavy half-windows
    within budget.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._periodic_plan: Optional[Dict[int, List[Path]]] = None

    def _plan_window(self, index: int) -> Dict[int, List[Path]]:
        if self._periodic_plan is None:
            chosen = self._pack(self._paths, self.budget)
            half = max(1, self._window // 2)
            plan: Dict[int, List[Path]] = {}
            for k, path in enumerate(chosen):
                plan.setdefault(k % half, []).append(path)
            self._periodic_plan = plan
        return self._periodic_plan


class TargetedAdversary(WindowAdversary):
    """Budget concentrated on paths crossing one victim link.

    The victim is the link whose ``W`` row sums largest over the pool's
    usage — the most interference-sensitive hotspot. Falls back to the
    full pool when no pool path crosses the victim.
    """

    def __init__(
        self,
        model: InterferenceModel,
        paths: Sequence[Path],
        window: int,
        rate: float,
        rng: RngLike = None,
        victim: Optional[int] = None,
        store: Optional[PacketStore] = None,
    ):
        super().__init__(model, paths, window, rate, rng, store=store)
        if victim is None:
            usage = np.zeros(model.num_links)
            for path in self._paths:
                for link_id in path:
                    usage[link_id] += 1.0
            row_load = model.weight_matrix() @ usage
            victim = int(row_load.argmax())
        self._victim = victim
        self._victim_paths = [p for p in self._paths if self._victim in p]

    @property
    def victim(self) -> int:
        """The targeted link id."""
        return self._victim

    def _plan_window(self, index: int) -> Dict[int, List[Path]]:
        pool = self._victim_paths or self._paths
        return {0: self._pack(pool, self.budget)}


class WindowAudit:
    """Sliding-window verifier for the ``(w, lambda)`` bound.

    Feed it every slot's injected packets; it maintains the last ``w``
    slots and raises :class:`InjectionError` the moment any window
    exceeds ``w * lambda`` (plus tolerance). Used to certify adversaries.
    """

    def __init__(
        self,
        model: InterferenceModel,
        window: int,
        rate: float,
        tolerance: float = 1e-6,
    ):
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self._model = model
        self._window = int(window)
        self._budget = window * rate
        self._tolerance = tolerance
        self._recent: deque = deque()
        # Running request vector of the current window, updated
        # incrementally: recomputing the window from scratch is
        # O(window) per slot and dominates long audited runs.
        self._vector = np.zeros(model.num_links, dtype=float)
        self._measure = 0.0
        self._worst = 0.0

    @property
    def worst_window_measure(self) -> float:
        """Largest sliding-window measure observed so far."""
        return self._worst

    def observe(self, slot: int, packets: Sequence[PacketView]) -> None:
        """Record a slot's injections and check the current window."""
        links = [link for p in packets for link in p.path]
        self._recent.append(links)
        for link in links:
            self._vector[link] += 1.0
        evicted: Sequence[int] = ()
        if len(self._recent) > self._window:
            evicted = self._recent.popleft()
            for link in evicted:
                self._vector[link] -= 1.0
        if links or evicted:
            self._measure = self._model.interference_measure(self._vector)
        measure = self._measure
        self._worst = max(self._worst, measure)
        if measure > self._budget + self._tolerance:
            raise InjectionError(
                f"window ending at slot {slot} has measure {measure:.4f} > "
                f"budget {self._budget:.4f}: adversary is not "
                f"({self._window}, {self._budget / self._window:.4f})-bounded"
            )


__all__ = [
    "WindowAdversary",
    "SmoothAdversary",
    "BurstyAdversary",
    "SawtoothAdversary",
    "TargetedAdversary",
    "WindowAudit",
]
