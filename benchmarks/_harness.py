"""Shared builders and the one measurement system for the benchmark suite.

Each ``bench_*`` file reproduces one row of the experiment registry
(``repro experiments``, ``src/repro/cli/registry.py``): the ``e``/``x``/
``a`` benches assert a claim of the paper (PAPER.md), the ``p`` benches
a performance contract (PERFORMANCE.md). The helpers here keep
instance construction consistent across benches so ratios are
comparable, and funnel all printed output through
:func:`repro.format_table`.

Conventions:

* every bench prints the rows it regenerates (run with ``-s``);
* ``benchmark.pedantic(..., rounds=1, iterations=1)`` wraps the whole
  experiment — wall-clock is reported by pytest-benchmark, the
  scientific result goes to stdout;
* seeds are fixed: every number a bench prints is replayable;
* a perf bench times its runners through :func:`measure`, states its
  contracts as :func:`gate` records and writes its ``BENCH_*.json``
  through :func:`write_payload` — no bench keeps its own timing loop,
  JSON writer or RSS read.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

import repro
from repro.core.frames import FrameParameters
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.network.topology import mac_network
from repro.staticsched import KvScheduler


def dense_requests(model, n: int, seed: int, links: int = 4) -> List[int]:
    """``n`` single-hop requests concentrated on ``links`` random links."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(model.num_links, size=min(links, model.num_links),
                      replace=False)
    return [int(pool[i % len(pool)]) for i in range(n)]


def sinr_instance(num_nodes: int, seed: int, alpha: float = 3.0,
                  beta: float = 1.0, noise: float = 0.02):
    """A random geometric network with the linear-power model."""
    net = repro.random_sinr_network(num_nodes, rng=seed)
    model = repro.linear_power_model(net, alpha=alpha, beta=beta, noise=noise)
    return net, model


def transformed_decay(m: int, chi_scale: float = 0.05):
    return repro.TransformedAlgorithm(
        repro.DecayScheduler(), m=m, chi_scale=chi_scale
    )


def stability_run(
    model,
    algorithm,
    rate: float,
    frames: int,
    seed: int,
    t_scale: float = 0.001,
    num_generators: int = 6,
    routing=None,
):
    """One protocol + stochastic-injection run; returns (protocol, metrics, verdict)."""
    protocol = repro.DynamicProtocol(
        model, algorithm, rate, t_scale=t_scale, rng=seed
    )
    if routing is None:
        routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, rate, num_generators=num_generators, rng=seed + 1000
    )
    simulation = repro.FrameSimulation(protocol, injection)
    simulation.run(frames)
    verdict = repro.assess_stability(
        simulation.metrics.queue_series,
        load_per_frame=max(1.0, rate * protocol.frame_length),
    )
    return protocol, simulation.metrics, verdict


def print_experiment(experiment_id: str, claim: str, headers, rows) -> None:
    """Uniform experiment banner + table."""
    banner = f"[{experiment_id}] {claim}"
    print("\n" + "=" * len(banner))
    print(banner)
    print("=" * len(banner))
    print(repro.format_table(headers, rows))


def once(benchmark, func: Callable):
    """Run the experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# The shared 500-link instance (P4, P6)
# ----------------------------------------------------------------------

NUM_LINKS = 500
FRAME = FrameParameters(
    frame_length=1000,
    phase1_budget=900,
    cleanup_budget=80,
    measure_budget=30.0,
    epsilon=0.5,
    rate=0.2,
    f_m=1.0,
    m=NUM_LINKS,
)


def banded_affectance_matrix(
    m: int, reach: int, base: float, exponent: float
):
    """A synthetic SINR-like impact matrix: geometric decay with link
    distance, unit diagonal."""
    idx = np.arange(m)
    distance = np.abs(idx[:, None] - idx[None, :]).astype(float)
    matrix = base / (1.0 + distance) ** exponent
    matrix[distance > reach] = 0.0
    np.fill_diagonal(matrix, 1.0)
    return matrix


def build_model(
    reach: int = NUM_LINKS, base: float = 0.15, exponent: float = 0.3
) -> AffectanceThresholdModel:
    """The contention workload: slowly-decaying impact keeps a few
    hundred links competing all run — the paper's interesting regime
    (heavy standing backlog near the service ceiling). The defaults
    sustain ~4 successes per slot under the adaptive KV scheduler with
    500 busy links."""
    return AffectanceThresholdModel(
        mac_network(NUM_LINKS),
        banded_affectance_matrix(NUM_LINKS, reach, base, exponent),
    )


def stability_simulation():
    """The 500-link store-mode stability run under the KV scheduler:
    returns ``(simulation, protocol)``, built but not yet run."""
    model = build_model()
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, FRAME.rate, num_generators=8, rng=1017
    )
    protocol = repro.DynamicProtocol(
        model, KvScheduler(), FRAME.rate, params=FRAME, rng=17,
        store=injection.store,
    )
    return repro.FrameSimulation(protocol, injection), protocol


def protocol_outcome(protocol) -> Dict[str, int]:
    """What a stability run must reproduce exactly across repeats."""
    return {
        "delivered": len(protocol.delivered),
        "in_system": protocol.packets_in_system,
        "failures": protocol.potential.total_failures,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


class Stopwatch:
    """The timed region of one runner call: ``with watch: ...``.

    Entered more than once, it sums its regions. A runner that never
    enters it is timed whole.
    """

    def __init__(self):
        self.seconds = 0.0
        self.entered = False

    def __enter__(self):
        self.entered = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start


@dataclass
class Measurement:
    """One runner's wall-clock samples and its (repeat-invariant) outcome."""

    outcome: Any
    samples: List[float]

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    @property
    def iqr(self) -> float:
        q1, q3 = np.percentile(self.samples, [25, 75])
        return float(q3 - q1)

    def to_json(self) -> Dict[str, Any]:
        return {
            "repeats": len(self.samples),
            "samples": list(self.samples),
            "min": self.min,
            "median": self.median,
            "iqr": self.iqr,
        }


def measure(
    runners: Mapping[str, Callable[[Stopwatch], Any]], repeats: int
) -> Dict[str, Measurement]:
    """Time each runner ``repeats`` times, interleaved within a repeat.

    A runner takes a :class:`Stopwatch` and returns its outcome; the
    outcome must compare equal across repeats (fixed seeds), which is
    asserted. Interleaving means a slow window on a shared host
    degrades every runner's samples instead of biasing one side of a
    ratio.
    """
    samples: Dict[str, List[float]] = {name: [] for name in runners}
    outcomes: Dict[str, Any] = {}
    for _ in range(repeats):
        for name, runner in runners.items():
            watch = Stopwatch()
            start = time.perf_counter()
            outcome = runner(watch)
            elapsed = time.perf_counter() - start
            assert name not in outcomes or outcome == outcomes[name], (
                f"runner '{name}': outcome diverged across repeats"
            )
            outcomes[name] = outcome
            samples[name].append(watch.seconds if watch.entered else elapsed)
    return {
        name: Measurement(outcomes[name], samples[name]) for name in runners
    }


def median_ratio(numerator: Sequence[float],
                 denominator: Sequence[float]) -> float:
    """The median over repeats of the paired ratio of two interleaved
    runners' samples: repeat ``i`` of each ran back to back, so their
    ratio cancels the host's drift between repeats."""
    return float(np.median(np.asarray(numerator) / np.asarray(denominator)))


def gate(name: str, statistic: str, value: float, bound: float,
         ceiling: bool = False) -> Dict[str, Any]:
    """One contract as data: ``value`` (computed as ``statistic``) must
    stay at or above ``bound``, or at or below it for a ceiling."""
    passed = value <= bound if ceiling else value >= bound
    return {
        "name": name,
        "statistic": statistic,
        "value": value,
        "kind": "ceiling" if ceiling else "floor",
        "bound": bound,
        "passed": bool(passed),
    }


def check_gates(payload: Mapping[str, Any]) -> None:
    """Fail with every missed gate of a bench payload named."""
    missed = [g for g in payload["gates"] if not g["passed"]]
    assert not missed, "; ".join(
        f"{g['name']}: {g['statistic']} = {g['value']:.4g} misses its "
        f"{g['kind']} {g['bound']}"
        for g in missed
    )


#: Keys every perf payload carries; ``run_perf.py`` refuses one without.
FINGERPRINT_KEYS = ("nproc", "python", "numpy", "numba_present")
SPREAD_KEYS = ("repeats", "samples", "min", "median", "iqr")


def fingerprint() -> Dict[str, Any]:
    """The environment fields ``perfbench/run.py`` records."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def peak_rss_kb() -> int:
    """This process's peak resident set, in KiB.

    ``ru_maxrss`` alone misreports a child: Linux folds the parent's
    high-water mark into it at exec, so a measurement child spawned by
    a large parent reports the parent's peak. ``VmHWM`` is the peak of
    this process's own address space; it is read where the OS has it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timings(measurements: Mapping[str, Measurement]) -> Dict[str, Any]:
    return {name: m.to_json() for name, m in measurements.items()}


def write_payload(out_path, payload: Mapping[str, Any], tags=None):
    """Stamp ``payload`` with the fingerprint, peak RSS and ``tags``.

    Writes it to ``out_path`` as indented JSON, or as one line on
    stdout when ``out_path`` is ``"-"`` (a measurement child reporting
    to its parent); ``None`` writes nothing. Returns the stamped dict.
    """
    stamped = {
        **payload,
        "created_unix": time.time(),
        "fingerprint": fingerprint(),
        "peak_rss_kb": peak_rss_kb(),
        **(tags or {}),
    }
    if out_path == "-":
        sys.stdout.write(json.dumps(stamped) + "\n")
    elif out_path is not None:
        Path(out_path).write_text(json.dumps(stamped, indent=2) + "\n")
    return stamped


def payload_problems(payload: Mapping[str, Any]) -> List[str]:
    """What a perf payload lacks of the one payload shape."""
    problems = [
        f"fingerprint.{key}" for key in FINGERPRINT_KEYS
        if key not in payload.get("fingerprint", {})
    ]
    runs = payload.get("timings") or {}
    if not runs:
        problems.append("timings")
    for name, spread in runs.items():
        problems += [
            f"timings.{name}.{key}" for key in SPREAD_KEYS
            if key not in spread
        ]
    if "gates" not in payload:
        problems.append("gates")
    return problems
