"""The experiment inventory — and the CLI's named sweep-cell builders.

One row per experiment in EXPERIMENTS.md. The CLI prints this table;
tests assert that every listed bench file exists so the registry cannot
drift from the benchmark suite.

This module also registers the CLI's protocol/injection builders with
:mod:`repro.sim.sharding` under stable names, so a sweep or compare run
can be described as picklable :class:`~repro.sim.sharding.CellSpec`
work units (no closures) and executed serially or across worker
processes with identical results. Cells carry
``requires=("repro.cli.registry",)`` so spawn-style workers import this
module (and thereby register the builders) before resolving names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

from repro.cli.builders import build_scenario
from repro.core.competitive import certified_rate
from repro.core.protocol import DynamicProtocol
from repro.core.transform import TransformedAlgorithm
from repro.errors import ConfigurationError
from repro.injection.stochastic import uniform_pair_injection
from repro.network.routing import build_routing_table
from repro.network.topology import random_sinr_network
from repro.sim.sharding import (
    register_injection_builder,
    register_pair_builder,
    register_protocol_builder,
)
from repro.sinr.weights import linear_power_model
from repro.staticsched.decay import DecayScheduler
from repro.staticsched.hm import HmScheduler
from repro.staticsched.kv import KvScheduler


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproduced claim and where to regenerate it."""

    id: str
    paper_ref: str
    claim: str
    bench_file: str


EXPERIMENTS: List[ExperimentEntry] = [
    ExperimentEntry(
        "E1", "Theorem 1",
        "Algorithm-1 transformation makes schedule length linear in I",
        "bench_e1_transform.py",
    ),
    ExperimentEntry(
        "E2", "Theorem 3",
        "two-phase frames: queues bounded below provisioning, diverge above",
        "bench_e2_stability.py",
    ),
    ExperimentEntry(
        "E3", "Theorem 8",
        "expected latency O(d*T), linear in path length",
        "bench_e3_latency.py",
    ),
    ExperimentEntry(
        "E4", "Theorem 11",
        "random shift stabilises all (w, lambda)-bounded adversaries",
        "bench_e4_adversarial.py",
    ),
    ExperimentEntry(
        "E5", "Corollary 12",
        "linear power: constant-competitive (feasible measure flat in m)",
        "bench_e5_linear_power.py",
    ),
    ExperimentEntry(
        "E6", "Corollary 13",
        "monotone sub-linear power: O(log^2 m)-competitive",
        "bench_e6_sublinear_power.py",
    ),
    ExperimentEntry(
        "E7", "Corollary 14",
        "free power control: O(log m) fading / O(log^2 m) general",
        "bench_e7_power_control.py",
    ),
    ExperimentEntry(
        "E8", "Lemma 15 / Cor. 16",
        "symmetric MAC: (1+delta)e*n + O(log^2 n) slots; stable below 1/e",
        "bench_e8_mac_symmetric.py",
    ),
    ExperimentEntry(
        "E9", "Lemma 17 / Cor. 18",
        "Round-Robin-Withholding: exactly n + m slots; stable below 1",
        "bench_e9_mac_roundrobin.py",
    ),
    ExperimentEntry(
        "E10", "Theorem 19 / Sec. 7.2",
        "conflict graphs: O(I log n) slots; rho caps achievable rates",
        "bench_e10_conflict.py",
    ),
    ExperimentEntry(
        "E11", "Theorem 20 / Figure 1",
        "global clock unavoidable: local-clock protocols diverge",
        "bench_e11_clock.py",
    ),
    ExperimentEntry(
        "E12", "Abstract",
        "competitive-ratio spectrum: constant ... O(log^2 m)",
        "bench_e12_summary.py",
    ),
    ExperimentEntry(
        "A1", "Section 4 design",
        "ablation: clean-up phase off — failed packets never drain",
        "bench_a1_no_cleanup.py",
    ),
    ExperimentEntry(
        "A3", "Section 5 design",
        "ablation: random shift off — bursts overload phase 1",
        "bench_a3_no_shift.py",
    ),
    ExperimentEntry(
        "X1", "Section 9",
        "extension: iid transmission loss, budgets scaled by 1/(1-p)",
        "bench_x1_unreliable.py",
    ),
    ExperimentEntry(
        "X2", "Related work [40]",
        "extension: Tassiulas-Ephremides max-weight comparator",
        "bench_x2_max_weight.py",
    ),
    ExperimentEntry(
        "X3", "Section 9",
        "extension: (window, sigma)-bounded jammer, budgets by 1/(1-sigma)",
        "bench_x3_jamming.py",
    ),
    ExperimentEntry(
        "X4", "Section 9",
        "extension: Rayleigh block fading, closed form + budget adjustment",
        "bench_x4_fading.py",
    ),
    ExperimentEntry(
        "X5", "Section 6.1 open problem",
        "extension: HM-style adaptive scheduler — constant-f bound, "
        "25x certified rate",
        "bench_x5_hm.py",
    ),
    ExperimentEntry(
        "X6", "Section 2.1 robustness",
        "extension: Markov-burst and Poisson-batch injection at the "
        "iid-equivalent rate",
        "bench_x6_markov.py",
    ),
    ExperimentEntry(
        "P1", "Performance",
        "vectorized slot kernel: >= 3x slots/sec over the scalar slot "
        "loop on 500 links",
        "bench_p1_slot_kernel.py",
    ),
    ExperimentEntry(
        "P3", "Performance",
        "sharded sweep executor: process-parallel (rate, seed) cells, "
        "record-identical to serial; >= 2x throughput at 4 workers",
        "bench_p3_sharded_sweep.py",
    ),
    ExperimentEntry(
        "P4", "Performance",
        "fused run loop: numpy-backend slots/sec on the 500-link KV "
        "headline and an all-transmit drain; history recording "
        "overhead <= 10%",
        "bench_p4_runloop.py",
    ),
    ExperimentEntry(
        "P5", "Performance",
        "scenario fleet runner: process-per-network execution of "
        "declarative ScenarioSpecs, record-identical to serial; "
        ">= 2x throughput at 4 workers",
        "bench_p5_fleet.py",
    ),
    ExperimentEntry(
        "P6", "Robustness",
        "checkpointed execution: interrupt+resume bit-identical, "
        "<= ~5% overhead at the default snapshot interval",
        "bench_p6_checkpoint.py",
    ),
    ExperimentEntry(
        "P7", "Performance",
        "streaming metrics retention: horizon-independent peak RSS at "
        "a 1e6-frame horizon, exact-field parity with full retention, "
        ">= 0.95x throughput",
        "bench_p7_streaming.py",
    ),
    ExperimentEntry(
        "P8", "Performance",
        "campaign frontier bisection: locates a cell's stable-rate "
        "boundary in >= 2x fewer simulations than a fixed rate grid "
        "at equal resolution, agreeing within one tolerance",
        "bench_p8_campaign.py",
    ),
    ExperimentEntry(
        "P9", "Performance",
        "batched fleet kernel: many small networks advanced in one "
        "fused wave loop, bit-identical to serial; >= 2x fleet "
        "frames/sec over serial on a single core",
        "bench_p9_batched_fleet.py",
    ),
]


def experiment_ids() -> List[str]:
    return [entry.id for entry in EXPERIMENTS]


# ----------------------------------------------------------------------
# Named sweep-cell builders (see repro.sim.sharding)
# ----------------------------------------------------------------------
#
# Every builder derives all of its randomness from the cell's own seed
# (child-seeded per cell), so a cell's outcome is a pure function of
# (builder kwargs, rate, seed) — independent of which process runs it
# or what ran before it. Scenario construction is deterministic in
# (model, nodes) and scenario objects hold no per-run state (scheduler
# state lives in run locals), so cells in one process share a cached
# build instead of re-running BFS routing per cell.


@lru_cache(maxsize=16)
def _scenario(model: str, nodes: int):
    return build_scenario(model, nodes, 0)


@register_protocol_builder("scenario-protocol")
def scenario_protocol(
    rate: float,
    seed: int,
    *,
    model: str,
    nodes: int,
    t_scale: float = 0.001,
):
    """The ``sweep`` command's protocol: a scenario preset, rate-capped
    at the scenario's certified rate (sweeps deliberately push the
    injection rate past what the protocol is provisioned for)."""
    scenario = _scenario(model, nodes)
    return DynamicProtocol(
        scenario.model,
        scenario.algorithm,
        min(rate, scenario.certified),
        t_scale=t_scale,
        rng=seed,
    )


@register_injection_builder("scenario-injection")
def scenario_injection(
    rate: float,
    seed: int,
    protocol,
    *,
    model: str,
    nodes: int,
    num_generators: int = 6,
):
    """The ``sweep`` command's injection: uniform over routed pairs of
    the same scenario preset, at the uncapped sweep rate."""
    scenario = _scenario(model, nodes)
    return uniform_pair_injection(
        scenario.routing,
        scenario.model,
        rate,
        num_generators=num_generators,
        rng=seed + 1000,
    )


#: The ``compare`` command's contenders: key -> (label, algorithm factory
#: over m). Keys name the algorithm inside compare-contender cells.
COMPARE_CONTENDERS = [
    ("decay", "decay [Thm 19] + transform"),
    ("kv", "KV [33] + transform"),
    ("hm", "HM-style [26] (native)"),
]

_COMPARE_ALGORITHMS = {
    "decay": lambda m: TransformedAlgorithm(
        DecayScheduler(), m=m, chi_scale=0.05
    ),
    "kv": lambda m: TransformedAlgorithm(KvScheduler(), m=m, chi_scale=0.05),
    "hm": lambda m: HmScheduler(),
}


def compare_algorithm(key: str, m: int):
    """Build one compare contender's static algorithm for network size m."""
    if key not in _COMPARE_ALGORITHMS:
        raise ConfigurationError(
            f"unknown compare algorithm '{key}'; choose from "
            f"{', '.join(sorted(_COMPARE_ALGORITHMS))}"
        )
    return _COMPARE_ALGORITHMS[key](m)


def compare_certified(m: int, key: str) -> float:
    """The certified rate a compare contender runs relative to, on a
    network of size ``m`` (callers already hold the network)."""
    return certified_rate(compare_algorithm(key, m), m)


@register_pair_builder("compare-contender")
def compare_contender(
    rate: float,
    seed: int,
    *,
    nodes: int,
    algorithm: str,
    num_generators: int = 8,
    t_scale: float = 0.001,
):
    """One ``compare`` cell: a contender on the shared linear-power SINR
    network, the protocol sharing the injection's PacketStore (which
    is why this is a pair builder — the two are built together)."""
    net = random_sinr_network(nodes, rng=seed)
    model = linear_power_model(net, alpha=3.0, beta=1.0, noise=0.02)
    routing = build_routing_table(net)
    injection = uniform_pair_injection(
        routing, model, rate, num_generators=num_generators, rng=seed + 1000
    )
    protocol = DynamicProtocol(
        model,
        compare_algorithm(algorithm, net.size_m),
        rate,
        t_scale=t_scale,
        rng=seed,
        store=injection.store,
    )
    return protocol, injection


__all__ = [
    "ExperimentEntry",
    "EXPERIMENTS",
    "experiment_ids",
    "COMPARE_CONTENDERS",
    "compare_algorithm",
    "compare_certified",
    "compare_contender",
    "scenario_injection",
    "scenario_protocol",
]

