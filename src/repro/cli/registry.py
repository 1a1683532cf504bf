"""The experiment inventory.

One row per bench in ``benchmarks/``: the paper claims (PAPER.md) the
``E``/``A``/``X`` benches reproduce, and the performance contracts
(PERFORMANCE.md) the ``P`` benches gate. The CLI prints this table;
tests assert that every listed bench file exists, and that every
committed ``BENCH_*.json`` belongs to a registered bench, so the
registry cannot drift from the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


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
        "P4", "Performance",
        "fused run loop: numpy-backend slots/sec on the 500-link KV "
        "headline and an all-transmit drain; history recording "
        "overhead <= 10% (median of 9 interleaved paired ratios)",
        "bench_p4_runloop.py",
    ),
    ExperimentEntry(
        "P6", "Robustness",
        "checkpointed execution: interrupt+resume bit-identical; "
        "plain / (plain + snapshot seconds) >= 0.95 at the default "
        "snapshot interval (minima of 5 interleaved repeats)",
        "bench_p6_checkpoint.py",
    ),
    ExperimentEntry(
        "P7", "Performance",
        "streaming metrics retention: exact-field parity with full "
        "retention; peak-RSS growth over a 1e6-frame horizon <= 5% of "
        "full's; full / streaming seconds >= 0.95 (median of 5 paired "
        "ratios)",
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
        "batched fleet: many small networks advanced in one wave "
        "loop, records bit-identical to serial; serial and batched "
        "runs each step at most 5% of their simulated slots",
        "bench_p9_batched_fleet.py",
    ),
]


def experiment_ids() -> List[str]:
    return [entry.id for entry in EXPERIMENTS]


__all__ = [
    "ExperimentEntry",
    "EXPERIMENTS",
    "experiment_ids",
]

