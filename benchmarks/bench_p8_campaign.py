"""P8 — frontier bisection vs a fixed rate grid at equal resolution.

The campaign engine's claim is an *economy* claim: locating a cell's
stable-rate boundary to a given resolution by bracket-and-bisect costs
``2 + ceil(log2(span/tolerance))`` rate points, where the fixed grid
the sweeps have used so far costs ``ceil(span/tolerance) + 1`` — and
every grid point far from the boundary is a simulation spent learning
nothing. This bench runs both instruments on the same cell and the
same seeds and checks two things:

1. **Agreement**: the bisection's frontier and the fixed grid's
   boundary (midpoint between the last majority-stable and the first
   majority-unstable grid rate) land within one tolerance of each
   other — fewer simulations, same answer.
2. **Economy**: the bisection spends fewer simulations; the headline
   is ``grid_simulations / campaign_simulations`` (>= 2x acceptance
   floor, enforced unconditionally — the counts are deterministic, no
   CPU condition needed).

Workload: the MAC round-robin cell (the repo's cheapest probe), seeds
0-1, search range [0.5, 2.0] x certified at tolerance 0.05 — 7
bisection rate points against a 31-point grid. Wall-clock for both
instruments is reported for context but carries no floor; the claim is
about simulation counts, which don't wobble with the machine.

Results go to ``BENCH_p8.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json

from _harness import (
    check_gates,
    gate,
    measure,
    once,
    print_experiment,
    timings,
    write_payload,
)

from repro.scenario.campaign import campaign_from_data, run_campaign
from repro.scenario.fleet import FleetUnit
from repro.sim.sharding import SerialExecutor

STATIONS = 8
FRAMES = 60
SEEDS = (0, 1)
RATE_LOW = 0.5
RATE_HIGH = 2.0
TOLERANCE = 0.05
TIMING_REPEATS = 2
ECONOMY_FLOOR = 2.0


def build_campaign(
    frames: int = FRAMES, seeds=SEEDS, tolerance: float = TOLERANCE
):
    return campaign_from_data({
        "name": "p8-frontier",
        "axes": {
            "topology": [{"name": "mac",
                          "kwargs": {"num_stations": STATIONS}}],
            "model": ["mac"],
            "scheduler": ["round-robin"],
            "injection": ["uniform-pairs"],
        },
        "seeds": list(seeds),
        "frames": frames,
        "search": {
            "rate_low": RATE_LOW,
            "rate_high": RATE_HIGH,
            "tolerance": tolerance,
        },
    })


def run_fixed_grid(spec):
    """The pre-campaign instrument: every grid rate, every seed."""
    (cell,) = spec.expand()
    search = spec.search
    points = search.grid_points()
    step = search.span / (points - 1)
    rates = [search.rate_low + k * step for k in range(points)]
    executor = SerialExecutor()
    units = [
        FleetUnit(spec=cell.probe_spec(rate, seed), index=cell.index)
        for rate in rates
        for seed in spec.seeds
    ]
    results = executor.map(units)
    grouped = [
        results[k * len(spec.seeds):(k + 1) * len(spec.seeds)]
        for k in range(points)
    ]
    majority = [
        sum(1 for r in group if r.verdict.stable) / len(group) >= 0.5
        for group in grouped
    ]
    # Boundary: midpoint between the last stable and the first
    # unstable grid rate (the best a grid at this step can localise).
    boundary = None
    for k in range(1, points):
        if majority[k - 1] and not majority[k]:
            boundary = 0.5 * (rates[k - 1] + rates[k])
            break
    return {
        "rates": rates,
        "majority_stable": majority,
        "boundary": boundary,
        "simulations": len(units),
    }


def run_experiment(
    frames: int = FRAMES,
    seeds=SEEDS,
    tolerance: float = TOLERANCE,
    repeats: int = TIMING_REPEATS,
    out_path=None,
    tags=None,
):
    spec = build_campaign(frames=frames, seeds=seeds, tolerance=tolerance)
    # Both instruments must reproduce their answers across repeats; the
    # campaign's answer is its (timestamp-free) JSON document.
    runs = measure({
        "campaign": lambda watch: run_campaign(spec).to_json(),
        "grid": lambda watch: run_fixed_grid(spec),
    }, repeats)
    document = json.loads(runs["campaign"].outcome)
    grid = runs["grid"].outcome

    (cell,) = document["cells"]
    assert cell["status"] == "bracketed", (
        f"P8 workload must bracket its boundary, got '{cell['status']}' — "
        "retune the search range"
    )
    assert grid["boundary"] is not None, (
        "fixed grid found no stable->unstable crossing"
    )
    agreement = abs(cell["frontier"] - grid["boundary"])
    # Equal-resolution agreement: both instruments localise the same
    # boundary to within one tolerance of each other.
    assert agreement <= tolerance + 1e-12, (
        f"bisection frontier {cell['frontier']:.4g} and grid boundary "
        f"{grid['boundary']:.4g} disagree by {agreement:.4g} "
        f"(> tolerance {tolerance})"
    )

    campaign_sims = document["total_simulations"]
    grid_sims = grid["simulations"]
    headline = grid_sims / campaign_sims
    payload = write_payload(out_path, {
        "benchmark": "p8_campaign",
        "workload": {
            "name": f"mac-roundrobin-{STATIONS}stations",
            "stations": STATIONS,
            "frames": frames,
            "seeds": list(seeds),
            "rate_low": RATE_LOW,
            "rate_high": RATE_HIGH,
            "tolerance": tolerance,
        },
        "frontier": cell["frontier"],
        "frontier_bracket": [cell["lower"], cell["upper"]],
        "grid_boundary": grid["boundary"],
        "boundary_agreement": agreement,
        "campaign_simulations": campaign_sims,
        "grid_simulations": grid_sims,
        "campaign_rate_points": len(cell["probes"]),
        "grid_rate_points": len(grid["rates"]),
        "headline_speedup": headline,
        "timings": timings(runs),
        # The counts are deterministic functions of the search
        # parameters, so the floor holds on any machine.
        "gates": [gate(
            "bisection economy", "grid / campaign simulations", headline,
            ECONOMY_FLOOR,
        )],
    }, tags)

    print_experiment(
        "P8",
        f"Frontier bisection vs fixed grid at tolerance {tolerance}: "
        f"same boundary, {headline:.1f}x fewer simulations",
        ["instrument", "rate points", "simulations", "seconds (min)",
         "boundary"],
        [
            ["bisection", len(cell["probes"]), campaign_sims,
             f"{runs['campaign'].min:.2f}", f"{cell['frontier']:.4g}"],
            ["fixed grid", len(grid["rates"]), grid_sims,
             f"{runs['grid'].min:.2f}", f"{grid['boundary']:.4g}"],
        ],
    )
    return payload


def test_p8_campaign(benchmark, tmp_path):
    check_gates(once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p8.json"),
    ))
