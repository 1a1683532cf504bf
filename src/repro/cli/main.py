"""Argument parsing and the CLI commands.

``python -m repro <command>``:

* ``info`` — version, model presets, experiment count.
* ``topology`` — generate a topology and describe it.
* ``scenarios`` — every registered scenario component + signature.
* ``simulate`` — one protocol run on a preset; metrics + verdict.
* ``sweep`` — rate sweep across the stability boundary.
* ``compare`` — static algorithms side by side on one network.
* ``fleet`` — a multi-network scenario fleet, serial or in one worker pool.
* ``campaign`` — cross-product scenario grid with a stability-frontier
  bisection per cell; JSON document + ascii phase diagram.
* ``experiments`` — the reproduced-claim inventory.

Every command writes plain text to stdout and returns a process exit
code (0 success, 2 usage error), so scripting against the CLI is
straightforward.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import repro
from repro.cli.builders import build_topology, scenario_names, topology_names
from repro.cli.registry import EXPERIMENTS
from repro.errors import ReproError
from repro.scenario import registry as component_registry
from repro.scenario.fleet import (
    FleetUnit,
    load_specs,
    run_scenario_fleet,
    sweep_units,
)
from repro.scenario.presets import preset_spec
from repro.scenario.spec import ScenarioSpec
from repro.sim.runner import aggregate_rate_sweep
from repro.sim.sharding import executor_names, make_executor
from repro.sim.stability import MIN_FRAMES
from repro.staticsched.runloop import (
    BACKENDS,
    available_backends,
    use_backend,
)


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """The run-loop backend knob shared by the simulation commands."""
    parser.add_argument(
        "--backend",
        default="auto",
        choices=BACKENDS,
        help=(
            "run-loop backend for the slot loop: 'auto' (the default) "
            "is the fused numpy backend; 'scalar' pins the "
            "ground-truth reference. Every backend produces identical "
            "results from one seed — the choice only changes speed"
        ),
    )


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """The sharding knobs shared by the sweep-shaped commands."""
    parser.add_argument(
        "--executor",
        default="serial",
        choices=executor_names(),
        help=(
            "how to run the (rate, seed) cells: 'serial' in this "
            "process; 'process' in one worker pool, raising if any "
            "cell fails; 'resilient' in the same pool with "
            "retries (identical records either way)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "cells in flight in the process and resilient pools "
            "(default: available CPUs)"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dynamic packet scheduling in wireless networks "
            "(Kesselheim, PODC 2012) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and experiment overview")

    topo = sub.add_parser("topology", help="generate and describe a topology")
    topo.add_argument("--kind", default="random", choices=topology_names())
    topo.add_argument("--nodes", type=int, default=12)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument(
        "--links", type=int, default=8, help="how many links to list"
    )

    sub.add_parser(
        "scenarios",
        help="list every registered scenario component with its "
             "parameter signature (the spec-file authoring reference)",
    )

    simulate = sub.add_parser(
        "simulate", help="run the dynamic protocol on a model preset"
    )
    simulate.add_argument("--model", default="packet-routing",
                          choices=scenario_names())
    simulate.add_argument("--nodes", type=int, default=12)
    simulate.add_argument(
        "--frames",
        type=int,
        default=200,
        help=f"simulation horizon (at least {MIN_FRAMES} frames); longer "
             "runs give sharper verdicts",
    )
    simulate.add_argument(
        "--rate-fraction",
        type=float,
        default=0.5,
        help="injection rate as a fraction of the certified rate",
    )
    simulate.add_argument("--generators", type=int, default=6)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--t-scale",
        type=float,
        default=0.001,
        help="scale on the paper's frame-length constants",
    )
    _add_backend_argument(simulate)
    simulate.add_argument(
        "--metrics",
        default="full",
        choices=("full", "streaming"),
        help="metrics retention: 'full' keeps per-frame history, "
             "'streaming' runs in bounded memory (O(window) state)",
    )
    simulate.add_argument(
        "--trace",
        action="store_true",
        help="record per-packet events and print a summary",
    )
    simulate.add_argument(
        "--check",
        action="store_true",
        help="run queueing cross-checks (Little's law, bootstrap drift CI)",
    )

    sweep = sub.add_parser(
        "sweep", help="sweep injection rates across the stability boundary"
    )
    sweep.add_argument("--model", default="packet-routing",
                       choices=scenario_names())
    sweep.add_argument("--nodes", type=int, default=12)
    sweep.add_argument(
        "--frames",
        type=int,
        default=300,
        help="horizon per cell; longer runs give sharper verdicts",
    )
    sweep.add_argument(
        "--fractions",
        default="0.25,0.5,0.75,1.0",
        help="comma-separated fractions of the certified rate",
    )
    sweep.add_argument("--seeds", default="0,1", help="comma-separated seeds")
    sweep.add_argument("--t-scale", type=float, default=0.001)
    sweep.add_argument(
        "--metrics",
        default="full",
        choices=("full", "streaming"),
        help="metrics retention for every cell (streaming = bounded "
             "memory per cell)",
    )
    _add_backend_argument(sweep)
    _add_executor_arguments(sweep)

    compare = sub.add_parser(
        "compare",
        help="compare static algorithms on one SINR network "
             "(certified rates + short stability runs)",
    )
    compare.add_argument("--nodes", type=int, default=14)
    compare.add_argument("--frames", type=int, default=60)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--rate-fraction",
        type=float,
        default=0.5,
        help="run each protocol at this fraction of its own certified rate",
    )
    _add_backend_argument(compare)
    _add_executor_arguments(compare)

    fleet = sub.add_parser(
        "fleet",
        help="run a multi-network scenario fleet "
             "(networks share one worker pool with --executor process)",
    )
    fleet.add_argument(
        "--spec",
        default=None,
        help="JSON spec file: one ScenarioSpec object, a list of them, "
             'or {"specs": [...]}; omit to generate presets instead',
    )
    fleet.add_argument(
        "--model",
        default="packet-routing",
        choices=scenario_names(),
        help="preset for generated fleets (ignored with --spec)",
    )
    fleet.add_argument("--nodes", type=int, default=12)
    fleet.add_argument(
        "--networks",
        type=int,
        default=4,
        help="how many networks to generate (seeds seed, seed+1, ...)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--frames",
        type=int,
        default=120,
        help="horizon per network (generated fleets only)",
    )
    fleet.add_argument(
        "--rate-fraction",
        type=float,
        default=0.5,
        help="injection rate as a fraction of each network's certified "
             "rate (generated fleets only)",
    )
    fleet.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="override every spec's run-loop backend "
             "(default: respect the specs)",
    )
    fleet.add_argument(
        "--metrics",
        default=None,
        choices=("full", "streaming"),
        help="override every spec's metrics retention "
             "(default: respect the specs)",
    )
    _add_executor_arguments(fleet)
    fault = fleet.add_argument_group(
        "fault tolerance",
        "any of these switches the fleet onto the resilient executor "
        "(retry with backoff, crash quarantine, durable manifest); "
        "e.g. `repro fleet --checkpoint-dir runs/f1` then, after an "
        "interruption, `repro fleet --checkpoint-dir runs/f1 --resume`",
    )
    fault.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for the fleet manifest and per-cell simulation "
             "checkpoints (enables crash-durable execution)",
    )
    fault.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in --checkpoint-dir's manifest "
             "and resume unfinished ones from their last snapshot",
    )
    fault.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per cell for transient failures (default: 2)",
    )
    fault.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell; a wedged cell is killed and "
             "retried (default: unlimited)",
    )
    fault.add_argument(
        "--snapshot-interval",
        type=int,
        default=None,
        metavar="FRAMES",
        help="frames between simulation checkpoints inside each cell "
             "(default: 50; needs --checkpoint-dir)",
    )

    campaign = sub.add_parser(
        "campaign",
        help="survey a cross-product scenario grid: bisect each cell's "
             "stable-rate frontier, render an ascii phase diagram",
    )
    campaign.add_argument(
        "--spec",
        required=True,
        help="JSON campaign file: axes (topology/model/scheduler/"
             "injection), seeds, frames, search range — see "
             "repro.scenario.CampaignSpec",
    )
    campaign.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON frontier document here "
             "(deterministic: no timestamps, bit-identical across "
             "executors and resume)",
    )
    campaign.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="override every probe's run-loop backend "
             "(default: respect the campaign's base)",
    )
    campaign.add_argument(
        "--metrics",
        default=None,
        choices=("full", "streaming"),
        help="override every probe's metrics retention ('streaming' "
             "caps per-probe memory at O(window) for long horizons)",
    )
    _add_executor_arguments(campaign)
    campaign.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal every completed probe into a fleet manifest "
             "here (enables --resume after an interruption)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="recover probes already journalled in --checkpoint-dir's "
             "manifest instead of re-simulating them",
    )

    sub.add_parser("experiments", help="list the reproduced paper claims")

    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {repro.__version__} — Kesselheim, PODC 2012 reproduction")
    print()
    print("model presets: " + ", ".join(scenario_names()))
    print("topologies:    " + ", ".join(topology_names()))
    print("backends:      " + ", ".join(available_backends())
          + " (--backend; 'auto' resolves to 'numpy')")
    print(f"experiments:   {len(EXPERIMENTS)} "
          "(run `python -m repro experiments`)")
    print("scenario specs: `python -m repro scenarios` lists every "
          "component; `python -m repro fleet` runs multi-network fleets")
    print()
    print("quickstart:    python -m repro simulate --model sinr-linear "
          "--nodes 15 --frames 100")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    net = build_topology(args.kind, args.nodes, args.seed)
    print(f"topology '{args.kind}': {net.num_nodes} nodes, "
          f"{net.num_links} links, m = {net.size_m}")
    print(f"geometric: {net.is_geometric}")
    lengths = net.link_lengths() if net.is_geometric else None
    rows = []
    for link in net.links[: max(0, args.links)]:
        length = f"{lengths[link.id]:.3f}" if lengths is not None else "-"
        rows.append([link.id, link.sender, link.receiver, length])
    if rows:
        print(repro.format_table(["link", "sender", "receiver", "length"],
                                 rows))
    if net.num_links > args.links:
        print(f"... and {net.num_links - args.links} more links")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """The spec-file authoring reference: components + signatures."""
    print("scenario components (spec files name these; see "
          "repro.scenario.ScenarioSpec):")
    for kind in ("topology", "model", "scheduler", "injection"):
        print()
        print(f"{kind}:")
        for name in component_registry.names(kind):
            print(f"  {component_registry.signature(kind, name)}")
            description = component_registry.describe(kind, name)
            if description:
                print(f"      {description}")
    print()
    print("backend: " + ", ".join(BACKENDS)
          + " (spec field 'backend'; every backend is bit-identical, "
          "the choice only changes speed)")
    print("executors: " + ", ".join(executor_names())
          + " (`--executor` on sweep/compare/fleet/campaign; process "
          "and resilient\nrun the cells in one worker pool, resilient "
          "with retries; every executor\nproduces bit-identical records)")
    print("presets: " + ", ".join(scenario_names())
          + " (repro.scenario.preset_spec / `repro fleet --model`)")
    print()
    print("campaigns: cross-product grids over these components with a "
          "stability-frontier\nbisection per cell — `repro campaign "
          "--spec FILE` (see repro.scenario.CampaignSpec\nfor the file "
          "shape; every axis entry names a component above)")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a fleet of networks; per-network records + summary."""
    if args.spec is not None:
        specs = load_specs(args.spec)
        source = f"spec file {args.spec}"
    else:
        if args.networks < 1:
            print(f"error: --networks must be >= 1, got {args.networks}",
                  file=sys.stderr)
            return 2
        specs = [
            preset_spec(
                args.model,
                nodes=args.nodes,
                seed=args.seed + offset,
                frames=args.frames,
                rate=args.rate_fraction,
            )
            for offset in range(args.networks)
        ]
        source = (f"preset '{args.model}' x {args.networks} networks "
                  f"(seeds {args.seed}..{args.seed + args.networks - 1})")
    if args.backend is not None:
        specs = [spec.replace(backend=args.backend) for spec in specs]
    if args.metrics is not None:
        specs = [spec.replace(metrics=args.metrics) for spec in specs]

    resilient = any(
        value is not None
        for value in (
            args.checkpoint_dir,
            args.max_retries,
            args.cell_timeout,
            args.snapshot_interval,
        )
    ) or args.resume
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume needs --checkpoint-dir (the manifest to "
              "resume from)", file=sys.stderr)
        return 2
    if resilient:
        from repro.sim.resilience import run_resilient_fleet

        outcome = run_resilient_fleet(
            specs,
            workers=args.workers,
            max_retries=args.max_retries,
            cell_timeout=args.cell_timeout,
            manifest_dir=args.checkpoint_dir,
            resume=args.resume,
            snapshot_interval=args.snapshot_interval,
        )
        executor_label = "resilient"
        records = [r for r in outcome.records if r is not None]
        pairs = [
            (spec, record)
            for spec, record in zip(specs, outcome.records)
            if record is not None
        ]
    else:
        outcome = None
        executor_label = args.executor
        result = run_scenario_fleet(
            specs, make_executor(args.executor, args.workers)
        )
        records = result.records
        pairs = list(zip(specs, result.records))
    print(f"fleet: {source}, {len(specs)} network(s), "
          f"executor '{executor_label}'")
    rows = []
    for spec, record in pairs:
        rows.append(
            [
                record.rate_index,
                spec.name or spec.topology,
                record.seed,
                f"{record.rate:.4g}",
                record.injected,
                record.delivered,
                f"{record.tail_queue:.1f}",
                f"{record.throughput:.3f}",
                f"{record.latency:.0f}",
                record.verdict.stable,
            ]
        )
    print(repro.format_table(
        ["#", "scenario", "seed", "rate", "injected", "delivered",
         "tail queue", "throughput", "latency", "stable"],
        rows,
    ))
    summary = outcome.summary if outcome is not None else result.summary
    if summary is not None:
        print()
        print(f"summary over {summary.networks} network(s): "
              f"stable fraction {summary.stable_fraction:.2f}, "
              f"mean tail queue {summary.mean_tail_queue:.1f}, "
              f"mean throughput {summary.mean_throughput:.3f}, "
              f"mean latency {summary.mean_latency:.0f}, "
              f"injected {summary.total_injected}, "
              f"delivered {summary.total_delivered}")
    if outcome is not None:
        recovered = sum(
            1 for s in outcome.statuses if s.source == "manifest"
        )
        if recovered:
            print(f"resumed: {recovered} cell(s) recovered from the "
                  f"manifest, {len(specs) - recovered} run")
        for status in outcome.statuses:
            if status.state in ("failed", "quarantined"):
                last = status.failures[-1] if status.failures else "?"
                print(f"cell {status.index} {status.state} after "
                      f"{status.attempts} attempt(s): {last}",
                      file=sys.stderr)
        if not outcome.complete:
            return 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.frames < MIN_FRAMES:
        print(f"error: --frames must be >= {MIN_FRAMES} to assess "
              f"stability, got {args.frames}", file=sys.stderr)
        return 2
    scenario = preset_spec(args.model, nodes=args.nodes, seed=args.seed).build(
        with_protocol=False
    )
    rate = args.rate_fraction * scenario.certified
    tracer = repro.Tracer() if args.trace else None
    injection = repro.uniform_pair_injection(
        scenario.routing,
        scenario.model,
        rate,
        num_generators=args.generators,
        rng=args.seed + 1000,
    )
    protocol = repro.DynamicProtocol(
        scenario.model,
        scenario.algorithm,
        rate,
        t_scale=args.t_scale,
        rng=args.seed,
        tracer=tracer,
        store=injection.store,
    )
    if args.check and args.metrics == "streaming":
        # The queueing cross-checks (Little's law, bootstrap drift CI)
        # are whole-history computations by definition.
        print("error: --check needs full history; drop --metrics "
              "streaming", file=sys.stderr)
        return 2
    simulation = repro.FrameSimulation(
        protocol, injection, metrics=args.metrics
    )
    with use_backend(args.backend):
        simulation.run(args.frames)
    metrics = simulation.metrics

    print(f"scenario '{args.model}': {scenario.network.num_nodes} nodes, "
          f"m = {scenario.network.size_m}, "
          f"frame length {protocol.frame_length}")
    print(f"certified rate {scenario.certified:.4g}, "
          f"running at {args.rate_fraction:.2f}x = {rate:.4g}")
    print()
    verdict = metrics.stability_verdict(
        load_per_frame=max(1.0, metrics.injected_total / max(1, args.frames)),
    )
    summary = metrics.latency_summary(protocol.delivered)
    rows = [
        ["frames", args.frames],
        ["injected", metrics.injected_total],
        ["delivered", metrics.delivered_count()],
        ["failures", protocol.potential.total_failures],
        ["final queue", metrics.final_queue],
        ["tail mean queue", f"{metrics.mean_queue():.2f}"],
        ["throughput/frame", f"{metrics.throughput():.3f}"],
        ["mean latency (slots)", f"{summary.mean:.1f}"],
        ["stable", verdict.stable],
    ]
    print(repro.format_table(["metric", "value"], rows))
    print()
    # Full retention: the whole history. Streaming: the ring window
    # (newest `window` frames) — labelled so the plot is honest.
    series_label = (
        "queue series" if args.metrics == "full" else "queue series (window)"
    )
    print(series_label + ": " + repro.sparkline(metrics.recent_queue_series()))
    if args.check:
        print()
        # Trim the warm-up ramp: the CI should judge steady state, not
        # the pipeline filling up.
        tail = metrics.queue_series[len(metrics.queue_series) // 4 :]
        point, lower, upper = repro.drift_confidence_interval(
            tail, rng=args.seed
        )
        print(f"drift/frame (post-warm-up): {point:+.4f}, 95% CI "
              f"[{lower:+.4f}, {upper:+.4f}] -> contains 0: "
              f"{lower <= 0 <= upper}")
        if protocol.delivered:
            sojourns = [
                (p.delivered_at - p.injected_at) / protocol.frame_length
                for p in protocol.delivered
            ]
            report = repro.littles_law_check(
                metrics.queue_series, sojourns
            )
            print(f"Little's law: L = {report.mean_in_system:.2f} vs "
                  f"lambda*W = {report.predicted_in_system:.2f} "
                  f"(gap {report.relative_gap:.1%})")
    if tracer is not None:
        print()
        counts = tracer.counts()
        count_rows = [[kind.value, counts[kind]] for kind in sorted(counts)]
        print(repro.format_table(["event", "count"], count_rows))
        hotspots = tracer.failure_hotspots()
        if hotspots:
            print("failure hotspots (link, count): "
                  + ", ".join(f"({link}, {count})"
                              for link, count in hotspots))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        fractions = [float(x) for x in args.fractions.split(",") if x.strip()]
        seeds = [int(x) for x in args.seeds.split(",") if x.strip()]
    except ValueError as exc:
        print(f"error: bad --fractions/--seeds: {exc}", file=sys.stderr)
        return 2
    if not fractions or not seeds:
        print("error: empty --fractions or --seeds", file=sys.stderr)
        return 2

    # Every cell shares the seed-0 network; the cell seed varies only
    # the protocol and injection streams.
    spec = preset_spec(
        args.model,
        nodes=args.nodes,
        frames=args.frames,
        t_scale=args.t_scale,
        backend=args.backend,
        metrics=args.metrics,
    )
    spec = spec.replace(topology_kwargs={**spec.topology_kwargs, "seed": 0})
    certified = spec.build(with_protocol=False).certified
    units = sweep_units(
        spec, [fraction * certified for fraction in fractions], seeds
    )
    records = aggregate_rate_sweep(
        make_executor(args.executor, args.workers).map(units)
    )
    print(f"scenario '{args.model}': certified rate "
          f"{certified:.4g}, {len(seeds)} seed(s)")
    rows = []
    for fraction, record in zip(fractions, records):
        rows.append(
            [
                f"{fraction:.2f}x",
                f"{record.rate:.4g}",
                f"{record.stable_fraction:.2f}",
                f"{record.mean_tail_queue:.1f}",
                f"{record.mean_throughput:.3f}",
                f"{record.mean_latency:.0f}",
            ]
        )
    print(repro.format_table(
        ["fraction", "rate", "stable frac", "tail queue", "throughput",
         "latency"],
        rows,
    ))
    return 0


#: The ``compare`` command's contenders: table label -> scheduler fields.
COMPARE_CONTENDERS = (
    ("decay [Thm 19] + transform", {"scheduler": "decay", "transform": True}),
    ("KV [33] + transform", {"scheduler": "kv", "transform": True}),
    ("HM-style [26] (native)", {"scheduler": "hm"}),
)


def cmd_compare(args: argparse.Namespace) -> int:
    """Certified rates and short stability runs, one network, all algorithms."""
    specs = [
        ScenarioSpec(
            topology="random",
            topology_kwargs={"num_nodes": args.nodes},
            model="linear-power",
            injection_kwargs={"num_generators": 8},
            rate=args.rate_fraction,
            frames=args.frames,
            seed=args.seed,
            backend=args.backend,
            load_from_injected=True,
            **contender,
        )
        for _, contender in COMPARE_CONTENDERS
    ]
    built = [spec.build(with_protocol=False) for spec in specs]
    # Each unit rebuilds the (seeded) network inside its worker and
    # shares its injection's PacketStore with the protocol, so the
    # executor choice cannot change any number in the table.
    results = make_executor(args.executor, args.workers).map(
        [FleetUnit(spec=spec, index=index) for index, spec in enumerate(specs)]
    )
    net = built[0].network
    print(f"network: {net.num_nodes} nodes, m = {net.size_m}, "
          "linear-power SINR; "
          f"each protocol at {args.rate_fraction:.2f}x its certified rate")
    rows = []
    for (label, _), scenario, result in zip(
        COMPARE_CONTENDERS, built, results
    ):
        rows.append(
            [
                label,
                f"{scenario.certified:.4g}",
                result.frame_length,
                result.injected,
                result.failures,
                f"{result.tail_queue:.1f}",
                result.verdict.stable,
            ]
        )
    print(repro.format_table(
        ["algorithm", "certified rate", "frame T", "injected", "failures",
         "tail queue", "stable"],
        rows,
    ))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Survey a scenario grid: frontier table + phase diagram."""
    from repro.scenario.campaign import load_campaign, run_campaign

    if args.resume and args.checkpoint_dir is None:
        print("error: --resume needs --checkpoint-dir (the manifest to "
              "resume from)", file=sys.stderr)
        return 2
    spec = load_campaign(args.spec)
    result = run_campaign(
        spec,
        executor=make_executor(args.executor, args.workers),
        manifest_dir=args.checkpoint_dir,
        resume=args.resume,
        metrics=args.metrics,
        backend=args.backend,
    )
    search = spec.search
    print(f"campaign: {spec.name or args.spec}, "
          f"{len(result.cells)} cell(s) x {len(spec.seeds)} seed(s), "
          f"executor '{args.executor}'")
    print(f"search: rate in [{search.rate_low:g}, {search.rate_high:g}] "
          f"({search.rate_mode}), tolerance {search.tolerance:g}, "
          f"{spec.frames} frame(s) per probe")
    print()

    def fmt(value) -> str:
        return "-" if value is None else f"{value:.4g}"

    rows = []
    for cell in result.cells:
        labels = cell.labels
        rows.append(
            [
                cell.index,
                labels["topology"],
                labels["model"],
                labels["scheduler"],
                labels["injection"],
                cell.status if cell.converged else f"{cell.status}*",
                fmt(cell.lower),
                fmt(cell.upper),
                fmt(cell.frontier),
                cell.simulations,
            ]
        )
    print(repro.format_table(
        ["#", "topology", "model", "scheduler", "injection", "status",
         "lower", "upper", "frontier", "sims"],
        rows,
    ))
    if any(not cell.converged for cell in result.cells):
        print("* bracket wider than tolerance (max_rounds hit)")
    print()
    print(result.phase_diagram())
    print()
    print(f"simulations: {result.total_simulations} "
          f"(fixed grid at the same resolution: "
          f"{result.grid_equivalent_simulations})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
        print(f"frontier document written to {args.out}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    rows = [
        [entry.id, entry.paper_ref, entry.claim, entry.bench_file]
        for entry in EXPERIMENTS
    ]
    print(repro.format_table(["id", "paper ref", "claim", "bench"], rows))
    return 0


_COMMANDS = {
    "info": cmd_info,
    "topology": cmd_topology,
    "scenarios": cmd_scenarios,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "fleet": cmd_fleet,
    "campaign": cmd_campaign,
    "experiments": cmd_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        return 0


__all__ = ["main"]
