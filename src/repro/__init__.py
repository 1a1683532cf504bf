"""repro — dynamic packet scheduling in wireless networks.

A full reproduction of Thomas Kesselheim, *Dynamic Packet Scheduling in
Wireless Networks* (PODC 2012): the linear interference abstraction,
the Section-3 static-algorithm transformation, the Section-4/5 dynamic
protocols for stochastic and adversarial injection, the SINR
instantiations of Section 6, the multiple-access-channel and
conflict-graph applications of Section 7, and the Theorem-20 global-
clock lower bound — plus the simulation substrate to exercise them.

Quickstart::

    import repro

    net = repro.random_sinr_network(40, rng=0)
    model = repro.linear_power_model(net, alpha=3.0, beta=1.0, noise=0.01)
    algorithm = repro.TransformedAlgorithm(
        repro.DecayScheduler(), m=net.size_m, chi_scale=0.05
    )
    rate = 0.5 * repro.certified_rate(algorithm, net.size_m)
    protocol = repro.DynamicProtocol(model, algorithm, rate, t_scale=0.001, rng=1)
    routing = repro.build_routing_table(net)
    injection = repro.uniform_pair_injection(routing, model, rate, rng=2)
    sim = repro.FrameSimulation(protocol, injection)
    sim.run(200)
    print(sim.metrics.queue_series[-5:], sim.metrics.throughput())

PAPER.md has the source paper's abstract; ``repro experiments`` lists
the benches that reproduce its claims claim by claim
(``repro.cli.registry``), and PERFORMANCE.md the performance design.
"""

from repro.errors import (
    ConfigurationError,
    InfeasibleLinkError,
    InjectionError,
    ReproError,
    SchedulingError,
    StabilityError,
    TopologyError,
)
from repro.geometry import (
    EuclideanMetric,
    FiniteMetric,
    Point,
    estimate_doubling_dimension,
)
from repro.network import (
    Link,
    Network,
    RoutingTable,
    build_routing_table,
    figure1_instance,
    grid_network,
    line_network,
    mac_network,
    random_sinr_network,
    star_network,
)
from repro.interference import (
    AffectanceThresholdModel,
    ConflictGraphModel,
    ExplicitMatrixModel,
    FrontLoadedPattern,
    InterferenceModel,
    JammedModel,
    JammingPattern,
    MultipleAccessChannel,
    PacketRoutingModel,
    PeriodicBurstPattern,
    RandomPattern,
    UnreliableModel,
    degree_ordering,
    distance2_matching_conflicts,
    inductive_independence_for_ordering,
    jamming_budget_factor,
    length_ordering,
    node_constraint_conflicts,
    protocol_model_conflicts,
    radio_network_conflicts,
    reliability_budget_factor,
    request_vector,
    worst_window_fraction,
)
from repro.sinr import (
    LinearPower,
    PowerAssignment,
    PowerControlCapacity,
    RayleighFadingSinrModel,
    SinrModel,
    SquareRootPower,
    UniformPower,
    affectance_matrix,
    fading_budget_factor,
    linear_power_weights,
    monotone_power_weights,
    power_control_weights,
    worst_singleton_success,
)
from repro.sinr.weights import linear_power_model, monotone_power_model
from repro.injection import (
    BurstyAdversary,
    InjectionProcess,
    MarkovModulatedInjection,
    PacketSequence,
    PacketStore,
    PacketView,
    PathGenerator,
    PoissonBatchInjection,
    SawtoothAdversary,
    SmoothAdversary,
    StochasticInjection,
    TargetedAdversary,
    WindowAudit,
    empirical_usage,
    uniform_pair_injection,
)
from repro.staticsched import (
    DecayScheduler,
    FkvScheduler,
    HmScheduler,
    KvScheduler,
    LengthBound,
    MacBackoffScheduler,
    MaxWeightScheduler,
    OracleScheduler,
    PowerControlScheduler,
    RoundRobinScheduler,
    RunResult,
    SingleHopScheduler,
    StaticAlgorithm,
)
from repro.core import (
    DynamicProtocol,
    Figure1Model,
    FrameParameters,
    PotentialTracker,
    ShiftedDynamicProtocol,
    TransformedAlgorithm,
    certified_rate,
    compute_frame_parameters,
    estimate_max_stable_rate,
    feasible_measure_upper_bound,
    simulate_figure1,
)
from repro.sim import (
    CellResult,
    EventKind,
    FrameSimulation,
    MetricsRecorder,
    RateSweepRecord,
    SerialExecutor,
    StabilityVerdict,
    TraceEvent,
    Tracer,
    aggregate_rate_sweep,
    assess_stability,
    format_journey,
    make_executor,
    measure_cell,
    packet_journey,
)
from repro.scenario import (
    FleetResult,
    FleetSummary,
    ScenarioSpec,
    aggregate_fleet,
    preset_spec,
    run_scenario_fleet,
)
from repro.analysis import (
    busy_period_stats,
    drift_confidence_interval,
    format_table,
    line_chart,
    littles_law_check,
    sparkline,
    utilisation,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "InjectionError",
    "SchedulingError",
    "InfeasibleLinkError",
    "StabilityError",
    # geometry / network
    "Point",
    "EuclideanMetric",
    "FiniteMetric",
    "estimate_doubling_dimension",
    "Link",
    "Network",
    "RoutingTable",
    "build_routing_table",
    "random_sinr_network",
    "grid_network",
    "line_network",
    "star_network",
    "mac_network",
    "figure1_instance",
    # interference
    "InterferenceModel",
    "request_vector",
    "ExplicitMatrixModel",
    "AffectanceThresholdModel",
    "MultipleAccessChannel",
    "PacketRoutingModel",
    "ConflictGraphModel",
    "inductive_independence_for_ordering",
    "length_ordering",
    "degree_ordering",
    "node_constraint_conflicts",
    "protocol_model_conflicts",
    "radio_network_conflicts",
    "distance2_matching_conflicts",
    "UnreliableModel",
    "reliability_budget_factor",
    "JammingPattern",
    "PeriodicBurstPattern",
    "RandomPattern",
    "FrontLoadedPattern",
    "JammedModel",
    "jamming_budget_factor",
    "worst_window_fraction",
    # sinr
    "SinrModel",
    "PowerAssignment",
    "UniformPower",
    "LinearPower",
    "SquareRootPower",
    "affectance_matrix",
    "linear_power_weights",
    "monotone_power_weights",
    "power_control_weights",
    "linear_power_model",
    "monotone_power_model",
    "PowerControlCapacity",
    "RayleighFadingSinrModel",
    "fading_budget_factor",
    "worst_singleton_success",
    # injection
    "PacketStore",
    "PacketView",
    "PacketSequence",
    "InjectionProcess",
    "StochasticInjection",
    "PathGenerator",
    "uniform_pair_injection",
    "SmoothAdversary",
    "BurstyAdversary",
    "SawtoothAdversary",
    "TargetedAdversary",
    "WindowAudit",
    "MarkovModulatedInjection",
    "PoissonBatchInjection",
    "empirical_usage",
    # static algorithms
    "StaticAlgorithm",
    "RunResult",
    "LengthBound",
    "DecayScheduler",
    "FkvScheduler",
    "HmScheduler",
    "KvScheduler",
    "MacBackoffScheduler",
    "RoundRobinScheduler",
    "PowerControlScheduler",
    "SingleHopScheduler",
    "OracleScheduler",
    "MaxWeightScheduler",
    # core
    "TransformedAlgorithm",
    "FrameParameters",
    "compute_frame_parameters",
    "DynamicProtocol",
    "ShiftedDynamicProtocol",
    "PotentialTracker",
    "Figure1Model",
    "simulate_figure1",
    "certified_rate",
    "estimate_max_stable_rate",
    "feasible_measure_upper_bound",
    # sim / analysis
    "FrameSimulation",
    "MetricsRecorder",
    "StabilityVerdict",
    "assess_stability",
    "RateSweepRecord",
    "CellResult",
    "SerialExecutor",
    "make_executor",
    "measure_cell",
    "aggregate_rate_sweep",
    # scenario layer
    "ScenarioSpec",
    "FleetResult",
    "FleetSummary",
    "aggregate_fleet",
    "preset_spec",
    "run_scenario_fleet",
    "EventKind",
    "TraceEvent",
    "Tracer",
    "packet_journey",
    "format_journey",
    "format_table",
    "sparkline",
    "line_chart",
    "littles_law_check",
    "drift_confidence_interval",
    "busy_period_stats",
    "utilisation",
]
