"""X4 — Rayleigh block fading on the SINR model (Section-9 direction).

Physical grounding for the paper's "each transmission is lost with some
probability": every channel gain carries a unit-mean exponential fade,
redrawn per slot. Two parts:

* **X4a** — the closed-form success probability (the classical Rayleigh
  product formula implemented by ``success_probability``) agrees with
  Monte-Carlo counts of the faded predicate, per noise level.
* **X4b** — the dynamic pipeline on a linear-power SINR network: the
  fade-free run is stable on tight budgets; with fading the same
  budgets accrue phase-1 failures; scaling the phase-1 budget by
  ``fading_budget_factor(worst_singleton_success)`` restores stability.
  Once again only the static schedule length changes — the paper's
  Section-9 recipe, now for a physically-derived loss process.
"""

import numpy as np

from _harness import once, print_experiment

import repro
from repro.core.frames import FrameParameters
from repro.sinr.fading import (
    RayleighFadingSinrModel,
    fading_budget_factor,
    worst_singleton_success,
)


ALPHA, BETA = 3.0, 1.0


def noise_for_target(net, p_target):
    """Noise level making the *worst* link's singleton success = p_target."""
    crisp = repro.linear_power_model(net, alpha=ALPHA, beta=BETA, noise=0.0)
    signals = crisp.signal_strengths()
    return float(-np.log(p_target) * signals.min() / BETA)


def build_models(net, p_target, seed):
    noise = noise_for_target(net, p_target)
    crisp = repro.linear_power_model(net, alpha=ALPHA, beta=BETA, noise=noise)
    faded = RayleighFadingSinrModel(
        net,
        alpha=ALPHA,
        beta=BETA,
        noise=noise,
        power=crisp.power_assignment,
        weight_matrix=np.array(crisp.weight_matrix()),
        rng=seed,
    )
    return crisp, faded


def run_case(net, model, budget_factor, frames=80):
    params = FrameParameters(
        frame_length=700,
        phase1_budget=min(620, int(210 * budget_factor)),
        cleanup_budget=70,
        measure_budget=9.0,
        epsilon=0.5,
        rate=0.01,
        f_m=1.0,
        m=net.size_m,
    )
    protocol = repro.DynamicProtocol(
        model, repro.DecayScheduler(), rate=0.01, params=params, rng=5
    )
    routing = repro.build_routing_table(net)
    injection = repro.uniform_pair_injection(
        routing, model, 0.01, num_generators=6, rng=7
    )
    simulation = repro.FrameSimulation(protocol, injection)
    simulation.run(frames)
    metrics = simulation.metrics
    packets_per_frame = max(1.0, metrics.injected_total / max(1, frames))
    verdict = repro.assess_stability(
        metrics.queue_series, load_per_frame=packets_per_frame
    )
    return protocol, metrics, verdict


def run_experiment():
    net = repro.random_sinr_network(12, rng=31)

    # ---- X4a: closed form vs Monte Carlo --------------------------------
    audit_rows = []
    for p_target in (0.9, 0.7, 0.5):
        _, faded = build_models(net, p_target, seed=101)
        probe = [0, 1]
        analytic = faded.success_probability(probe)
        trials = 1500
        counts = np.zeros(len(probe))
        for _ in range(trials):
            winners = faded.successes(probe)
            for j, link in enumerate(sorted(set(probe))):
                if link in winners:
                    counts[j] += 1
        empirical = counts / trials
        audit_rows.append(
            [
                f"p_target={p_target:.1f}",
                f"{analytic[0]:.3f} / {analytic[1]:.3f}",
                f"{empirical[0]:.3f} / {empirical[1]:.3f}",
                f"{np.abs(empirical - analytic).max():.3f}",
            ]
        )
    print_experiment(
        "X4a",
        "Rayleigh fading: closed-form success probability vs Monte Carlo "
        "(links 0,1 transmitting together)",
        ["noise level", "analytic", "measured", "max |err|"],
        audit_rows,
    )

    # ---- X4b: protocol stability with/without the budget adjustment -----
    rows, results = [], {}
    for p_target in (0.7, 0.5):
        crisp, _ = build_models(net, p_target, seed=201)
        cases = [("crisp", crisp, 1.0)]
        for adjusted in (False, True):
            _, faded = build_models(net, p_target, seed=201)
            p_min = worst_singleton_success(faded)
            factor = (
                fading_budget_factor(p_min, slack=1.5) if adjusted else 1.0
            )
            label = "adjusted" if adjusted else "original"
            cases.append((label, faded, factor))
        for label, model, factor in cases:
            protocol, metrics, verdict = run_case(net, model, factor)
            results[(p_target, label)] = (protocol, verdict)
            rows.append(
                [
                    f"p_min={p_target:.1f}",
                    label,
                    metrics.injected_total,
                    metrics.delivered_count(),
                    protocol.potential.total_failures,
                    f"{metrics.mean_queue():.1f}",
                    verdict.stable,
                ]
            )
    print_experiment(
        "X4b",
        "Rayleigh fading: budgets scaled by slack/p_min restore stability "
        "(linear-power SINR, decay scheduler, tight frames)",
        ["fading", "budget", "injected", "delivered", "failures",
         "tail queue", "stable"],
        rows,
    )
    return results


def test_x4_rayleigh_fading(benchmark):
    results = once(benchmark, run_experiment)
    for p_target in (0.7, 0.5):
        crisp_protocol, crisp_verdict = results[(p_target, "crisp")]
        raw_protocol, raw_verdict = results[(p_target, "original")]
        adj_protocol, adj_verdict = results[(p_target, "adjusted")]
        assert crisp_verdict.stable
        assert adj_verdict.stable
        # Fading must cost something on the unadjusted budget, and the
        # adjustment must not make things worse.
        assert (
            raw_protocol.potential.total_failures
            >= crisp_protocol.potential.total_failures
        )
        assert (
            adj_protocol.potential.total_failures
            <= raw_protocol.potential.total_failures
        )
    # The heavy-fading case must actually bite under the original
    # budget: strictly more failures than the fade-free run.
    heavy_raw, _ = results[(0.5, "original")]
    heavy_crisp, _ = results[(0.5, "crisp")]
    assert (
        heavy_raw.potential.total_failures
        > heavy_crisp.potential.total_failures
    )
