"""Algorithm 1 (Section 3): the dense-instance transformation."""

import math

import numpy as np
import pytest

from repro.core.transform import TransformedAlgorithm, paper_chi
from repro.errors import ConfigurationError, SchedulingError
from repro.staticsched.decay import DecayScheduler


def dense_requests(model, n, seed, links=4):
    """n requests concentrated on a few links — the dense regime."""
    rng = np.random.default_rng(seed)
    pool = list(rng.choice(model.num_links, size=min(links, model.num_links),
                           replace=False))
    return [int(pool[i % len(pool)]) for i in range(n)]


@pytest.fixture(scope="module")
def transformed(sinr_model_module):
    return TransformedAlgorithm(
        DecayScheduler(), m=sinr_model_module.network.size_m, chi_scale=0.1
    )


@pytest.fixture(scope="module")
def sinr_model_module():
    from repro.network.topology import random_sinr_network
    from repro.sinr.weights import linear_power_model

    net = random_sinr_network(15, rng=7)
    return linear_power_model(net, alpha=3.0, beta=1.0, noise=0.05)


def test_paper_chi_value():
    assert paper_chi(10) == pytest.approx(6.0 * (math.log(10) + 9.0))
    assert paper_chi(10, chi_scale=0.5) == pytest.approx(
        3.0 * (math.log(10) + 9.0)
    )


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        TransformedAlgorithm(DecayScheduler(), m=0)
    with pytest.raises(ConfigurationError):
        TransformedAlgorithm(DecayScheduler(), m=5, phi=0.0)


def test_delivers_everything_within_own_budget(transformed, sinr_model_module):
    requests = dense_requests(sinr_model_module, 60, seed=1)
    measure = sinr_model_module.interference_measure(requests)
    budget = transformed.budget_for(measure, len(requests))
    result = transformed.run(sinr_model_module, requests, budget, rng=2)
    assert result.all_delivered


def test_partitions_requests(transformed, sinr_model_module):
    requests = dense_requests(sinr_model_module, 40, seed=3)
    result = transformed.run(sinr_model_module, requests, 10_000, rng=4)
    assert sorted(result.delivered + result.remaining) == list(
        range(len(requests))
    )


def test_empty_requests(transformed, sinr_model_module):
    result = transformed.run(sinr_model_module, [], 100, rng=0)
    assert result.all_delivered
    assert result.slots_used == 0


def test_zero_budget(transformed, sinr_model_module):
    requests = dense_requests(sinr_model_module, 10, seed=5)
    result = transformed.run(sinr_model_module, requests, 0, rng=0)
    assert result.delivered == []


def test_negative_budget_rejected(transformed, sinr_model_module):
    with pytest.raises(SchedulingError):
        transformed.run(sinr_model_module, [0], -5, rng=0)


def test_deterministic_under_seed(transformed, sinr_model_module):
    requests = dense_requests(sinr_model_module, 30, seed=6)
    a = transformed.run(sinr_model_module, requests, 50_000, rng=8)
    b = transformed.run(sinr_model_module, requests, 50_000, rng=8)
    assert a.delivered == b.delivered
    assert a.slots_used == b.slots_used


def test_network_bound_multiplicative_independent_of_n(transformed):
    bound = transformed.network_bound(15)
    f = bound.f(15)
    assert f > 0
    # g grows sub-linearly: doubling n far less than doubles g for large n.
    g1 = bound.g(15, 10_000)
    g2 = bound.g(15, 20_000)
    assert g2 < 2 * g1


def test_budget_scales_linearly_in_measure_for_dense_instances(transformed):
    """The transformation's whole point: budget ~ f(m) I + o(I)."""
    n = 5000
    b1 = transformed.budget_for(100.0, n)
    b2 = transformed.budget_for(200.0, n)
    b4 = transformed.budget_for(400.0, n)
    # Increments should be roughly proportional to the measure increments.
    inc1 = b2 - b1
    inc2 = b4 - b2
    assert inc2 == pytest.approx(2 * inc1, rel=0.35)


def test_transformed_budget_growth_in_n_is_subdominant():
    """Theorem 1's point: at fixed I, growing n inflates the base budget
    multiplicatively (O(I log n)) but the transformed budget only through
    the sub-linear additive term."""
    base = DecayScheduler()
    transformed = TransformedAlgorithm(base, m=20, chi_scale=0.2)
    measure = 10_000.0
    n_small, n_large = 1_000, 1_000_000
    base_growth = base.budget_for(measure, n_large) / base.budget_for(
        measure, n_small
    )
    transformed_growth = transformed.budget_for(
        measure, n_large
    ) / transformed.budget_for(measure, n_small)
    # Base budget doubles (ln 1e6 / ln 1e3 = 2); transformed barely moves.
    assert base_growth > 1.8
    assert transformed_growth < base_growth / 1.3


def test_actual_slots_shrink_versus_base(sinr_model_module):
    """Measured (not budgeted) slots: transformed stays near-linear in I."""
    base = DecayScheduler()
    transformed = TransformedAlgorithm(
        base, m=sinr_model_module.network.size_m, chi_scale=0.1
    )
    requests = dense_requests(sinr_model_module, 120, seed=9)
    measure = sinr_model_module.interference_measure(requests)
    generous = 10 * base.budget_for(measure, len(requests))
    base_run = base.run(sinr_model_module, requests, generous, rng=10)
    trans_run = transformed.run(sinr_model_module, requests, generous, rng=10)
    assert base_run.all_delivered and trans_run.all_delivered
    assert trans_run.slots_used <= base_run.slots_used * 1.5


def test_charge_reserved_accounting(sinr_model_module):
    requests = dense_requests(sinr_model_module, 30, seed=11)
    m = sinr_model_module.network.size_m
    lean = TransformedAlgorithm(DecayScheduler(), m=m, chi_scale=0.1)
    padded = TransformedAlgorithm(
        DecayScheduler(), m=m, chi_scale=0.1, charge_reserved=True
    )
    lean_run = lean.run(sinr_model_module, requests, 10**9, rng=12)
    padded_run = padded.run(sinr_model_module, requests, 10**9, rng=12)
    assert padded_run.slots_used >= lean_run.slots_used
    assert lean_run.delivered == padded_run.delivered


def test_history_consistent_with_model(transformed, sinr_model_module):
    requests = dense_requests(sinr_model_module, 25, seed=13)
    result = transformed.run(
        sinr_model_module, requests, 100_000, rng=14, record_history=True
    )
    for record in result.history:
        assert set(record.succeeded) == sinr_model_module.successes(
            list(record.attempted)
        )


def test_name_mentions_base():
    algorithm = TransformedAlgorithm(DecayScheduler(), m=5)
    assert "decay" in algorithm.name


def _base_slots(transformed, model, requests, budget, seed):
    """Run through the step seam; return the result and the slots the
    base algorithm spent across all of its sub-runs."""
    steps = transformed.run_steps(
        model, requests, budget, np.random.default_rng(seed)
    )
    spent = 0
    try:
        call = next(steps)
        while True:
            result = call.execute()
            spent += result.slots_used
            call = steps.send(result)
    except StopIteration as stop:
        return stop.value, spent


def _overloaded(model, n=400, seed=0):
    rng = np.random.default_rng(seed)
    return [int(e) for e in rng.integers(0, model.num_links, size=n)]


def test_sub_runs_never_exceed_a_one_slot_budget(sinr_model_module):
    """A budget of one slot buys one slot of the base, not a full
    class window credited as one slot."""
    requests = _overloaded(sinr_model_module)
    transformed = TransformedAlgorithm(
        DecayScheduler(), m=sinr_model_module.network.size_m
    )
    result, spent = _base_slots(
        transformed, sinr_model_module, requests, 1, seed=1
    )
    assert spent <= 1
    assert result.slots_used <= 1
    assert len(result.delivered) <= 1
    assert len(result.delivered) + len(result.remaining) == len(requests)


def test_charge_reserved_sub_runs_stay_within_budget(sinr_model_module):
    requests = _overloaded(sinr_model_module)
    transformed = TransformedAlgorithm(
        DecayScheduler(), m=sinr_model_module.network.size_m,
        charge_reserved=True,
    )
    for budget in (1, 7, 50):
        result, spent = _base_slots(
            transformed, sinr_model_module, requests, budget, seed=2
        )
        assert spent <= budget
        assert result.slots_used <= budget
        assert len(result.delivered) < len(requests)
        assert sorted(result.delivered + result.remaining) == list(
            range(len(requests))
        )
