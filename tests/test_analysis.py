"""Fitting, bounds, and table formatting."""

import math

import numpy as np
import pytest

from repro.analysis.bounds import (
    chernoff_upper_tail,
    claim5_overload_probability,
    lemma6_drain_probability,
)
from repro.analysis.fitting import (
    fit_affine,
    fit_power_law,
    growth_exponent,
    log_growth_exponent,
)
from repro.analysis.tables import format_table
from repro.errors import ConfigurationError


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------


def test_fit_affine_exact_line():
    fit = fit_affine([0, 1, 2, 3], [1, 3, 5, 7])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.predict(10) == pytest.approx(21.0)


def test_fit_affine_noise_reduces_r2(rng):
    x = np.arange(50, dtype=float)
    y = 2 * x + rng.normal(0, 20, size=50)
    fit = fit_affine(x, y)
    assert 0.0 < fit.r_squared < 1.0
    assert fit.slope == pytest.approx(2.0, abs=0.8)


def test_fit_affine_validation():
    with pytest.raises(ConfigurationError):
        fit_affine([1], [2])
    with pytest.raises(ConfigurationError):
        fit_affine([1, 1], [2, 3])
    with pytest.raises(ConfigurationError):
        fit_affine([1, 2], [2, 3, 4])


def test_fit_power_law_recovers_exponent():
    x = np.array([1, 2, 4, 8, 16], dtype=float)
    y = 3.0 * x**1.7
    fit = fit_power_law(x, y)
    assert fit.slope == pytest.approx(1.7)
    assert math.exp(fit.intercept) == pytest.approx(3.0)


def test_fit_power_law_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        fit_power_law([1, 0], [1, 1])


def test_growth_exponent_flat_vs_linear():
    x = [10, 100, 1000]
    assert growth_exponent(x, [5, 5.1, 5.05]) == pytest.approx(0.0, abs=0.05)
    assert growth_exponent(x, [10, 100, 1000]) == pytest.approx(1.0)


def test_log_growth_exponent_quadratic_log():
    ms = [16, 64, 256, 1024, 4096]
    ratios = [math.log(m) ** 2 for m in ms]
    assert log_growth_exponent(ms, ratios) == pytest.approx(2.0, abs=0.05)


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------


def test_chernoff_upper_tail_basic_properties():
    assert chernoff_upper_tail(10.0, 10.0) == 1.0
    assert chernoff_upper_tail(10.0, 5.0) == 1.0  # below-mean: trivial
    p20 = chernoff_upper_tail(10.0, 20.0)
    p30 = chernoff_upper_tail(10.0, 30.0)
    assert 0.0 < p30 < p20 < 1.0


def test_chernoff_zero_mean():
    assert chernoff_upper_tail(0.0, 1.0) == 0.0
    assert chernoff_upper_tail(0.0, 0.0) == 1.0


def test_chernoff_matches_closed_form():
    mean, threshold = 5.0, 10.0
    delta = 1.0
    expected = (math.e / 4.0) ** mean  # (e^1 / 2^2)^mean
    assert chernoff_upper_tail(mean, threshold) == pytest.approx(expected)


def test_claim5_decreases_with_frame_length():
    p_small = claim5_overload_probability(10, 0.01, 1000, delta=0.5)
    p_large = claim5_overload_probability(10, 0.01, 10_000, delta=0.5)
    assert p_large < p_small


def test_claim5_capped_at_one():
    assert claim5_overload_probability(10**6, 0.5, 2, delta=0.01) == 1.0


def test_lemma6_value():
    assert lemma6_drain_probability(1) == pytest.approx(1.0 / (2 * math.e))
    assert lemma6_drain_probability(10) == pytest.approx(
        1.0 / (20 * math.e)
    )
    with pytest.raises(ConfigurationError):
        lemma6_drain_probability(0)


def test_empirical_drain_beats_lemma6():
    """Simulated clean-up drain frequency must respect the 1/(2em) floor."""
    import numpy as np

    from repro.core.frames import FrameParameters
    from repro.core.protocol import DynamicProtocol
    from repro.injection.store import PacketStore
    from repro.interference.packet_routing import PacketRoutingModel
    from repro.network.topology import line_network
    from repro.staticsched.single_hop import SingleHopScheduler

    net = line_network(4)
    model = PacketRoutingModel(net)
    params = FrameParameters(
        frame_length=10, phase1_budget=0, cleanup_budget=5,
        measure_budget=1.0, epsilon=0.5, rate=0.1, f_m=1.0, m=net.size_m,
    )
    store = PacketStore()
    protocol = DynamicProtocol(
        model, SingleHopScheduler(), rate=0.1, params=params, rng=0,
        store=store,
    )
    # Load 30 one-hop packets; phase 1 always fails them into buffers.
    protocol.run_frame([store.allocate((0,), 0) for _ in range(30)])
    frames = 400
    for _ in range(frames):
        protocol.run_frame([])
        if protocol.potential.value == 0:
            break
    drained = protocol.potential.total_cleanup_hops
    floor = lemma6_drain_probability(net.size_m)
    # Expected drains >= frames * floor; allow statistical slack.
    assert drained >= 0.3 * frames * floor


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


def test_format_table_alignment():
    text = format_table(
        ["name", "value"],
        [["alpha", 1.5], ["b", 22]],
        title="demo",
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1]
    assert set(lines[2].replace(" ", "")) == {"-"}
    assert "alpha" in lines[3]


def test_format_table_number_formatting():
    text = format_table(["x"], [[0.000123], [1234567.0], [True], [0.0]])
    assert "0.000123" in text
    assert "1.23e+06" in text
    assert "yes" in text
