"""The exact SINR model."""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.network.network import Network
from repro.network.topology import line_network, random_sinr_network
from repro.sinr.model import SinrModel
from repro.sinr.power import LinearPower, PowerAssignment, UniformPower


def distant_pair():
    """Two unit links 100 apart: mutually harmless."""
    points = [Point(0, 0), Point(1, 0), Point(100, 0), Point(101, 0)]
    return Network(4, [(0, 1), (2, 3)], positions=points)


def close_pair():
    """Two unit links 0.5 apart: mutually destructive under uniform power.

    Signal is 1 (unit length); interference comes from sqrt(1 + 0.25)
    away, i.e. 1 / 1.118**3 ~ 0.716, so the SINR ~ 1.40 < beta = 2.
    """
    points = [Point(0, 0), Point(1, 0), Point(0, 0.5), Point(1, 0.5)]
    return Network(4, [(0, 1), (2, 3)], positions=points)


def test_singletons_succeed():
    model = SinrModel(distant_pair(), alpha=3.0, beta=1.0, noise=0.1)
    model.check_all_singletons()


def test_distant_links_coexist():
    model = SinrModel(distant_pair(), alpha=3.0, beta=1.0, noise=0.0)
    assert model.successes([0, 1]) == {0, 1}


def test_close_links_collide():
    model = SinrModel(close_pair(), alpha=3.0, beta=2.0, noise=0.0)
    # Interference from 1.5-1.8 away vs signal from distance 1; beta=2
    # makes the SINR fail both ways.
    assert model.successes([0, 1]) == set()
    assert model.successes([0]) == {0}


def test_sinr_value_computation():
    model = SinrModel(distant_pair(), alpha=2.0, beta=1.0, noise=0.5)
    # Alone: SINR = (1/1) / 0.5 = 2.
    assert model.sinr(0, [0]) == pytest.approx(2.0)


def test_sinr_infinite_without_noise_or_interference():
    model = SinrModel(distant_pair(), alpha=2.0, beta=1.0, noise=0.0)
    assert model.sinr(0, [0]) == float("inf")


def test_sinr_requires_member_link():
    model = SinrModel(distant_pair(), alpha=2.0, beta=1.0, noise=0.0)
    with pytest.raises(ConfigurationError):
        model.sinr(1, [0])


def test_noise_threshold_matters():
    net = distant_pair()
    quiet = SinrModel(net, alpha=2.0, beta=1.0, noise=0.5)
    loud = SinrModel(net, alpha=2.0, beta=3.0, noise=0.5)
    assert quiet.singleton_succeeds(0)
    assert not loud.singleton_succeeds(0)  # 1/0.5 = 2 < 3


def test_successes_with_powers_overrides_assignment():
    net = close_pair()
    model = SinrModel(net, alpha=3.0, beta=2.0, noise=0.0)
    # Default uniform powers collide (see above); a huge asymmetry saves
    # link 0.
    winners = model.successes_with_powers([0, 1], [1000.0, 1.0])
    assert 0 in winners
    assert 1 not in winners


def test_successes_with_powers_validates():
    model = SinrModel(distant_pair(), alpha=3.0, beta=1.0, noise=0.0)
    with pytest.raises(ConfigurationError):
        model.successes_with_powers([0, 1], [1.0])
    with pytest.raises(ConfigurationError):
        model.successes_with_powers([0], [0.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_successes_with_powers_rejects_non_finite(bad):
    model = SinrModel(distant_pair(), alpha=3.0, beta=1.0, noise=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="finite"):
            model.successes_with_powers([0, 1], [1.0, bad])


class _FixedPower(PowerAssignment):
    """Returns the given vector unchecked (as a faulty assignment could)."""

    def __init__(self, powers):
        self._powers = np.asarray(powers, dtype=float)

    def powers(self, network, alpha):
        return self._powers

    def describe(self):
        return "fixed"


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
def test_model_rejects_bad_assigned_powers(bad):
    with pytest.raises(ConfigurationError, match="non-finite"):
        SinrModel(distant_pair(), alpha=3.0, beta=1.0, noise=0.0,
                  power=_FixedPower([1.0, bad]))


def test_requires_geometry():
    bare = Network(3, [(0, 1), (1, 2)])
    with pytest.raises(ConfigurationError):
        SinrModel(bare)


def test_parameter_validation():
    net = distant_pair()
    with pytest.raises(ConfigurationError):
        SinrModel(net, alpha=-1.0)
    with pytest.raises(ConfigurationError):
        SinrModel(net, beta=0.0)
    with pytest.raises(ConfigurationError):
        SinrModel(net, noise=-0.1)


def test_default_weight_matrix_is_affectance_transpose():
    from repro.sinr.affectance import affectance_matrix

    net = random_sinr_network(12, rng=9)
    model = SinrModel(net, alpha=3.0, beta=1.0, noise=0.05,
                      power=LinearPower())
    affect = affectance_matrix(
        net, np.asarray(model.powers), 3.0, 1.0, 0.05
    )
    assert np.allclose(model.weight_matrix(), affect.T)


def test_powers_view_read_only():
    model = SinrModel(distant_pair(), alpha=3.0, beta=1.0, noise=0.0)
    with pytest.raises(ValueError):
        model.powers[0] = 99.0


def test_monotone_success_under_shrinking_sets():
    """Removing transmitters never hurts a surviving link."""
    net = random_sinr_network(15, rng=21)
    model = SinrModel(net, alpha=3.5, beta=1.0, noise=0.01,
                      power=LinearPower())
    rng = np.random.default_rng(4)
    links = list(rng.choice(net.num_links, size=6, replace=False))
    winners = model.successes(links)
    for drop in links:
        smaller = [e for e in links if e != drop]
        smaller_winners = model.successes(smaller)
        # Anyone who won in the bigger set and still transmits must win.
        assert (winners - {drop}) <= smaller_winners


def test_signal_strengths_match_singleton_sinr():
    """signal_strengths()[l] / noise equals the lone-transmission SINR."""
    net = random_sinr_network(10, rng=8)
    noise = 0.03
    model = SinrModel(net, alpha=3.0, beta=1.0, noise=noise,
                      power=LinearPower())
    signals = model.signal_strengths()
    assert (signals > 0).all()
    for link in (0, net.num_links // 2, net.num_links - 1):
        assert signals[link] / noise == pytest.approx(
            model.sinr(link, [link])
        )
