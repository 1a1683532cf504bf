"""Tests for the Markov-modulated and Poisson-batch injection extensions."""

from __future__ import annotations

import json
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InjectionError
from repro.injection import markov
from repro.injection.markov import (
    MarkovModulatedInjection,
    PoissonBatchInjection,
    empirical_usage,
)
from repro.injection.stochastic import PathGenerator

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference_loops  # noqa: E402
from reference_loops import MarkovReference  # noqa: E402


def two_generators():
    return [
        PathGenerator([((0,), 0.4), ((0, 1), 0.3)]),
        PathGenerator([((1,), 0.5)]),
    ]


class TestMarkovModulatedConstruction:
    def test_requires_generators(self):
        with pytest.raises(InjectionError):
            MarkovModulatedInjection([], 0.5, 0.5, rng=0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_bad_p_on_off(self, bad):
        with pytest.raises(ConfigurationError):
            MarkovModulatedInjection(two_generators(), bad, 0.5, rng=0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_bad_p_off_on(self, bad):
        with pytest.raises(ConfigurationError):
            MarkovModulatedInjection(two_generators(), 0.5, bad, rng=0)

    def test_stationary_probability(self):
        process = MarkovModulatedInjection(two_generators(), 0.25, 0.75, rng=0)
        assert process.stationary_on_probability == pytest.approx(0.75)

    def test_mean_burst_length(self):
        process = MarkovModulatedInjection(two_generators(), 0.1, 0.5, rng=0)
        assert process.mean_burst_length == pytest.approx(10.0)


class TestMarkovModulatedBehaviour:
    def test_mean_usage_scales_by_stationary_on(self):
        generators = two_generators()
        process = MarkovModulatedInjection(generators, 0.5, 0.5, rng=0)
        always_on = sum(g.mean_usage(2) for g in generators)
        np.testing.assert_allclose(process.mean_usage(2), 0.5 * always_on)

    def test_slots_must_be_queried_in_order(self):
        process = MarkovModulatedInjection(two_generators(), 0.5, 0.5, rng=0)
        process.packets_for_slot(0)
        with pytest.raises(InjectionError):
            process.packets_for_slot(5)

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            process = MarkovModulatedInjection(two_generators(), 0.3, 0.3, rng=11)
            runs.append(
                [
                    tuple(p.path)
                    for slot in range(50)
                    for p in process.packets_for_slot(slot)
                ]
            )
        assert runs[0] == runs[1]

    def test_empirical_usage_matches_stationary_mean(self):
        generators = two_generators()
        process = MarkovModulatedInjection(generators, 0.4, 0.4, rng=3)
        measured = empirical_usage(process, 2, horizon=20000)
        expected = MarkovModulatedInjection(
            generators, 0.4, 0.4, rng=3
        ).mean_usage(2)
        np.testing.assert_allclose(measured, expected, atol=0.05)

    def test_injection_rate_uses_model_norm(self, mac_model):
        generators = [PathGenerator([((0,), 0.2)]), PathGenerator([((1,), 0.2)])]
        process = MarkovModulatedInjection(generators, 0.5, 0.5, rng=0)
        # MAC: W is all-ones, so lambda = total mean usage = 0.5 * 0.4.
        assert process.injection_rate(mac_model) == pytest.approx(0.2)

    @staticmethod
    def _slot_counts(process, horizon):
        indices = process.indices_for_range(0, horizon)
        injected_at = process.store.injected_at[indices]
        return np.bincount(injected_at, minlength=horizon).astype(float)

    def test_burstiness_shows_in_autocovariance(self):
        """Long ON bursts: arrivals in adjacent slots correlate positively."""
        generators = [PathGenerator([((0,), 1.0)])]
        process = MarkovModulatedInjection(generators, 0.02, 0.02, rng=5)
        counts = self._slot_counts(process, 20000)
        centred = counts - counts.mean()
        autocov = float(np.mean(centred[:-1] * centred[1:]))
        assert autocov > 0.1

    def test_iid_limit_has_no_autocovariance(self):
        """p_on_off = p_off_on = 1 flips every slot: near-zero correlation."""
        generators = [PathGenerator([((0,), 1.0)])]
        process = MarkovModulatedInjection(generators, 1.0, 1.0, rng=5)
        counts = self._slot_counts(process, 20000)
        centred = counts - counts.mean()
        autocov = float(np.mean(centred[:-1] * centred[1:]))
        # Deterministic alternation gives *negative* correlation; the
        # point is only that there is no bursty positive clustering.
        assert autocov < 0.05

    def test_at_most_one_packet_per_generator_per_slot(self):
        process = MarkovModulatedInjection(two_generators(), 0.5, 0.5, rng=9)
        for slot in range(500):
            packets = process.packets_for_slot(slot)
            assert len(packets) <= 2


class TestMarkovStateValidation:
    def _state(self, **changes):
        state = MarkovModulatedInjection(
            two_generators(), 0.5, 0.5, rng=0
        ).state_dict()
        state.update(changes)
        return state

    def test_missing_next_slot_is_a_configuration_error(self):
        process = MarkovModulatedInjection(two_generators(), 0.5, 0.5, rng=1)
        state = self._state()
        del state["next_slot"]
        with pytest.raises(ConfigurationError, match="next_slot"):
            process.load_state_dict(state)

    def test_non_boolean_chain_state_is_a_configuration_error(self):
        process = MarkovModulatedInjection(two_generators(), 0.5, 0.5, rng=1)
        with pytest.raises(ConfigurationError, match="booleans"):
            process.load_state_dict(self._state(states=["no", True]))

    def test_negative_next_slot_is_a_configuration_error(self):
        process = MarkovModulatedInjection(two_generators(), 0.5, 0.5, rng=1)
        with pytest.raises(ConfigurationError, match="next_slot"):
            process.load_state_dict(self._state(next_slot=-5))

    def test_rejected_state_leaves_the_process_untouched(self):
        process = MarkovModulatedInjection(two_generators(), 0.5, 0.5, rng=1)
        process.indices_for_range(0, 10)
        before = process.state_dict()
        with pytest.raises(ConfigurationError):
            process.load_state_dict(self._state(next_slot=-5))
        assert process.state_dict() == before


@st.composite
def path_generators(draw):
    """A generator with 0-5 paths; zero weights and sub-unit mass included."""
    count = draw(st.integers(min_value=0, max_value=5))
    weights = draw(
        st.lists(
            st.sampled_from([0.0]) | st.floats(min_value=0.0, max_value=1.0),
            min_size=count,
            max_size=count,
        )
    )
    mass = draw(st.sampled_from([1.0]) | st.floats(0.0, 1.0))
    total = sum(weights)
    probabilities = [w / total * mass for w in weights] if total else weights
    paths = [
        tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=4)))
        for _ in range(count)
    ]
    return PathGenerator(list(zip(paths, probabilities)))


switching = st.sampled_from([1.0]) | st.floats(min_value=1e-3, max_value=1.0)


def _store_arrays(store):
    return [
        store.injected_at.tolist(),
        store.offsets.tolist(),
        store.path_links.tolist(),
    ]


class _GridStream:
    """A stand-in generator whose uniforms lie on a 1/8 grid.

    It serves ``random()`` (scalar, sized and ``out=``) from a fixed
    sequence and exposes its cursor as ``bit_generator.state``, which
    is all the range sampler and the reference loop use.
    """

    def __init__(self, seed: int):
        values = np.random.default_rng(seed).integers(0, 8, size=4096)
        self._values = values / 8.0
        self._cursor = 0
        self.bit_generator = self

    @property
    def state(self):
        return {"cursor": self._cursor}

    @state.setter
    def state(self, value):
        self._cursor = value["cursor"]

    def random(self, size=None, out=None):
        count = out.size if out is not None else (size or 1)
        chunk = self._values[self._cursor : self._cursor + count]
        self._cursor += count
        if out is not None:
            out[...] = chunk
            return out
        return float(chunk[0]) if size is None else chunk.copy()


def _grid_streams(seed, count):
    return [_GridStream(seed * 100 + index) for index in range(count)]


class TestMarkovRangeSamplerAgainstReference:
    """The range sampler against the literal per-slot loop."""

    @given(
        generators=st.lists(path_generators(), min_size=1, max_size=4),
        p_on_off=switching,
        p_off_on=switching,
        seed=st.integers(min_value=0, max_value=2**16),
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=8),
        slot_calls=st.booleans(),
        block=st.sampled_from([1, 3, 1 << 14]),
        resume_after=st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_slot_loop(
        self, generators, p_on_off, p_off_on, seed, lengths, slot_calls,
        block, resume_after,
    ):
        process = MarkovModulatedInjection(
            generators, p_on_off, p_off_on, rng=seed
        )
        oracle = MarkovReference(generators, p_on_off, p_off_on, rng=seed)
        assert process.state_dict() == oracle.state_dict()
        start = 0
        with mock.patch.object(markov, "_BLOCK_SLOTS", block):
            for call, length in enumerate(lengths):
                if call == resume_after:
                    # Resume mid-stream on a fresh process sharing the store.
                    state = json.loads(json.dumps(process.state_dict()))
                    process = MarkovModulatedInjection(
                        generators, p_on_off, p_off_on, rng=seed + 1,
                        store=process.store,
                    )
                    process.load_state_dict(state)
                end = start + length
                if slot_calls and length == 1:
                    got = process.indices_for_slot(start)
                else:
                    got = process.indices_for_range(start, end).tolist()
                assert got == oracle.indices_for_range(start, end)
                assert process.state_dict() == oracle.state_dict()
                start = end
        assert _store_arrays(process.store) == _store_arrays(oracle.store)

    @pytest.mark.parametrize("p_on_off", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("p_off_on", [0.125, 0.5])
    def test_ties_between_draws_and_thresholds(self, p_on_off, p_off_on):
        """Draws on a 1/8 grid hit every threshold and cumulative mass
        exactly, so each ``<`` / ``>=`` / side="right" choice shows."""
        generators = [
            PathGenerator(
                [((0,), 0.25), ((1,), 0.0), ((2,), 0.25), ((3,), 0.25)]
            ),
            PathGenerator([((4,), 0.5), ((5,), 0.5)]),
        ]
        with mock.patch.object(markov, "spawn_rngs", _grid_streams):
            process = MarkovModulatedInjection(
                generators, p_on_off, p_off_on, rng=3
            )
        with mock.patch.object(reference_loops, "spawn_rngs", _grid_streams):
            oracle = MarkovReference(generators, p_on_off, p_off_on, rng=3)
        got = [process.indices_for_range(0, 40).tolist()]
        got.append(process.indices_for_slot(40))
        got.append(process.indices_for_range(41, 300).tolist())
        expected = [
            oracle.indices_for_range(0, 40),
            oracle.indices_for_slot(40),
            oracle.indices_for_range(41, 300),
        ]
        assert got == expected
        assert process.state_dict()["states"] == oracle.states
        assert _store_arrays(process.store) == _store_arrays(oracle.store)

    def test_ranges_longer_than_a_block(self):
        generators = two_generators()
        process = MarkovModulatedInjection(generators, 0.05, 0.3, rng=4)
        oracle = MarkovReference(generators, 0.05, 0.3, rng=4)
        with mock.patch.object(markov, "_BLOCK_SLOTS", 97):
            got = process.indices_for_range(0, 1000).tolist()
        assert got == oracle.indices_for_range(0, 1000)
        assert process.state_dict() == oracle.state_dict()
        assert _store_arrays(process.store) == _store_arrays(oracle.store)

    def test_range_must_start_at_the_cursor(self):
        process = MarkovModulatedInjection(two_generators(), 0.5, 0.5, rng=0)
        process.indices_for_range(0, 10)
        with pytest.raises(InjectionError, match="expected slot 10, got 9"):
            process.indices_for_range(9, 20)
        assert process.indices_for_range(3, 3).size == 0

    def test_empirical_usage_is_the_per_slot_usage(self):
        generators = two_generators()
        process = MarkovModulatedInjection(generators, 0.3, 0.2, rng=6)
        oracle = MarkovReference(generators, 0.3, 0.2, rng=6)
        expected = np.zeros(2)
        for index in oracle.indices_for_range(0, 3000):
            for link in oracle.store.path_of(index):
                expected[link] += 1.0
        measured = empirical_usage(process, 2, horizon=3000)
        np.testing.assert_array_equal(measured, expected / 3000)


class TestPoissonBatchConstruction:
    def test_rejects_negative_mean(self):
        with pytest.raises(ConfigurationError):
            PoissonBatchInjection([((0,), 1.0)], -1.0, rng=0)

    def test_rejects_non_normalised_distribution(self):
        with pytest.raises(InjectionError):
            PoissonBatchInjection([((0,), 0.4)], 1.0, rng=0)

    def test_rejects_negative_probability(self):
        with pytest.raises(InjectionError):
            PoissonBatchInjection([((0,), 1.5), ((1,), -0.5)], 1.0, rng=0)

    def test_rejects_empty_path(self):
        with pytest.raises(InjectionError):
            PoissonBatchInjection([((), 1.0)], 1.0, rng=0)

    def test_empty_distribution_injects_nothing(self):
        process = PoissonBatchInjection([], 0.0, rng=0)
        assert process.packets_for_slot(0) == []


class TestPoissonBatchBehaviour:
    def test_mean_usage(self):
        process = PoissonBatchInjection(
            [((0,), 0.5), ((0, 1), 0.5)], batch_mean=2.0, rng=0
        )
        np.testing.assert_allclose(process.mean_usage(2), [2.0, 1.0])

    def test_zero_mean_injects_nothing(self):
        process = PoissonBatchInjection([((0,), 1.0)], 0.0, rng=0)
        assert all(process.packets_for_slot(t) == [] for t in range(20))

    def test_batches_can_exceed_one(self):
        process = PoissonBatchInjection([((0,), 1.0)], batch_mean=4.0, rng=1)
        sizes = [len(process.packets_for_slot(t)) for t in range(200)]
        assert max(sizes) > 1

    def test_empirical_usage_matches_mean(self):
        distribution = [((0,), 0.25), ((1,), 0.75)]
        process = PoissonBatchInjection(distribution, batch_mean=1.5, rng=2)
        measured = empirical_usage(process, 2, horizon=20000)
        expected = PoissonBatchInjection(
            distribution, batch_mean=1.5, rng=2
        ).mean_usage(2)
        np.testing.assert_allclose(measured, expected, rtol=0.1)

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            process = PoissonBatchInjection([((0,), 1.0)], 1.0, rng=13)
            runs.append(
                [len(process.packets_for_slot(t)) for t in range(100)]
            )
        assert runs[0] == runs[1]

    def test_paths_drawn_from_distribution(self):
        process = PoissonBatchInjection(
            [((0,), 0.5), ((1,), 0.5)], batch_mean=1.0, rng=3
        )
        seen = set()
        for slot in range(500):
            for packet in process.packets_for_slot(slot):
                seen.add(tuple(packet.path))
        assert seen == {(0,), (1,)}


class TestEmpiricalUsage:
    def test_requires_positive_horizon(self):
        process = PoissonBatchInjection([((0,), 1.0)], 1.0, rng=0)
        with pytest.raises(ConfigurationError):
            empirical_usage(process, 1, horizon=0)

    @given(
        batch_mean=st.floats(min_value=0.1, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_poisson_rate_concentrates(self, batch_mean, seed):
        process = PoissonBatchInjection([((0,), 1.0)], batch_mean, rng=seed)
        measured = empirical_usage(process, 1, horizon=4000)[0]
        # 4000 iid Poisson draws: the mean is within ~5 sigma.
        sigma = np.sqrt(batch_mean / 4000)
        assert abs(measured - batch_mean) < 6 * sigma + 0.01
