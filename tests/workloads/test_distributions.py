"""Distribution-level properties: tail mass, normalization, determinism.

`tests/workloads/test_workloads.py` checks the distributions inside the
hospital workload; these tests pin the statistical contracts that the
employee workload's skewed departments, the cluster smoke test's zipfian
burst and the cache tier's hot-key assumption lean on.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.crypto.rng import DeterministicRng
from repro.workloads.distributions import (
    CategoricalDistribution,
    ZipfDistribution,
)

DRAWS = 4000


def _frequencies(distribution, seed: int = 7, draws: int = DRAWS) -> Counter:
    rng = DeterministicRng(seed)
    return Counter(distribution.sample_many(rng, draws))


class TestZipfTailMass:
    def test_head_mass_matches_the_analytical_weights(self):
        # With exponent 1.0 over 10 ranks, rank 0's share is
        # 1 / sum(1/(r+1)) = 1/H_10 ~ 0.3414.
        values = list(range(10))
        harmonic = sum(1.0 / (rank + 1) for rank in range(10))
        expected_head = 1.0 / harmonic
        counts = _frequencies(ZipfDistribution(values, exponent=1.0))
        assert counts[0] / DRAWS == pytest.approx(expected_head, abs=0.04)

    def test_tail_mass_shrinks_as_the_exponent_grows(self):
        values = list(range(50))
        tail = set(values[10:])

        def tail_share(exponent: float) -> float:
            counts = _frequencies(ZipfDistribution(values, exponent=exponent))
            return sum(counts[v] for v in tail) / DRAWS

        flat, skewed, extreme = tail_share(0.5), tail_share(1.1), tail_share(2.0)
        assert flat > skewed > extreme
        # Exponent >= 1.1 is the regime the cache tier targets: the top-10
        # keys of 50 carry roughly 70% of the traffic, and by exponent 2
        # the tail has all but vanished.
        assert skewed < 0.35
        assert extreme < 0.08

    def test_exponent_zero_is_uniform(self):
        counts = _frequencies(ZipfDistribution(["a", "b", "c", "d"], exponent=0.0))
        for value in "abcd":
            assert counts[value] / DRAWS == pytest.approx(0.25, abs=0.04)


class TestCategoricalValidation:
    def test_probabilities_are_normalized(self):
        dist = CategoricalDistribution(["a", "b"], [2.0, 6.0])
        assert dist.probabilities == pytest.approx([0.25, 0.75])
        assert sum(dist.probabilities) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            CategoricalDistribution(["a", "b", "c"], [0.5, 0.5])

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="at least one category"):
            CategoricalDistribution([], [])

    def test_zero_total_mass_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CategoricalDistribution(["a"], [0.0])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CategoricalDistribution(["a", "b"], [1.5, -0.5])


class TestDeterministicSampling:
    def test_same_seed_replays_the_same_sequence(self):
        dist = ZipfDistribution(list(range(32)), exponent=1.1)
        first = dist.sample_many(DeterministicRng(42), 200)
        second = dist.sample_many(DeterministicRng(42), 200)
        assert first == second

    def test_different_seeds_diverge(self):
        dist = ZipfDistribution(list(range(32)), exponent=1.1)
        assert dist.sample_many(DeterministicRng(1), 200) != dist.sample_many(
            DeterministicRng(2), 200
        )

    def test_categorical_is_deterministic_too(self):
        dist = CategoricalDistribution(["x", "y", "z"], [0.2, 0.3, 0.5])
        assert dist.sample_many(DeterministicRng(9), 100) == dist.sample_many(
            DeterministicRng(9), 100
        )
