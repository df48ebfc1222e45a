"""Value distributions for synthetic data generation.

All distributions draw their randomness from a
:class:`~repro.crypto.rng.RandomSource`, so a seeded source makes every
generated workload bit-for-bit reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.crypto.rng import RandomSource


class Distribution(ABC):
    """A sampler over some value domain."""

    @abstractmethod
    def sample(self, rng: RandomSource):
        """Draw one value."""

    def sample_many(self, rng: RandomSource, count: int) -> list:
        """Draw ``count`` values."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.sample(rng) for _ in range(count)]


class CategoricalDistribution(Distribution):
    """Samples from explicit categories with given probabilities.

    This is the distribution the hospital workload uses for patient flows
    (0.2 / 0.3 / 0.5) and outcomes (0.08 / 0.92).
    """

    def __init__(self, categories: Sequence, probabilities: Sequence[float]) -> None:
        if len(categories) != len(probabilities):
            raise ValueError("categories and probabilities must have equal length")
        if not categories:
            raise ValueError("need at least one category")
        total = float(sum(probabilities))
        if total <= 0:
            raise ValueError("probabilities must sum to a positive value")
        if any(p < 0 for p in probabilities):
            raise ValueError("probabilities must be non-negative")
        self._categories = list(categories)
        self._weights = [p / total for p in probabilities]

    @property
    def categories(self) -> list:
        """The category values."""
        return list(self._categories)

    @property
    def probabilities(self) -> list[float]:
        """The normalized probabilities."""
        return list(self._weights)

    def sample(self, rng: RandomSource):
        """Draw one category."""
        return self._categories[rng.sample_distribution(self._weights)]


class UniformIntDistribution(Distribution):
    """Uniform integers over an inclusive range."""

    def __init__(self, low: int, high: int) -> None:
        if high < low:
            raise ValueError("high must not be smaller than low")
        self._low = low
        self._high = high

    def sample(self, rng: RandomSource) -> int:
        """Draw one integer."""
        return rng.randint(self._low, self._high)


class ZipfDistribution(Distribution):
    """Zipf-distributed ranks over ``{1, ..., n}`` mapped onto given values.

    Skewed value popularity is the realistic regime for attribute values
    (departments, diagnoses, cities); the employee workload uses it to
    produce both hot and cold query values.
    """

    def __init__(self, values: Sequence, exponent: float = 1.0) -> None:
        if not values:
            raise ValueError("need at least one value")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        weights = [1.0 / ((rank + 1) ** exponent) for rank in range(len(values))]
        self._categorical = CategoricalDistribution(list(values), weights)

    def sample(self, rng: RandomSource):
        """Draw one value with Zipf-skewed popularity."""
        return self._categorical.sample(rng)
