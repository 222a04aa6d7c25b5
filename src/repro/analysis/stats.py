"""Small statistics helpers for the experiment harness.

Nothing here is clever: means, standard deviations, Wilson score intervals
for Bernoulli success rates (the quantity most experiments estimate), and
simple geometric summaries.  They are separated out so both the tests and
the benchmarks share one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / float(len(values))


def std(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for fewer than two values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values) / float(len(values)))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 if any value is non-positive)."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / float(len(values)))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(len(ordered) - 1, low + 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class SuccessRate:
    """A Bernoulli success-rate estimate with a Wilson confidence interval."""

    successes: int
    trials: int
    rate: float
    lower: float
    upper: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%d/%d = %.3f [%.3f, %.3f]" % (
            self.successes,
            self.trials,
            self.rate,
            self.lower,
            self.upper,
        )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> SuccessRate:
    """Wilson score interval for a binomial proportion.

    Robust for small trial counts and rates near 0 or 1, which is exactly
    the regime of the success-probability experiments (E1, E3, E7).
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return SuccessRate(0, 0, 0.0, 0.0, 1.0)
    phat = successes / float(trials)
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2.0 * trials)) / denom
    margin = (
        z
        * math.sqrt((phat * (1.0 - phat) + z * z / (4.0 * trials)) / trials)
        / denom
    )
    return SuccessRate(
        successes=successes,
        trials=trials,
        rate=phat,
        lower=max(0.0, centre - margin),
        upper=min(1.0, centre + margin),
    )


def success_rate(outcomes: Iterable[bool], z: float = 1.96) -> SuccessRate:
    """Wilson interval straight from an iterable of boolean outcomes."""
    outcomes = list(outcomes)
    return wilson_interval(sum(1 for o in outcomes if o), len(outcomes), z=z)


def linear_regression_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of y against x (0.0 when degenerate).

    Used by scaling experiments (e.g. max message bits against log n) to
    report a single scaling figure.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0
    mx, my = mean(xs), mean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (0.0 when degenerate)."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0
    mx, my = mean(xs), mean(ys)
    sx, sy = std(xs), std(ys)
    if sx == 0 or sy == 0:
        return 0.0
    covariance = mean([(x - mx) * (y - my) for x, y in zip(xs, ys)])
    return covariance / (sx * sy)
