"""The paper's quantitative statements as executable bound calculators.

Every experiment prints its measurements next to the bound the paper claims;
this module is the single place those bounds are written down.  Asymptotic
statements (Ω(·), O(·)) necessarily involve unspecified constants — each
function documents which constant it fixes and why, and the experiments
treat them as *shape* predictions (monotonicity, crossover locations,
scaling exponents) rather than exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import near_clique
from repro.core.params import expected_sample_size


# ---------------------------------------------------------------------------
# Theorem 2.1 / Theorem 5.7
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TheoremBounds:
    """The guarantees of Theorem 5.7 for a concrete parameter point."""

    epsilon: float
    delta: float
    n: int
    sample_probability: float
    planted_size: int

    @property
    def output_defect_bound(self) -> float:
        """Assertion (1): the output is a (ε/δ)/(1 − 13ε/2)-near clique."""
        return near_clique.theorem_5_7_defect_bound(self.epsilon, self.delta)

    @property
    def output_size_bound(self) -> float:
        """Assertion (2): |D'| ≥ (1 − 13ε/2)|D| − ε⁻² (clipped at 0)."""
        return max(
            0.0,
            near_clique.theorem_5_7_size_lower_bound(self.planted_size, self.epsilon),
        )

    @property
    def round_bound(self) -> float:
        """Round complexity O(2^{2pn}) (Theorem 5.7, via Lemmas 5.1–5.2)."""
        return 2.0 ** (2.0 * self.sample_probability * self.n)

    def success_probability_lower_bound(self, constant: float = 1.0) -> float:
        """1 − (1/(ε²δ))·e^{−c·ε⁴δpn} — the Theorem 5.7 success probability.

        The Ω(·) constant is not specified by the paper; ``constant`` fixes
        it (default 1).  The value is clipped to [0, 1]; for laptop-scale
        parameters the bound is often vacuous (negative before clipping) —
        the experiments therefore report the measured success rate alongside
        and check the qualitative prediction that it increases with p·n.
        """
        eps, delta, p, n = self.epsilon, self.delta, self.sample_probability, self.n
        value = 1.0 - (1.0 / (eps * eps * delta)) * math.exp(
            -constant * (eps ** 4) * delta * p * n
        )
        return min(1.0, max(0.0, value))


def theorem_2_1_sample_probability(n: int, epsilon: float, delta: float, constant: float = 1.0) -> float:
    """The p of Theorem 2.1: (1/n) · c · log(1/(εδ)) / (ε⁴δ)."""
    return min(1.0, expected_sample_size(epsilon, delta, constant=constant) / n)


# ---------------------------------------------------------------------------
# Lemmas 5.1 - 5.4
# ---------------------------------------------------------------------------
def lemma_5_1_round_bound(sample_size: int, constant: float = 8.0) -> float:
    """Lemma 5.1: the round complexity is at most O(2^{|S|}).

    The constant covers the O(|S|) additive terms of the tree construction
    and the constant number of aggregation/broadcast sweeps; the default of 8
    upper-bounds every run observed in the test suite while staying
    asymptotically honest (it multiplies, not exponentiates).
    """
    return constant * (2.0 ** sample_size) + constant * max(1, sample_size)


def lemma_5_2_sample_tail(n: int, p: float) -> float:
    """Lemma 5.2: Pr[|S| > 2pn] ≤ e^{−pn/3}."""
    return math.exp(-p * n / 3.0)


def lemma_5_3_defect_bound(n: int, t: int, epsilon: float) -> float:
    """Lemma 5.3: T_ε(X) with t members is an (n/t)·ε-near clique."""
    return near_clique.lemma_5_3_defect_bound(n, t, epsilon)


def lemma_5_4_core_bound(d_size: int, epsilon: float) -> float:
    """Lemma 5.4: |C| ≥ (1 − ε)|D| − ε⁻²."""
    return near_clique.lemma_5_4_core_lower_bound(d_size, epsilon)


# ---------------------------------------------------------------------------
# Corollaries 2.2 and 2.3
# ---------------------------------------------------------------------------
def corollary_2_2_round_prediction(
    epsilon: float,
    delta: float,
    expected_sample_cap: float = 9.0,
) -> float:
    """Corollary 2.2: with δ = Θ(1) the round count is O(1) — independent of n.

    Concretely the prediction is ``2^{O(pn)}`` where ``pn`` depends only on ε
    and δ.  With the paper's uncapped constants the numeric value is
    astronomically large (it is a worst-case bound, not an estimate); the
    experiments run with the expected sample capped at *expected_sample_cap*
    (see EXPERIMENTS.md), so the same cap is applied here to give the
    n-independent figure experiment E2 plots measured rounds against.  The
    exponent is additionally clipped to keep the value finite.
    """
    pn = min(expected_sample_cap, expected_sample_size(epsilon, delta, constant=1.0))
    exponent = min(2.0 * pn, 512.0)
    return 2.0 ** exponent


def corollary_2_3_clique_size(n: int, alpha: float) -> int:
    """Corollary 2.3's promise: a strict clique of size n / (log log n)^α."""
    if n < 3:
        return n
    loglog = math.log(max(math.log(n), 1.0000001))
    return max(2, int(math.floor(n / (loglog ** alpha))))


def corollary_2_3_epsilon(n: int) -> float:
    """An o(1) choice of ε for Corollary 2.3's regime (ε = 1/ log log n)."""
    if n < 3:
        return 0.3
    loglog = math.log(max(math.log(n), 1.0000001))
    return min(0.3, 1.0 / max(loglog, 1.0))


# ---------------------------------------------------------------------------
# Section 4.1: boosting
# ---------------------------------------------------------------------------
def boosting_repetitions(q: float, single_run_success: float) -> int:
    """λ = ⌈log_{1−r} q⌉ — the paper's repetition count for failure ≤ q."""
    return max(1, math.ceil(math.log(q) / math.log(1.0 - single_run_success)))


def boosted_failure_probability(single_run_success: float, repetitions: int) -> float:
    """(1 − r)^λ — the failure probability after λ independent repetitions."""
    return (1.0 - single_run_success) ** repetitions


# ---------------------------------------------------------------------------
# Section 3: Claim 1 thresholds
# ---------------------------------------------------------------------------
def claim_1_epsilon_threshold(delta: float) -> float:
    """Claim 1 applies to every ε < min{(1 − δ)/(1 + δ), 1/9}."""
    return min((1.0 - delta) / (1.0 + delta), 1.0 / 9.0)


def claim_1_case1_density(delta: float) -> float:
    """Density of the Case 1 candidate set (vmin in C₁ ∪ C₂): 2δ/(1 + δ)."""
    return 2.0 * delta / (1.0 + delta)


def claim_1_required_size(n: int, delta: float, epsilon: float) -> float:
    """The size a successful output must reach: (1 − ε)δn."""
    return (1.0 - epsilon) * delta * n
