"""Algorithm parameters and the sampling probability of Theorem 5.7.

Theorem 2.1 instantiates Theorem 5.7 with

    p = (1/n) · O( log(1/(εδ)) / (ε⁴ δ) ),

which makes the expected sample size ``p·n`` a constant depending only on ε
and δ — this is what gives the constant round complexity of Corollary 2.2.
The exact constant hidden in the O(·) is not pinned down by the paper;
:func:`recommended_sample_probability` exposes it as a tunable multiplier
whose default was chosen empirically (see EXPERIMENTS.md) to give a useful
success probability at laptop-scale n without blowing up the 2^{|S|} subset
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional


def expected_sample_size(epsilon: float, delta: float, constant: float = 1.0) -> float:
    """The paper's expected sample size ``p·n = c · log(1/(εδ)) / (ε⁴δ)``.

    With the theorem's constants this is astronomically large for small ε;
    experiments use the *shape* of the formula with a small constant, or set
    the sample size directly.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1), got %r" % epsilon)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1], got %r" % delta)
    return constant * math.log(1.0 / (epsilon * delta)) / (epsilon ** 4 * delta)


def recommended_sample_probability(
    n: int,
    epsilon: float,
    delta: float,
    constant: float = 1.0,
    max_expected_sample: Optional[float] = None,
) -> float:
    """Sampling probability ``p`` per Theorem 2.1 / Theorem 5.7.

    Parameters
    ----------
    n:
        Number of nodes in the communication graph.
    epsilon, delta:
        The algorithm's promise parameters: the graph is assumed to contain
        an ε³-near clique of size at least δn.
    constant:
        Multiplier for the O(·) of the theorem.  The paper's proof works for
        a sufficiently large constant; laptop-scale experiments use values
        well below 1 so that the 2^{|S|} local enumeration stays tractable.
    max_expected_sample:
        Optional cap on ``p·n`` (and hence on the expected exponent of the
        running time).  ``None`` means no cap.

    Returns
    -------
    float
        A probability in (0, 1].
    """
    if n <= 0:
        raise ValueError("n must be positive, got %r" % n)
    target = expected_sample_size(epsilon, delta, constant=constant)
    if max_expected_sample is not None:
        target = min(target, max_expected_sample)
    return max(0.0, min(1.0, target / n))


@dataclass
class AlgorithmParameters:
    """Input parameters of Algorithm ``DistNearClique``.

    Attributes
    ----------
    epsilon:
        The ε of the paper (0 < ε < 1/3; larger values are meaningless per
        Section 5.2).  The algorithm evaluates membership in
        ``K_{2ε²}(X)`` and ``T_ε(X)`` with this value.
    sample_probability:
        The i.i.d. probability p with which each node joins the sample S.
    max_sample_size:
        Deterministic guard: if the realised ``|S|`` exceeds this value the
        run is aborted (the paper's Section 4.1 running-time bound — the
        round and local-computation cost is exponential in |S|, Lemma 5.1).
        ``None`` disables the guard.
    min_output_size:
        Candidates smaller than this are disqualified in the decision stage.
        The paper notes small sets "can be disqualified if a lower bound on
        the size of the dense subgraph is known"; 0 keeps every candidate.
    use_step4f_sampling:
        Enable the Section 5.3 optimisation where membership in ``T_ε(X)`` is
        *estimated* from a sample of the neighbourhood instead of being
        computed exactly (reduces local computation; adds estimation error).
    step4f_sample_size:
        Number of neighbours sampled per node when the optimisation is on.
    """

    epsilon: float
    sample_probability: float
    max_sample_size: Optional[int] = 18
    min_output_size: int = 0
    use_step4f_sampling: bool = False
    step4f_sample_size: int = 32

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1), got %r" % self.epsilon)
        if not 0 <= self.sample_probability <= 1:
            raise ValueError(
                "sample_probability must lie in [0, 1], got %r"
                % self.sample_probability
            )
        if self.max_sample_size is not None and self.max_sample_size < 0:
            raise ValueError("max_sample_size must be non-negative or None")
        if self.min_output_size < 0:
            raise ValueError("min_output_size must be non-negative")
        if self.step4f_sample_size <= 0:
            raise ValueError("step4f_sample_size must be positive")

    @property
    def k_inner_epsilon(self) -> float:
        """The ``2ε²`` threshold used for the inner operator ``K_{2ε²}(X)``."""
        return 2.0 * self.epsilon * self.epsilon

    @classmethod
    def resolve(
        cls,
        parameters: Optional["AlgorithmParameters"],
        epsilon: Optional[float],
        sample_probability: Optional[float],
        **guards: Any,
    ) -> "AlgorithmParameters":
        """*parameters*, or the record the keyword form describes.

        The runners and the service take either a full record or
        ``epsilon`` and ``sample_probability``, plus guard fields (*guards*)
        that are forwarded to the constructor.
        """
        if parameters is not None:
            return parameters
        if epsilon is None or sample_probability is None:
            raise ValueError(
                "provide either an AlgorithmParameters record or both "
                "epsilon and sample_probability"
            )
        return cls(epsilon=epsilon, sample_probability=sample_probability, **guards)

    @classmethod
    def for_promise(
        cls,
        n: int,
        epsilon: float,
        delta: float,
        constant: float = 1.0,
        max_expected_sample: Optional[float] = 14.0,
        **kwargs,
    ) -> "AlgorithmParameters":
        """Parameters for the promise "an ε³-near clique of size ≥ δn exists".

        The sample probability follows Theorem 2.1's formula (capped so the
        expected sample stays simulable); remaining keyword arguments are
        forwarded to the constructor.
        """
        p = recommended_sample_probability(
            n,
            epsilon,
            delta,
            constant=constant,
            max_expected_sample=max_expected_sample,
        )
        return cls(epsilon=epsilon, sample_probability=p, **kwargs)
