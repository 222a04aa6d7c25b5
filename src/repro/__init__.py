"""Reproduction of *Distributed Discovery of Large Near-Cliques*.

This package reproduces the system described by Brakerski and Patt-Shamir
(PODC 2009): a randomized distributed algorithm, running in the synchronous
CONGEST model, that discovers a large near-clique whenever the communication
graph contains an :math:`\\epsilon^3`-near clique of linear (or slightly
sub-linear) size.

The package is organised as follows:

``repro.congest``
    A synchronous CONGEST message-passing simulator: nodes, O(log n)-bit
    messages, rounds, congestion metrics, and interchangeable round-loop
    engines.

``repro.primitives``
    Reusable distributed building blocks used by the algorithm: BFS spanning
    trees, broadcast, convergecast, leader election and pipelined aggregation.

``repro.core``
    The paper's contribution: near-clique mathematics (Definition 1,
    :math:`K_\\epsilon`, :math:`T_\\epsilon`), the ``DistNearClique``
    distributed algorithm, a centralized reference implementation, the
    success-probability boosting wrapper and parameter derivation.

``repro.baselines``
    The simple approaches of Section 3 (shingles, neighbours' neighbours) and
    the centralized dense-subgraph comparators from the related-work section.

``repro.proptest``
    The Goldreich–Goldwasser–Ron :math:`\\rho`-clique property tester the
    paper adapts, plus a tolerant-testing wrapper.

``repro.graphs``
    Graph generators (planted near-cliques, the Claim 1 counterexample family,
    the Section 6 impossibility graph) and verification utilities.

``repro.analysis``
    Theoretical bound calculators and the experiment harness that regenerates
    every experiment listed in DESIGN.md / EXPERIMENTS.md.

Quickstart
----------

>>> import random
>>> from repro import generators, DistNearCliqueRunner
>>> graph, planted = generators.planted_near_clique(
...     n=80, clique_fraction=0.5, epsilon=0.2 ** 3, background_p=0.05,
...     seed=7)
>>> runner = DistNearCliqueRunner(epsilon=0.2, sample_probability=0.05,
...                               rng=random.Random(7))
>>> result = runner.run(graph)
"""

from repro.core.boosting import BoostedNearCliqueRunner
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.near_clique import (
    density,
    is_near_clique,
    k_eps,
    near_clique_defect,
    t_eps,
)
from repro.core.params import AlgorithmParameters, recommended_sample_probability
from repro.core.reference import CentralizedNearCliqueFinder
from repro.core.result import NearCliqueResult
from repro.graphs import generators

__all__ = [
    "DistNearCliqueRunner",
    "BoostedNearCliqueRunner",
    "CentralizedNearCliqueFinder",
    "NearCliqueResult",
    "AlgorithmParameters",
    "recommended_sample_probability",
    "density",
    "is_near_clique",
    "near_clique_defect",
    "k_eps",
    "t_eps",
    "generators",
]

__version__ = "1.0.0"
