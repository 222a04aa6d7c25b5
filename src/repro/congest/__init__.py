"""Synchronous CONGEST model simulator.

The CONGEST model (Peleg, *Distributed Computing: A Locality-Sensitive
Approach*) is the execution model assumed by the paper (Section 2):

* the system is an undirected graph whose nodes are processors and whose
  edges are communication links;
* every node has a unique O(log n)-bit identifier;
* execution proceeds in synchronous rounds — in each round every node sends
  at most one message per incident edge, receives the messages sent to it in
  the previous round, and performs local computation;
* every message carries O(log n) bits.

This package is an in-process simulator of that model.  The pieces are:

``Message`` / ``Inbound``
    The unit of communication, with explicit bit-size accounting.

``Protocol`` / ``NodeContext``
    The programming interface for distributed algorithms: a protocol is a
    per-node state machine driven by ``on_start`` and ``on_round`` callbacks;
    the context restricts a node to purely local information (its identifier,
    its incident edges, and received messages).

``Network``
    The communication graph plus per-node state containers.

``run_protocol``
    The round-driving entry point.  Every run follows one rulebook: at
    most one message per edge direction per round (always enforced), the
    configured message-size budget, a per-round metrics trace, and one
    termination rule (no message in flight, and every node halted or at
    least one round run).

``Engine`` and its implementations
    Pluggable implementations of the round loop itself, selected by
    ``CongestConfig.engine`` alone: a registry name from the table below,
    or an ``Engine`` instance.  All engines are bit-identical in outputs
    and protocol metrics; the differential suite
    (``tests/test_engine_equivalence.py``) enforces the contract.

    ==============  ======================  ==================================
    name            class                   execution
    ==============  ======================  ==================================
    ``reference``   ``ReferenceEngine``     per-object round loop; the
                                            semantics oracle of the
                                            differential harness
    ``vectorized``  ``VectorizedEngine``    columnar kernels for phases that
                                            declare one, a CSR callback loop
                                            with an active frontier for the
                                            rest.  The default.
    ``sharded``     ``ShardedEngine``       partition-parallel execution:
                                            ``shards`` regions step their
                                            own frontier in worker
                                            processes and trade boundary
                                            messages at round barriers
                                            (pickled per shard pair)
    ==============  ======================  ==================================

``CongestSession`` / ``Engine.open_session``
    Engine state shared across the ``execute`` calls of a composite
    pipeline.  The default session is a thin wrapper that delegates to the
    engine; the sharded engine returns a session that
    keeps its worker pool and shared-memory CSR mapping alive, re-arming
    workers between phases.  Bit-identical either way (the differential
    suite has a session arm).

``metrics``
    Round, message, and bit accounting used by the complexity experiments
    (E2, E5, E6 in DESIGN.md).
"""

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    CongestSession,
    Engine,
    ReferenceEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.congest.errors import (
    CongestError,
    CongestionViolation,
    MessageSizeViolation,
    ProtocolError,
    RoundLimitExceeded,
    ShardWorkerError,
)
from repro.congest.message import Inbound, Message, estimate_payload_bits, id_bits_for
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import Network
from repro.congest.node import NodeContext, Protocol
from repro.congest.scheduler import RunResult, run_protocol
from repro.congest.sharding import (
    ShardPlan,
    ShardedEngine,
    ShardingStats,
    partition_network,
)
from repro.congest.vectorized import VectorizedEngine

__all__ = [
    "CongestConfig",
    "CongestSession",
    "CongestError",
    "CongestionViolation",
    "MessageSizeViolation",
    "ProtocolError",
    "RoundLimitExceeded",
    "Message",
    "Inbound",
    "estimate_payload_bits",
    "id_bits_for",
    "Network",
    "NodeContext",
    "Protocol",
    "RunResult",
    "run_protocol",
    "Engine",
    "ReferenceEngine",
    "VectorizedEngine",
    "ShardedEngine",
    "ShardPlan",
    "ShardingStats",
    "ShardWorkerError",
    "partition_network",
    "available_engines",
    "get_engine",
    "register_engine",
    "RoundMetrics",
    "RunMetrics",
]
