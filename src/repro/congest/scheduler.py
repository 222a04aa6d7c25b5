"""The synchronous round scheduler.

The scheduler drives a :class:`repro.congest.node.Protocol` over a
:class:`repro.congest.network.Network` in lock-step rounds:

1. messages queued in round *r* are delivered at the start of round *r + 1*;
2. every (non-halted) node processes its inbox and queues new messages;
3. the one-message-per-edge-per-round rule and the per-message bit budget are
   enforced as messages are collected.

The round loop itself lives in :mod:`repro.congest.engine`, behind a
pluggable :class:`repro.congest.engine.Engine` interface: ``"vectorized"``
is the single-process fast path (:mod:`repro.congest.vectorized`, the
default), ``"reference"`` the semantics oracle kept for the differential
harness, and ``"sharded"`` the partition-parallel backend
(:mod:`repro.congest.sharding`); all are guaranteed to produce
bit-identical outputs and protocol metrics (see the engine module's
docstring for the contract).  The engine is chosen by
:attr:`CongestConfig.engine`, a registry name or an
:class:`~repro.congest.engine.Engine` instance.

Termination
-----------
A run terminates when no message is in flight and either every node has
locally terminated (called :meth:`NodeContext.halt`) or at least one round
has run — the network went quiet.  Quiescence stands in for the
deterministic worst-case round bounds the paper uses (Section 4.1,
Lemma 5.1); measured round counts are unaffected because silent trailing
rounds are not executed.  A run in which no node sends and some node never
halts therefore ends after round 1.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.congest.config import CongestConfig
from repro.congest.engine import CongestSession, RunResult, get_engine
from repro.congest.network import Network
from repro.congest.node import Protocol

__all__ = [
    "RunResult",
    "run_protocol",
]


def run_protocol(
    network: Network,
    protocol: Protocol,
    config: Optional[CongestConfig] = None,
    global_inputs: Optional[Dict[str, Any]] = None,
    per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    reuse_contexts: bool = False,
    session: Optional[CongestSession] = None,
) -> RunResult:
    """Run *protocol* on *network* to termination and return its result.

    Parameters
    ----------
    network, protocol:
        The communication graph and the per-node state machine to drive.
    config:
        The :class:`CongestConfig`, whose ``engine`` drives the run;
        ``None`` means the defaults (or, with a *session*, the session's
        configuration).
    global_inputs / per_node_inputs:
        Values written into every context's globals / the named nodes'
        state before the run.
    reuse_contexts:
        Keep the contexts of the previous run on *network* (composite
        pipelines chain protocols over the same state) instead of building
        fresh ones.
    session:
        An open :class:`repro.congest.engine.CongestSession` to run inside.
        Must be bound to the same *network*; when given, the session's
        engine drives the run and per-``execute``
        setup the session persists — worker pools, shared-memory CSR
        mappings — is reused instead of rebuilt.
    """
    if session is not None:
        if session.network is not network:
            raise ValueError(
                "the scheduler's network is not the network the session "
                "was opened on; open one session per network"
            )
        return session.execute(
            protocol,
            config=config,
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            reuse_contexts=reuse_contexts,
        )
    config = config or CongestConfig()
    return get_engine(config.engine).execute(
        network,
        protocol,
        config=config,
        global_inputs=global_inputs,
        per_node_inputs=per_node_inputs,
        reuse_contexts=reuse_contexts,
    )
