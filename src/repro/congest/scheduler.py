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
docstring for the contract).  The engine is chosen by the ``engine``
argument here, falling back to :attr:`CongestConfig.engine`.

Termination
-----------
A run terminates when every node has locally terminated
(:meth:`Protocol.finished`) and no messages are in flight.  Protocols that do
not implement explicit distributed termination detection may set the class
attribute ``quiesce_terminates = True``; such a run also terminates when the
network becomes silent (no messages in flight and none produced in the last
round).  This is a simulator convenience standing in for the deterministic
worst-case round bounds the paper uses (Lemma 5.1); measured round counts are
unaffected because silent trailing rounds are not executed.  A protocol
without ``quiesce_terminates`` that stays silent for :data:`_STALL_LIMIT`
consecutive rounds without finishing is declared stalled — fewer silent
rounds followed by renewed traffic are legal under every engine.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    _STALL_LIMIT,
    CongestSession,
    Engine,
    RunResult,
    get_engine,
)
from repro.congest.network import Network
from repro.congest.node import Protocol

__all__ = [
    "RunResult",
    "SynchronousScheduler",
    "run_protocol",
    "_STALL_LIMIT",
]


class SynchronousScheduler:
    """Run one protocol on one network under a :class:`CongestConfig`.

    Parameters
    ----------
    network, protocol, config, global_inputs, per_node_inputs, reuse_contexts:
        As documented on :func:`run_protocol`.
    engine:
        Execution-engine selector — a registry name (``"reference"``,
        ``"vectorized"``, ``"sharded"``), an
        :class:`repro.congest.engine.Engine` instance, or ``None`` to use
        ``config.engine``.
    session:
        An open :class:`repro.congest.engine.CongestSession` to run inside.
        Must be bound to the same *network*; when given, the session's
        engine drives the run (``engine`` is ignored) and per-``execute``
        setup the session persists — worker pools, shared-memory CSR
        mappings — is reused instead of rebuilt.  When ``config`` is
        omitted the session's configuration applies.
    """

    def __init__(
        self,
        network: Network,
        protocol: Protocol,
        config: Optional[CongestConfig] = None,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        reuse_contexts: bool = False,
        engine: Union[None, str, Engine] = None,
        session: Optional[CongestSession] = None,
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.config = config or CongestConfig()
        self._config_given = config is not None
        self.global_inputs = global_inputs
        self.per_node_inputs = per_node_inputs
        self.reuse_contexts = reuse_contexts
        self.engine = engine
        self.session = session

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the protocol to termination and return its result."""
        if self.session is not None:
            if self.session.network is not self.network:
                raise ValueError(
                    "the scheduler's network is not the network the session "
                    "was opened on; open one session per network"
                )
            return self.session.execute(
                self.protocol,
                config=self.config if self._config_given else None,
                global_inputs=self.global_inputs,
                per_node_inputs=self.per_node_inputs,
                reuse_contexts=self.reuse_contexts,
            )
        engine = get_engine(
            self.engine if self.engine is not None else self.config.engine
        )
        return engine.execute(
            self.network,
            self.protocol,
            config=self.config,
            global_inputs=self.global_inputs,
            per_node_inputs=self.per_node_inputs,
            reuse_contexts=self.reuse_contexts,
        )


def run_protocol(
    network: Network,
    protocol: Protocol,
    config: Optional[CongestConfig] = None,
    global_inputs: Optional[Dict[str, Any]] = None,
    per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    reuse_contexts: bool = False,
    engine: Union[None, str, Engine] = None,
    session: Optional[CongestSession] = None,
) -> RunResult:
    """Convenience wrapper: build a scheduler and run it once."""
    scheduler = SynchronousScheduler(
        network=network,
        protocol=protocol,
        config=config,
        global_inputs=global_inputs,
        per_node_inputs=per_node_inputs,
        reuse_contexts=reuse_contexts,
        engine=engine,
        session=session,
    )
    return scheduler.run()
