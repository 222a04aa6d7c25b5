"""Round, message and bit accounting.

The experiments that reproduce the paper's complexity statements (round
complexity O(2^{|S|}) — Lemma 5.1; O(log n)-bit messages — Section 2 and
experiment E6) read their measurements from these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RoundMetrics:
    """Measurements for a single synchronous round."""

    round_index: int
    messages_sent: int = 0
    bits_sent: int = 0
    max_message_bits: int = 0
    active_nodes: int = 0

    def observe_message(self, bits: int) -> None:
        self.messages_sent += 1
        self.bits_sent += bits
        if bits > self.max_message_bits:
            self.max_message_bits = bits


@dataclass
class RunMetrics:
    """Aggregate measurements for one protocol execution.

    Attributes
    ----------
    rounds:
        Number of communication rounds executed.  Following the standard
        convention, a protocol in which no node ever sends a message has
        zero communication rounds even though local computation happened.
    total_messages / total_bits:
        Volume of communication over the whole run.
    max_message_bits:
        The largest single message observed — the quantity bounded by
        O(log n) in the CONGEST model.
    max_messages_per_round:
        Peak per-round traffic (a congestion indicator).
    per_round:
        The per-round trace, one :class:`RoundMetrics` per round.
    """

    rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    max_messages_per_round: int = 0
    per_round: List[RoundMetrics] = field(default_factory=list)
    protocol_breakdown: Dict[str, "RunMetrics"] = field(default_factory=dict)

    def absorb_round(self, round_metrics: RoundMetrics) -> None:
        """Fold one round's measurements into the aggregate."""
        self.rounds += 1
        self.total_messages += round_metrics.messages_sent
        self.total_bits += round_metrics.bits_sent
        if round_metrics.max_message_bits > self.max_message_bits:
            self.max_message_bits = round_metrics.max_message_bits
        if round_metrics.messages_sent > self.max_messages_per_round:
            self.max_messages_per_round = round_metrics.messages_sent
        self.per_round.append(round_metrics)

    def merge(self, other: "RunMetrics", label: Optional[str] = None) -> None:
        """Accumulate another run's metrics (used by composite protocols).

        Rounds add up because composite protocols run their stages in
        sequence; message maxima are combined with ``max``.
        """
        self.rounds += other.rounds
        self.total_messages += other.total_messages
        self.total_bits += other.total_bits
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)
        self.max_messages_per_round = max(
            self.max_messages_per_round, other.max_messages_per_round
        )
        self.per_round.extend(other.per_round)
        if label is not None:
            existing = self.protocol_breakdown.get(label)
            if existing is None:
                snapshot = RunMetrics(
                    rounds=other.rounds,
                    total_messages=other.total_messages,
                    total_bits=other.total_bits,
                    max_message_bits=other.max_message_bits,
                    max_messages_per_round=other.max_messages_per_round,
                )
                self.protocol_breakdown[label] = snapshot
            else:
                existing.merge(other)

    @property
    def mean_message_bits(self) -> float:
        """Average message size over the run (0.0 for a silent run)."""
        if self.total_messages == 0:
            return 0.0
        return self.total_bits / self.total_messages

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            "RunMetrics(rounds=%d, messages=%d, bits=%d, max_message_bits=%d)"
            % (self.rounds, self.total_messages, self.total_bits, self.max_message_bits)
        )
