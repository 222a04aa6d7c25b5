"""Messages and bit-size accounting.

The CONGEST model's defining constraint is that every message carries
O(log n) bits — enough to describe "a constant number of nodes, edges, and
polynomially-bounded numbers" (Section 2 of the paper).  The simulator makes
that constraint *measurable*: every :class:`Message` records how many bits it
occupies on the wire, and the scheduler compares that figure against the
configured budget.

Payloads are restricted to a small vocabulary of wire-friendly values —
``None``, ``bool``, ``int``, ``float``, ``str`` and (possibly nested) tuples
of those — so that the bit estimate is well-defined and so that protocols
cannot smuggle arbitrarily large Python objects through a single message.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

#: Number of bits charged for the message-kind tag.  Protocols use a small,
#: fixed vocabulary of kinds, so a constant tag cost mirrors the usual
#: convention that the message "type" is part of the O(1) header.
KIND_TAG_BITS = 8

#: Bits charged per boolean payload element.
BOOL_BITS = 1

#: Bits charged per float payload element (an IEEE double).
FLOAT_BITS = 64


@functools.lru_cache(maxsize=64)
def id_bits_for(n: int) -> int:
    """Return the number of bits of a node identifier in an *n*-node system.

    Identifiers are assumed to be drawn from a polynomial-size namespace, so
    an identifier costs Theta(log n) bits.  We charge ``ceil(log2 n)`` with a
    floor of one bit so degenerate single-node systems remain well-defined.
    Memoised: protocols charge every message element at this width.
    """
    if n <= 0:
        raise ValueError("n must be positive, got %r" % (n,))
    return max(1, math.ceil(math.log2(max(2, n))))


def _int_bits(value: int) -> int:
    """Bits needed for a (signed) integer: magnitude bits plus a sign bit."""
    return max(1, abs(int(value)).bit_length()) + 1


def estimate_payload_bits(payload: Any) -> int:
    """Estimate the number of bits needed to encode *payload* on the wire.

    The estimate is intentionally simple and conservative; it exists so that
    experiments can check the *scaling* of message sizes with n (experiment
    E6), not to model a particular encoder.

    Parameters
    ----------
    payload:
        ``None``, ``bool``, ``int``, ``float``, ``str``, or a (nested) tuple
        of such values.

    Raises
    ------
    TypeError
        If the payload contains a value outside the allowed vocabulary
        (lists, dicts, sets and arbitrary objects are rejected — protocols
        must serialise structured data into tuples explicitly).
    """
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return BOOL_BITS
    if isinstance(payload, int):
        return _int_bits(payload)
    if isinstance(payload, float):
        return FLOAT_BITS
    if isinstance(payload, str):
        return 8 * max(1, len(payload))
    if isinstance(payload, tuple):
        return sum(estimate_payload_bits(item) for item in payload) + 2
    raise TypeError(
        "unsupported payload type %r; CONGEST messages may only carry None, "
        "bool, int, float, str or tuples thereof" % type(payload).__name__
    )


@dataclass(frozen=True)
class Message:
    """A single CONGEST message.

    Parameters
    ----------
    kind:
        A short protocol-defined tag identifying how the payload should be
        interpreted (for example ``"bfs.explore"`` or ``"nc.kcount"``).
    payload:
        The wire content; see :func:`estimate_payload_bits` for the allowed
        vocabulary.
    bits:
        The number of bits the message occupies.  When omitted it is derived
        from the payload plus the constant kind-tag overhead.
    """

    kind: str
    payload: Any = None
    bits: int = field(default=-1)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("message kind must be a non-empty string")
        if self.bits < 0:
            computed = KIND_TAG_BITS + estimate_payload_bits(self.payload)
            object.__setattr__(self, "bits", computed)
        elif self.bits == 0:
            raise ValueError("a message always carries at least one bit")

    def with_bits(self, bits: int) -> "Message":
        """Return a copy of this message charged at an explicit bit count."""
        return Message(kind=self.kind, payload=self.payload, bits=bits)


@dataclass(frozen=True)
class Inbound:
    """A message together with the identity of the neighbour that sent it."""

    sender: Any
    message: Message

    @property
    def kind(self) -> str:
        return self.message.kind

    @property
    def payload(self) -> Any:
        return self.message.payload


def make_id_message(kind: str, node_id: int, n: int, extra: Optional[Tuple] = None) -> Message:
    """Build a message carrying one node identifier (plus small extras).

    This is the most common message shape in the protocols of this package:
    a single identifier costs ``id_bits_for(n)`` bits regardless of the
    Python integer used to represent it, which keeps the accounting faithful
    to the model (an identifier is charged Theta(log n) bits even if the
    concrete label happens to be a small integer).
    """
    extra_bits = estimate_payload_bits(extra) if extra is not None else 0
    payload: Any = (node_id,) if extra is None else (node_id,) + tuple(extra)
    return Message(
        kind=kind,
        payload=payload,
        bits=KIND_TAG_BITS + id_bits_for(n) + extra_bits,
    )


def make_counter_message(kind: str, value: int, n: int, extra: Optional[Tuple] = None) -> Message:
    """Build a message carrying one polynomially-bounded counter.

    Counters such as ``|K_{2eps^2}(X)|`` are bounded by n, hence cost
    Theta(log n) bits.  Subset indices are bounded by ``2^{|S|}`` and are
    charged at their true bit length by the caller via *extra*.
    """
    extra_bits = estimate_payload_bits(extra) if extra is not None else 0
    payload: Any = (value,) if extra is None else (value,) + tuple(extra)
    return Message(
        kind=kind,
        payload=payload,
        bits=KIND_TAG_BITS + id_bits_for(max(n, value + 1)) + extra_bits,
    )
