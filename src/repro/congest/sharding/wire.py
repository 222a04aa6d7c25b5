"""Packed wire format for cross-shard boundary traffic.

The process backend of :class:`repro.congest.sharding.engine.ShardedEngine`
exchanges each round's boundary messages between worker processes through
pipes.  Pickling a list of per-message objects (``Inbound`` wrapping
``Message``) would dominate the round barrier — every object drags its class
reference and per-field overhead through the pickler — so boundary buckets
travel in a *packed* form instead: flat integer arrays for the per-delivery
structure, one compact byte string for the payloads, and message *kinds*
replaced by small integers via a per-run interning table.

Layout
------
A bucket of deliveries (all messages one source shard produced for one
destination shard in one round, in send order) becomes a :class:`WireBatch`:

``receivers`` / ``message_refs``
    Two parallel ``array('q')`` columns, one entry per delivery: the dense
    CSR index of the receiver and the index of the delivered message in the
    batch's message table.  A message broadcast to *k* boundary receivers
    appears once in the table and *k* times in these columns — the same
    interning the in-process engines get from shared ``Inbound`` wrappers,
    preserved across the process boundary.

``senders`` / ``kind_ids`` / ``bits``
    The message table, ``array('q')`` columns, one entry per distinct
    message object: the sender's node id, the interned kind, and the bit
    charge (carried explicitly because :class:`repro.congest.message.Message`
    permits an explicit ``bits`` override — ``make_id_message`` charges
    identifiers at Theta(log n) regardless of the concrete integer).

``payloads``
    One ``bytes`` string: the table's payloads encoded back to back with
    :func:`encode_payload` (tag byte + varints / IEEE doubles / UTF-8).

``new_kinds``
    Kind strings first seen by this channel's encoder, in first-use order.
    Encoder and decoder assign ids by appending to their table, so a
    channel's tables stay synchronized as long as batches are decoded in
    the order they were encoded — which the per-round barrier guarantees.
    An interned kind costs one varint per message instead of a string.

Every value a protocol may legally put on the wire round-trips exactly:
the payload vocabulary is ``None``, ``bool``, ``int`` (arbitrary
precision), ``float`` (bit-exact, including NaN and signed zeros), ``str``
and nested tuples thereof — the same vocabulary
:func:`repro.congest.message.estimate_payload_bits` accepts.  Send order,
bit estimates and interning survive the round trip; the property suite in
``tests/test_wire.py`` pins all three.
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.congest.errors import WireCorruptionError
from repro.congest.message import Inbound, Message

__all__ = [
    "WireBatch",
    "WireDecoder",
    "WireEncoder",
    "decode_payload",
    "encode_payload",
]

#: Payload tag bytes (one per vocabulary type; tuples carry an item count).
_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_TUPLE = 6

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


def _append_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint (7 bits per byte, high bit = continuation)."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(buf: bytes, offset: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        byte = buf[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def encode_payload(payload, out: bytearray) -> None:
    """Append the packed encoding of *payload* to *out*.

    Accepts exactly the vocabulary of
    :func:`repro.congest.message.estimate_payload_bits`; anything else
    raises ``TypeError`` (protocols cannot smuggle richer objects through
    the process boundary than through the in-process engines).
    """
    if payload is None:
        out.append(_TAG_NONE)
    elif payload is True:
        out.append(_TAG_TRUE)
    elif payload is False:
        out.append(_TAG_FALSE)
    elif isinstance(payload, bool):  # bool subclasses (never hit in practice)
        out.append(_TAG_TRUE if payload else _TAG_FALSE)
    elif isinstance(payload, int):
        # Zigzag maps signed to unsigned so small negatives stay short;
        # Python ints are arbitrary precision and LEB128 has no width cap.
        out.append(_TAG_INT)
        _append_uvarint(out, (payload << 1) if payload >= 0 else ((-payload << 1) - 1))
    elif isinstance(payload, float):
        out.append(_TAG_FLOAT)
        out += _pack_double(payload)
    elif isinstance(payload, str):
        encoded = payload.encode("utf-8", "surrogatepass")
        out.append(_TAG_STR)
        _append_uvarint(out, len(encoded))
        out += encoded
    elif isinstance(payload, tuple):
        out.append(_TAG_TUPLE)
        _append_uvarint(out, len(payload))
        for item in payload:
            encode_payload(item, out)
    else:
        raise TypeError(
            "unsupported payload type %r; CONGEST messages may only carry "
            "None, bool, int, float, str or tuples thereof"
            % type(payload).__name__
        )


def decode_payload(buf: bytes, offset: int):
    """Decode one payload from *buf* at *offset*; returns ``(value, offset)``."""
    tag = buf[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        raw, offset = _read_uvarint(buf, offset)
        return (raw >> 1) ^ -(raw & 1), offset
    if tag == _TAG_FLOAT:
        return _unpack_double(buf, offset)[0], offset + 8
    if tag == _TAG_STR:
        length, offset = _read_uvarint(buf, offset)
        return buf[offset:offset + length].decode("utf-8", "surrogatepass"), offset + length
    if tag == _TAG_TUPLE:
        count, offset = _read_uvarint(buf, offset)
        items = []
        for _ in range(count):
            item, offset = decode_payload(buf, offset)
            items.append(item)
        return tuple(items), offset
    raise ValueError("corrupt wire payload: unknown tag %d at offset %d" % (tag, offset - 1))


class WireBatch(NamedTuple):
    """One source shard's boundary deliveries to one destination, packed."""

    new_kinds: Tuple[str, ...]
    receivers: array  # 'q', dense receiver index per delivery
    message_refs: array  # 'q', message-table index per delivery
    senders: array  # 'q', sender node id per table entry
    kind_ids: array  # 'q', interned kind per table entry
    bits: array  # 'q', bit charge per table entry
    payloads: bytes  # packed payloads of the table entries, back to back

    @property
    def deliveries(self) -> int:
        """Number of (receiver, message) deliveries carried by the batch."""
        return len(self.receivers)

    def wire_bytes(self) -> int:
        """Approximate on-the-wire size of the packed columns, in bytes.

        Counts the flat arrays, the payload blob and the interning deltas —
        not pickle framing — so it is the figure the E15 benchmark reports
        as boundary traffic per round.
        """
        return (
            8 * (len(self.receivers) + len(self.message_refs))
            + 8 * (len(self.senders) + len(self.kind_ids) + len(self.bits))
            + len(self.payloads)
            + sum(len(kind) for kind in self.new_kinds)
        )


class WireEncoder:
    """Encoder for one (source shard → destination shard) channel.

    Kind interning is per channel and append-only: the first batch that
    carries a new kind ships the string once in ``new_kinds``; the paired
    :class:`WireDecoder` appends it to its own table at decode time, so ids
    agree without any out-of-band synchronization.
    """

    __slots__ = ("_kind_ids",)

    def __init__(self) -> None:
        self._kind_ids: Dict[str, int] = {}

    def encode(
        self, receivers: Sequence[int], inbounds: Sequence[Inbound]
    ) -> WireBatch:
        """Pack parallel (receiver index, Inbound) lists into a batch.

        Delivery order is preserved exactly; repeated ``Inbound`` objects
        (one broadcast interned by the drain) collapse to one message-table
        entry referenced from multiple deliveries.
        """
        kind_ids = self._kind_ids
        new_kinds: List[str] = []
        table_index: Dict[int, int] = {}
        receiver_column = array("q", receivers)
        refs = array("q")
        senders = array("q")
        kinds = array("q")
        bits = array("q")
        payload_blob = bytearray()
        for inbound in inbounds:
            key = id(inbound)
            ref = table_index.get(key)
            if ref is None:
                ref = table_index[key] = len(senders)
                message = inbound.message
                kind = message.kind
                kind_id = kind_ids.get(kind)
                if kind_id is None:
                    kind_id = kind_ids[kind] = len(kind_ids)
                    new_kinds.append(kind)
                senders.append(inbound.sender)
                kinds.append(kind_id)
                bits.append(message.bits)
                encode_payload(message.payload, payload_blob)
            refs.append(ref)
        return WireBatch(
            new_kinds=tuple(new_kinds),
            receivers=receiver_column,
            message_refs=refs,
            senders=senders,
            kind_ids=kinds,
            bits=bits,
            payloads=bytes(payload_blob),
        )


class WireDecoder:
    """Decoder for one (source shard → destination shard) channel."""

    __slots__ = ("_kinds",)

    def __init__(self) -> None:
        self._kinds: List[str] = []

    def decode(self, batch: WireBatch) -> Tuple[List[int], List[Inbound]]:
        """Unpack a batch into the engine's parallel delivery lists.

        Returns ``(receiver_indices, inbounds)`` in the batch's send order;
        deliveries sharing a message-table entry share one reconstructed
        :class:`repro.congest.message.Inbound`, mirroring the sender-side
        interning.
        """
        self._kinds.extend(batch.new_kinds)
        kinds = self._kinds
        blob = batch.payloads
        offset = 0
        table: List[Inbound] = []
        try:
            for sender, kind_id, bits in zip(
                batch.senders, batch.kind_ids, batch.bits
            ):
                payload, offset = decode_payload(blob, offset)
                table.append(
                    Inbound(
                        sender=sender,
                        message=Message(
                            kind=kinds[kind_id], payload=payload, bits=bits
                        ),
                    )
                )
            return list(batch.receivers), [
                table[ref] for ref in batch.message_refs
            ]
        except (ValueError, IndexError, KeyError, struct.error, UnicodeDecodeError) as exc:
            # Structural damage (unknown tag, truncated varint/blob,
            # out-of-range kind or table reference) is a transport failure,
            # not a protocol error — surface it as the infrastructure
            # type.  Note the table extension above already happened; a
            # corrupt batch aborts the worker, and the session's next
            # execute spawns a *fresh* pool whose codecs restart in sync,
            # so the desynchronized decoder is never reused.
            raise WireCorruptionError(str(exc) or type(exc).__name__) from exc
