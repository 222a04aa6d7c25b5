"""Property tests for the packed boundary wire codec.

The process backend ships every cross-shard message through
:mod:`repro.congest.sharding.wire`; a codec bug there would surface as a
differential failure several layers up, so this suite pins the codec's own
contract directly: every value in the payload vocabulary round-trips
exactly, bit estimates survive (including explicit overrides), send order
is preserved, and the sender-side interning of broadcast messages is
reconstructed on the decode side.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.errors import (
    ShardWorkerError,
    ShardWorkerTimeout,
    WireCorruptionError,
)
from repro.congest.message import (
    Inbound,
    Message,
    estimate_payload_bits,
    make_counter_message,
    make_id_message,
)
from repro.congest.sharding.wire import (
    WireDecoder,
    WireEncoder,
    decode_payload,
    encode_payload,
)

#: The full wire vocabulary of ``estimate_payload_bits``: scalars plus
#: arbitrarily nested tuples of scalars.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),  # NaN has its own test (NaN != NaN)
    st.text(max_size=40),
)
payloads = st.recursive(
    _scalars, lambda children: st.tuples() | st.lists(children, max_size=5).map(tuple), max_leaves=12
)


def _roundtrip(payload):
    buf = bytearray()
    encode_payload(payload, buf)
    value, offset = decode_payload(bytes(buf), 0)
    assert offset == len(buf), "decoder did not consume the whole encoding"
    return value


class TestPayloadCodec:
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    def test_roundtrip_identity(self, payload):
        value = _roundtrip(payload)
        assert value == payload
        assert type(value) is type(payload)
        # The decoded value is indistinguishable to the bit-accounting layer.
        assert estimate_payload_bits(value) == estimate_payload_bits(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(payloads, max_size=6))
    def test_concatenated_payloads_keep_boundaries(self, items):
        buf = bytearray()
        for item in items:
            encode_payload(item, buf)
        blob = bytes(buf)
        offset = 0
        decoded = []
        for _ in items:
            value, offset = decode_payload(blob, offset)
            decoded.append(value)
        assert offset == len(blob)
        assert decoded == items

    def test_nan_and_signed_zero_bit_exact(self):
        assert math.isnan(_roundtrip(float("nan")))
        assert math.copysign(1.0, _roundtrip(-0.0)) == -1.0
        assert math.copysign(1.0, _roundtrip(0.0)) == 1.0
        assert _roundtrip(float("inf")) == float("inf")

    def test_bool_int_types_not_conflated(self):
        assert _roundtrip(True) is True
        assert _roundtrip(1) == 1 and _roundtrip(1) is not True
        assert type(_roundtrip(0)) is int

    def test_huge_integers(self):
        for value in (2 ** 200, -(2 ** 200), 2 ** 63, -(2 ** 63) - 1):
            assert _roundtrip(value) == value

    def test_rejects_non_vocabulary_payloads(self):
        for bad in ([1, 2], {"a": 1}, {1, 2}, object()):
            with pytest.raises(TypeError):
                encode_payload(bad, bytearray())


# The exact values where a fixed-width codec would overflow or where the
# LEB128 continuation bit flips.  Python ints are unbounded and the varint
# has no width cap, so every one of these must round-trip exactly — 2^63−1
# and its neighbours are where a C-style int64 implementation breaks.
_INT64_MAX = 2 ** 63 - 1
_INT64_MIN = -(2 ** 63)
_VARINT_BOUNDARIES = sorted(
    {
        0,
        1,
        -1,
        2,
        -2,
        _INT64_MAX,
        _INT64_MAX - 1,
        _INT64_MAX + 1,
        _INT64_MIN,
        _INT64_MIN + 1,
        _INT64_MIN - 1,
        # LEB128 7-bit group edges: each is the first value needing one more
        # continuation byte (and zigzag halves the usable magnitude).
        *(2 ** (7 * k) for k in range(1, 11)),
        *(2 ** (7 * k) - 1 for k in range(1, 11)),
        *(-(2 ** (7 * k)) for k in range(1, 11)),
    }
)


class TestVarintBoundaries:
    """Satellite: pin the zigzag-LEB128 integer codec at its edges."""

    @pytest.mark.parametrize("value", _VARINT_BOUNDARIES)
    def test_boundary_integers_roundtrip(self, value):
        decoded = _roundtrip(value)
        assert decoded == value
        assert type(decoded) is int

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=_INT64_MIN - 2, max_value=_INT64_MIN + 2),
            st.integers(min_value=_INT64_MAX - 2, max_value=_INT64_MAX + 2),
            st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        )
    )
    def test_near_64_bit_integers_roundtrip(self, value):
        assert _roundtrip(value) == value

    def test_zigzag_keeps_small_magnitudes_short(self):
        # Zigzag exists so small negatives do not pay the worst-case width:
        # |value| < 64 must fit in tag + one varint byte either sign.
        for value in range(-63, 64):
            buf = bytearray()
            encode_payload(value, buf)
            assert len(buf) == 2, (value, bytes(buf))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(_VARINT_BOUNDARIES), min_size=1, max_size=8))
    def test_boundary_blob_roundtrip(self, values):
        # A concatenated blob of extreme payloads keeps its boundaries: a
        # varint that mis-consumed one byte would desynchronise the rest.
        payload = tuple(values)
        buf = bytearray()
        encode_payload(payload, buf)
        encode_payload(("trailer", 0), buf)
        blob = bytes(buf)
        first, offset = decode_payload(blob, 0)
        second, offset = decode_payload(blob, offset)
        assert first == payload
        assert second == ("trailer", 0)
        assert offset == len(blob)


@st.composite
def _message_strategy(draw):
    kind = draw(st.sampled_from(["bfs.explore", "nc.kcount", "ping", "le.flood"]))
    payload = draw(payloads)
    if draw(st.booleans()):
        # Explicit bit override, as make_id_message / make_counter_message use.
        return Message(kind=kind, payload=payload, bits=draw(st.integers(1, 10_000)))
    return Message(kind=kind, payload=payload)


class TestBatchCodec:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 500), _message_strategy()),
            max_size=20,
        )
    )
    def test_batch_roundtrip_preserves_order_bits_and_senders(self, deliveries):
        receivers = [r for r, _, _ in deliveries]
        inbounds = [Inbound(sender=s, message=m) for _, s, m in deliveries]
        encoder, decoder = WireEncoder(), WireDecoder()
        batch = encoder.encode(receivers, inbounds)
        assert batch.deliveries == len(deliveries)
        out_receivers, out_inbounds = decoder.decode(batch)
        assert out_receivers == receivers, "send order of receivers lost"
        assert [i.sender for i in out_inbounds] == [i.sender for i in inbounds]
        assert [i.kind for i in out_inbounds] == [i.kind for i in inbounds]
        assert [i.message.bits for i in out_inbounds] == [
            i.message.bits for i in inbounds
        ], "bit estimates must survive the wire"
        for original, decoded in zip(inbounds, out_inbounds):
            if original.payload == original.payload:  # skip NaN-containing
                assert decoded.message == original.message

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_channel_kind_table_stays_synchronized_across_batches(self, data):
        encoder, decoder = WireEncoder(), WireDecoder()
        seen_kinds = set()
        for _ in range(data.draw(st.integers(1, 5))):
            messages = data.draw(st.lists(_message_strategy(), max_size=8))
            inbounds = [Inbound(sender=i, message=m) for i, m in enumerate(messages)]
            batch = encoder.encode(list(range(len(inbounds))), inbounds)
            # Only genuinely new kinds ride along, each exactly once ever.
            assert set(batch.new_kinds).isdisjoint(seen_kinds)
            assert len(set(batch.new_kinds)) == len(batch.new_kinds)
            seen_kinds.update(batch.new_kinds)
            _, decoded = decoder.decode(batch)
            assert [i.kind for i in decoded] == [m.kind for m in messages]

    def test_broadcast_interning_reconstructed(self):
        message = make_id_message("bfs.explore", node_id=3, n=64)
        shared = Inbound(sender=3, message=message)
        other = Inbound(sender=5, message=Message(kind="ping"))
        encoder, decoder = WireEncoder(), WireDecoder()
        batch = encoder.encode([0, 1, 2, 0], [shared, shared, other, shared])
        # One table entry for the broadcast, referenced three times.
        assert len(batch.senders) == 2
        assert batch.deliveries == 4
        _, decoded = decoder.decode(batch)
        assert decoded[0] is decoded[1] is decoded[3]
        assert decoded[0] is not decoded[2]
        assert decoded[0].message.bits == message.bits

    def test_counter_message_bits_survive(self):
        # make_counter_message charges Theta(log n) for the counter, not the
        # Python int's width — the wire must not re-derive bits from payload.
        message = make_counter_message("nc.kcount", value=3, n=4096)
        encoder, decoder = WireEncoder(), WireDecoder()
        batch = encoder.encode([9], [Inbound(sender=1, message=message)])
        _, (decoded,) = decoder.decode(batch)
        assert decoded.message.bits == message.bits
        assert decoded.message.bits != Message(kind="nc.kcount", payload=(3,)).bits

    def test_empty_batch(self):
        encoder, decoder = WireEncoder(), WireDecoder()
        batch = encoder.encode([], [])
        assert batch.deliveries == 0 and batch.wire_bytes() == 0
        assert decoder.decode(batch) == ([], [])

    def test_wire_bytes_counts_columns_and_payloads(self):
        encoder = WireEncoder()
        message = Message(kind="k", payload="abcd")
        batch = encoder.encode([1], [Inbound(sender=2, message=message)])
        assert batch.wire_bytes() >= len(batch.payloads) + 8 * 5


class TestWireErrors:
    """A damaged batch, and the worker errors, are typed and picklable."""

    def test_garbage_blob_raises_wire_corruption_error(self):
        encoder = WireEncoder()
        decoder = WireDecoder()
        batch = encoder.encode(
            [1, 4],
            [
                Inbound(sender=0, message=Message(kind="ping", payload=(7,))),
                Inbound(sender=2, message=Message(kind="ping", payload=(9,))),
            ],
        )
        corrupted = batch._replace(payloads=b"\xff" * max(1, len(batch.payloads)))
        with pytest.raises(WireCorruptionError):
            decoder.decode(corrupted)

    def test_corruption_error_is_a_worker_error_and_picklable(self):
        error = WireCorruptionError("unknown tag 255")
        assert isinstance(error, ShardWorkerError)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, WireCorruptionError)
        assert clone.detail == error.detail

    def test_timeout_error_is_picklable(self):
        error = ShardWorkerTimeout((0, 2), 1.5, alive_shards=(2,))
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ShardWorkerTimeout)
        assert clone.shard_indices == (0, 2)
        assert clone.alive_shards == (2,)
        assert clone.timeout == 1.5
        assert isinstance(clone, ShardWorkerError)
