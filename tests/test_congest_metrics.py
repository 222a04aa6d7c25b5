"""Tests for the round and run metrics."""

from __future__ import annotations

from repro.congest.metrics import RoundMetrics, RunMetrics


class TestRoundMetrics:
    def test_observe_message_accumulates(self):
        rm = RoundMetrics(round_index=1)
        rm.observe_message(10)
        rm.observe_message(30)
        assert rm.messages_sent == 2
        assert rm.bits_sent == 40
        assert rm.max_message_bits == 30


class TestRunMetrics:
    def test_absorb_round(self):
        run = RunMetrics()
        rm = RoundMetrics(round_index=1)
        rm.observe_message(16)
        run.absorb_round(rm, keep_trace=True)
        assert run.rounds == 1
        assert run.total_messages == 1
        assert run.total_bits == 16
        assert run.per_round == [rm]

    def test_absorb_round_without_trace(self):
        run = RunMetrics()
        rm = RoundMetrics(round_index=1)
        run.absorb_round(rm, keep_trace=False)
        assert run.per_round == []

    def test_merge_adds_rounds_and_maxes_bits(self):
        a = RunMetrics(rounds=3, total_messages=5, total_bits=100, max_message_bits=20)
        b = RunMetrics(rounds=2, total_messages=1, total_bits=10, max_message_bits=40)
        a.merge(b, label="phase-b")
        assert a.rounds == 5
        assert a.total_messages == 6
        assert a.max_message_bits == 40
        assert "phase-b" in a.protocol_breakdown
        assert a.protocol_breakdown["phase-b"].rounds == 2

    def test_merge_same_label_twice(self):
        a = RunMetrics()
        b = RunMetrics(rounds=2, total_messages=3, total_bits=30, max_message_bits=10)
        a.merge(b, label="x")
        a.merge(b, label="x")
        assert a.protocol_breakdown["x"].rounds == 4

    def test_mean_message_bits(self):
        a = RunMetrics(total_messages=4, total_bits=100)
        assert a.mean_message_bits == 25.0
        assert RunMetrics().mean_message_bits == 0.0

    def test_as_row(self):
        a = RunMetrics(rounds=2, total_messages=3, max_message_bits=9, max_messages_per_round=7)
        assert a.as_row() == (2, 3, 9, 7)
