"""Tests for the serving workload generators (repro.serving.workload)."""

from itertools import islice
from types import GeneratorType

import pytest

from repro.serving.workload import (
    Request,
    bursty_stream,
    bursty_trace,
    diurnal_stream,
    diurnal_trace,
    long_context_stream,
    long_context_trace,
    merge_traces,
    poisson_stream,
    poisson_trace,
    rag_corpus_stream,
    rag_corpus_trace,
    replay_trace,
    shared_prefix_stream,
    shared_prefix_trace,
    weekly_stream,
    weekly_trace,
)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(0, -1.0, 10, 10)
        with pytest.raises(ValueError):
            Request(0, 0.0, 0, 10)
        with pytest.raises(ValueError):
            Request(0, 0.0, 10, 0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_arrival(self, arrival):
        # NaN fails every comparison, so a bare ``< 0`` check let it through
        # and the engine loop then never advanced past it.
        with pytest.raises(ValueError, match="must be non-negative") as info:
            Request(7, arrival, 10, 5)
        assert "request 7" in str(info.value)
        assert repr(arrival) in str(info.value)

    def test_total_tokens(self):
        assert Request(0, 0.0, 10, 5).total_tokens == 15


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = poisson_trace(50, 2.0, 1024, 256, seed=7)
        b = poisson_trace(50, 2.0, 1024, 256, seed=7)
        assert a == b

    def test_different_seed_different_trace(self):
        a = poisson_trace(50, 2.0, 1024, 256, seed=7)
        b = poisson_trace(50, 2.0, 1024, 256, seed=8)
        assert a != b

    def test_bursty_deterministic(self):
        assert bursty_trace(3, 4, 10.0, 4096, 256, seed=1) == bursty_trace(
            3, 4, 10.0, 4096, 256, seed=1
        )

    def test_long_context_deterministic(self):
        a = long_context_trace(40, 1.0, 1024, 65536, 0.3, 128, seed=3)
        assert a == long_context_trace(40, 1.0, 1024, 65536, 0.3, 128, seed=3)


class TestShapes:
    def test_poisson_sorted_and_positive(self):
        trace = poisson_trace(100, 4.0, 2048, 256, seed=0)
        assert len(trace) == 100
        arrivals = [r.arrival_time for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(r.prompt_tokens >= 1 and r.output_tokens >= 1 for r in trace)

    def test_poisson_mean_roughly_matches(self):
        trace = poisson_trace(500, 2.0, 2048, 256, seed=0)
        mean_prompt = sum(r.prompt_tokens for r in trace) / len(trace)
        assert 0.75 * 2048 < mean_prompt < 1.3 * 2048
        span = trace[-1].arrival_time
        assert 0.7 * 250 < span < 1.4 * 250  # 500 requests at 2/s

    def test_bursty_structure(self):
        trace = bursty_trace(3, 5, 10.0, 4096, 256, seed=0)
        assert len(trace) == 15
        # Bursts are 10 s apart, requests inside a burst nearly simultaneous.
        assert trace[5].arrival_time == pytest.approx(10.0, abs=0.1)
        assert trace[4].arrival_time - trace[0].arrival_time < 0.1

    def test_long_context_tail(self):
        trace = long_context_trace(300, 1.0, 1024, 65536, 0.3, 128, seed=0)
        long = [r for r in trace if r.prompt_tokens > 16384]
        assert 0.15 * len(trace) < len(long) < 0.45 * len(trace)

    def test_caps_respected(self):
        trace = poisson_trace(
            200, 1.0, 4096, 256, seed=0, prompt_cv=3.0, max_prompt_tokens=8192
        )
        assert max(r.prompt_tokens for r in trace) <= 8192


class TestStreams:
    """The lazy ``*_stream`` forms: identical requests, no materialization."""

    @pytest.mark.parametrize(
        "stream_fn, trace_fn, args",
        [
            (poisson_stream, poisson_trace, (40, 2.0, 1024, 128)),
            (bursty_stream, bursty_trace, (3, 5, 10.0, 2048, 128)),
            (long_context_stream, long_context_trace, (40, 1.0, 1024, 65536, 0.3, 128)),
            (shared_prefix_stream, shared_prefix_trace, (40, 2.0, 4096, 256, 128)),
            (rag_corpus_stream, rag_corpus_trace, (40, 2.0, 16, 2048, 128, 128)),
            (diurnal_stream, diurnal_trace, (40, 2.0, 1024, 128)),
            (weekly_stream, weekly_trace, (40, 2.0, 1024, 128)),
        ],
        ids=[
            "poisson",
            "bursty",
            "long-context",
            "shared-prefix",
            "rag-corpus",
            "diurnal",
            "weekly",
        ],
    )
    def test_stream_equals_trace(self, stream_fn, trace_fn, args):
        stream = stream_fn(*args, seed=3)
        assert isinstance(stream, GeneratorType)
        assert list(stream) == trace_fn(*args, seed=3)

    def test_streams_are_lazy(self):
        # Pulling a handful of requests off a million-request stream must
        # not materialize the rest (a list would allocate all of them).
        head = list(islice(poisson_stream(1_000_000, 100.0, 256, 32, seed=0), 5))
        assert len(head) == 5
        arrivals = [r.arrival_time for r in head]
        assert arrivals == sorted(arrivals)

    def test_diurnal_day_curve_shape(self):
        # The sine curve starts at the trough, peaks mid-period: the middle
        # half-period must see clearly more arrivals than the edges.
        trace = diurnal_trace(2000, 2.0, 256, 32, seed=0, period=1000.0, amplitude=0.8)
        arrivals = [r.arrival_time for r in trace if r.arrival_time < 1000.0]
        mid = sum(1 for t in arrivals if 250.0 <= t < 750.0)
        edges = len(arrivals) - mid
        assert arrivals == sorted(arrivals)
        assert mid > 1.5 * edges

    def test_weekly_weekend_trough(self):
        day = 1000.0
        trace = weekly_trace(
            4000, 2.0, 256, 32, seed=0, weekend_factor=0.3, day_seconds=day
        )
        week = [r.arrival_time for r in trace if r.arrival_time < 7 * day]
        weekday = sum(1 for t in week if t < 5 * day) / 5.0
        weekend = sum(1 for t in week if t >= 5 * day) / 2.0
        assert weekend < 0.6 * weekday


class TestReplayAndMerge:
    def test_replay_orders_by_arrival(self):
        trace = replay_trace([(5.0, 10, 2), (1.0, 20, 3)])
        assert [r.arrival_time for r in trace] == [1.0, 5.0]
        assert trace[0].prompt_tokens == 20

    def test_merge_reassigns_ids(self):
        a = replay_trace([(0.0, 10, 2), (4.0, 10, 2)])
        b = replay_trace([(2.0, 30, 5)])
        merged = merge_traces(a, b)
        assert [r.request_id for r in merged] == [0, 1, 2]
        assert [r.arrival_time for r in merged] == [0.0, 2.0, 4.0]
        assert merged[1].prompt_tokens == 30
