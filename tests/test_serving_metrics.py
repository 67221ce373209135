"""Tests for serving metrics (repro.serving.metrics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import _interpolate
from repro.serving.metrics import (
    SLO,
    RequestRecord,
    compute_metrics,
    compute_tenant_metrics,
    percentile,
)
from repro.serving.workload import Request


class TestPercentile:
    def test_endpoints_and_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


def _record(arrival, first, finish, prompt=100, output=11):
    record = RequestRecord(Request(0, arrival, prompt, output))
    record.first_token_time = first
    record.finish_time = finish
    return record


class TestRequestRecord:
    def test_latencies(self):
        record = _record(arrival=1.0, first=3.0, finish=8.0, output=11)
        assert record.ttft == pytest.approx(2.0)
        assert record.tpot == pytest.approx(0.5)  # 5 s over 10 decode tokens
        assert record.e2e_latency == pytest.approx(7.0)

    def test_single_token_output_has_zero_tpot(self):
        record = _record(arrival=0.0, first=2.0, finish=2.0, output=1)
        assert record.tpot == 0.0

    def test_unfinished_raises(self):
        record = RequestRecord(Request(0, 0.0, 10, 5))
        assert not record.finished
        with pytest.raises(ValueError):
            _ = record.ttft

    def test_slo(self):
        slo = SLO(ttft=1.0, tpot=0.1)
        good = _record(arrival=0.0, first=0.5, finish=1.0, output=11)
        assert good.meets(slo)
        slow_first = _record(arrival=0.0, first=1.5, finish=2.0, output=11)
        assert not slow_first.meets(slo)
        slow_decode = _record(arrival=0.0, first=0.5, finish=3.0, output=11)
        assert not slow_decode.meets(slo)


class TestComputeMetrics:
    def test_aggregates(self):
        records = [
            _record(0.0, 0.5, 1.5),
            _record(0.0, 1.0, 3.0),
            _record(0.0, 2.0, 6.0),
        ]
        metrics = compute_metrics(
            records,
            duration=6.0,
            slo=SLO(ttft=1.5, tpot=0.5),
            kv_utilization_mean=0.4,
            kv_utilization_peak=0.9,
            preemptions=3,
        )
        assert metrics.num_requests == 3
        assert metrics.ttft_p50 == pytest.approx(1.0)
        assert metrics.goodput_fraction == pytest.approx(2 / 3)
        assert metrics.requests_per_second == pytest.approx(0.5)
        assert metrics.output_tokens_per_second == pytest.approx(33 / 6.0)
        assert metrics.kv_utilization_peak == 0.9
        assert metrics.preemptions == 3

    def test_p95_percentiles_reported(self):
        # 21 records with linearly spaced latencies make every percentile an
        # exact interpolation point: p95 of [0..20] is 19, p50 is 10.
        records = [
            _record(0.0, 0.1 * i + 0.1, 0.1 * i + 0.1 + i, output=11)
            for i in range(21)
        ]
        metrics = compute_metrics(records, duration=30.0, slo=SLO())
        assert metrics.tpot_p95 == pytest.approx(percentile([r.tpot for r in records], 95))
        assert metrics.e2e_p95 == pytest.approx(percentile([r.e2e_latency for r in records], 95))
        assert metrics.tpot_p50 <= metrics.tpot_p95 <= metrics.tpot_p99
        assert metrics.e2e_p50 <= metrics.e2e_p95 <= metrics.e2e_p99
        rows = dict(metrics.to_rows())
        assert "TPOT p50 / p95 / p99" in rows
        assert "E2E p50 / p95 / p99" in rows

    def test_unfinished_excluded(self):
        records = [_record(0.0, 0.5, 1.5), RequestRecord(Request(1, 0.0, 10, 5))]
        metrics = compute_metrics(records, 2.0, SLO())
        assert metrics.num_requests == 1

    def test_no_finished_raises(self):
        with pytest.raises(ValueError):
            compute_metrics([RequestRecord(Request(0, 0.0, 10, 5))], 1.0, SLO())

    def test_to_text_renders(self):
        metrics = compute_metrics([_record(0.0, 0.5, 1.5)], 2.0, SLO())
        text = metrics.to_text(title="test table")
        assert "test table" in text
        assert "TTFT" in text and "goodput" in text.lower()


# ---------------------------------------------------------------------------
# Exact-backend oracle: a test-local reference built from ``sorted`` plus the
# one interpolation rule, with plain integer sums for every counter.
# ---------------------------------------------------------------------------

_QUANTILES = ((50, 0.5), (95, 0.95), (99, 0.99))


def _reference_percentiles(done):
    out = {}
    for metric, values in (
        ("ttft", [r.ttft for r in done]),
        ("tpot", [r.tpot for r in done]),
        ("e2e", [r.e2e_latency for r in done]),
    ):
        ordered = sorted(values)
        for p, q in _QUANTILES:
            out[f"{metric}_p{p}"] = _interpolate(ordered, q)
    return out


_TENANTS = ("alpha", "beta", "gamma")
_SLOS = st.builds(
    SLO,
    ttft=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
    tpot=st.floats(min_value=1e-3, max_value=0.5, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
            st.integers(min_value=1, max_value=64),
            st.sampled_from((None,) + _TENANTS),
            st.booleans(),
        ),
        min_size=1,
        max_size=300,
    ),
    slo=_SLOS,
    tenant_slos=st.dictionaries(st.sampled_from(_TENANTS), _SLOS, max_size=len(_TENANTS)),
    duration=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_exact_backend_matches_sorted_reference(rows, slo, tenant_slos, duration):
    records = []
    for i, (arrival, ttft, tail, output, tenant, finished) in enumerate(rows):
        record = RequestRecord(Request(i, arrival, 16, output, tenant=tenant))
        if finished:
            record.first_token_time = arrival + ttft
            record.finish_time = arrival + ttft + tail
        records.append(record)
    done = [r for r in records if r.finished]
    span = max(duration, 1e-12)

    if done:
        metrics = compute_metrics(records, duration, slo)
        good = sum(1 for r in done if r.meets(slo))
        tokens = sum(r.request.output_tokens for r in done)
        for name, value in _reference_percentiles(done).items():
            assert getattr(metrics, name) == value, name
        assert metrics.num_requests == len(done)
        assert metrics.output_tokens_per_second == tokens / span
        assert metrics.requests_per_second == len(done) / span
        assert metrics.goodput_fraction == good / len(done)
        assert metrics.goodput_rps == good / span
        assert metrics.slo == slo
    else:
        with pytest.raises(ValueError, match="0 finished"):
            compute_metrics(records, duration, slo)

    tenants = compute_tenant_metrics(records, duration, slo, tenant_slos=tenant_slos)
    groups = {}
    for record in done:
        if record.request.tenant is not None:
            groups.setdefault(record.request.tenant, []).append(record)
    assert list(tenants) == sorted(groups)
    for tenant, group in groups.items():
        got = tenants[tenant]
        tenant_slo = tenant_slos.get(tenant, slo)
        good = sum(1 for r in group if r.meets(tenant_slo))
        for name, value in _reference_percentiles(group).items():
            assert getattr(got, name) == value, (tenant, name)
        assert got.num_requests == len(group)
        assert got.output_tokens == sum(r.request.output_tokens for r in group)
        assert got.good_requests == good
        assert got.goodput_fraction == good / len(group)
        assert got.goodput_rps == good / span
        assert got.slo == tenant_slo
