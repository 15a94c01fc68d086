"""Unit tests for the benchmark's own arithmetic (``e2ebench/stats.py``)."""

from __future__ import annotations

import math
import statistics

import pytest

from e2ebench import stats


class TestNearestRank:
    def test_picks_the_ceiling_rank(self):
        values = list(range(1, 101))  # 1..100
        assert stats.nearest_rank(values, 50) == 50
        assert stats.nearest_rank(values, 99) == 99
        assert stats.nearest_rank(values, 100) == 100

    def test_is_a_sample_value_not_an_interpolation(self):
        assert stats.nearest_rank([10.0, 20.0], 50) == 10.0
        assert stats.nearest_rank([10.0, 20.0], 51) == 20.0

    def test_order_of_input_does_not_matter(self):
        assert stats.nearest_rank([5, 1, 4, 2, 3], 60) == 3

    def test_tiny_percentile_is_the_minimum(self):
        assert stats.nearest_rank([3, 1, 2], 0.001) == 1

    @pytest.mark.parametrize("p", [0, -1, 100.5])
    def test_rejects_out_of_range_percentiles(self, p):
        with pytest.raises(ValueError):
            stats.nearest_rank([1, 2, 3], p)

    def test_rejects_empty_samples(self):
        with pytest.raises(ValueError):
            stats.nearest_rank([], 50)

    def test_failed_requests_as_infinity_land_in_the_tail(self):
        values = [1.0] * 989 + [math.inf] * 11
        assert stats.nearest_rank(values, 99) == math.inf
        assert stats.nearest_rank(values, 50) == 1.0


class TestTenBeyondRule:
    def test_samples_beyond_counts_above_the_rank(self):
        assert stats.samples_beyond(1000, 99) == 10
        assert stats.samples_beyond(999, 99) == 9
        assert stats.samples_beyond(100, 50) == 50

    def test_1000_samples_support_p99(self):
        values = list(range(1000))
        assert stats.tail_percentile(values, 99) == 989

    def test_999_samples_do_not(self):
        with pytest.raises(ValueError, match="leaves 9 beyond"):
            stats.tail_percentile(list(range(999)), 99)


class TestOkFrac:
    def test_ratio(self):
        assert stats.ok_frac(3, 4) == 0.75
        assert stats.ok_frac(5, 5) == 1.0

    def test_zero_attempts_is_zero_not_a_division_error(self):
        assert stats.ok_frac(0, 0) == 0.0

    @pytest.mark.parametrize("ok, attempted", [(2, 1), (-1, 3), (0, -1)])
    def test_rejects_impossible_counts(self, ok, attempted):
        with pytest.raises(ValueError):
            stats.ok_frac(ok, attempted)


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(0.0, 10.0, []) == 10.0

    def test_disjoint_children(self):
        assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        # two parallel scatter legs covering 2..8 between them
        legs = [(2.0, 7.0), (3.0, 8.0)]
        assert stats.self_time(0.0, 10.0, legs) == pytest.approx(4.0)

    def test_nested_and_identical_children(self):
        children = [(2.0, 6.0), (3.0, 4.0), (2.0, 6.0)]
        assert stats.self_time(0.0, 10.0, children) == pytest.approx(6.0)

    def test_children_are_clipped_to_the_parent(self):
        assert stats.self_time(5.0, 10.0, [(0.0, 6.0), (9.0, 20.0)]) == pytest.approx(3.0)

    def test_touching_children(self):
        assert stats.self_time(0.0, 4.0, [(0.0, 2.0), (2.0, 4.0)]) == pytest.approx(0.0)

    def test_union_length_ignores_empty_intervals(self):
        assert stats.union_length([(3.0, 3.0), (5.0, 4.0)]) == 0.0


class TestGemmBytes:
    def test_single_query_against_a_float64_shard(self):
        # 1x64 query, 65536x64 f8 shard: operands + norms + 1x65536 result
        m, n, k = 1, 65536, 64
        expected = 8 * 64 + 8 * n * k + 8 * (1 + n) + 8 * n
        assert stats.gemm_bytes(m, n, k, 8) == expected

    def test_float32_shard_halves_the_stored_operand(self):
        f8 = stats.gemm_bytes(4, 1000, 64, 8)
        f4 = stats.gemm_bytes(4, 1000, 64, 4)
        assert f8 - f4 == 4 * 1000 * 64

    def test_output_grows_with_both_sides(self):
        assert stats.gemm_bytes(2, 3, 1, 8) == 8 * 2 + 8 * 3 + 8 * 5 + 8 * 6


class TestQuartileSpread:
    def test_matches_statistics_quantiles(self):
        values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
        q1, med, q3 = statistics.quantiles(values, n=4)
        assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / med)

    def test_constant_values_have_no_spread(self):
        assert stats.quartile_spread([1.0] * 10) == 0.0

    def test_zero_median_is_undefined(self):
        with pytest.raises(ValueError):
            stats.quartile_spread([0.0] * 5)


def test_mean_of_nothing_is_zero():
    assert stats.mean([]) == 0.0
    assert stats.mean(iter([1.0, 2.0, 3.0])) == 2.0


def test_router_self_time_from_spans_with_parallel_legs():
    from e2ebench import tracing

    # router span 0..10 ms with two overlapping legs 1..6 and 2..8
    spans = [
        ("client.execute", 0.001, 0.006, 2, 1, None),
        ("client.execute", 0.002, 0.008, 3, 1, None),
        ("router.execute", 0.000, 0.010, 1, None, None),
    ]
    spanset = tracing.SpanSet([("front", spans)])
    assert spanset.mean_self_s("router.execute") == pytest.approx(0.003)
    router = spanset.spans("router.execute")[0]
    assert len(spanset.kids(router, "client.execute")) == 2


def test_span_ids_are_per_process():
    from e2ebench import tracing

    # the same ids in two processes must not adopt each other's children
    a = [("service.execute", 0.0, 1.0, 1, None, None), ("estimators.gemm", 0.2, 0.4, 2, 1, None)]
    b = [("service.execute", 0.0, 1.0, 1, None, None)]
    spanset = tracing.SpanSet([("backend-a", a), ("backend-b", b)])
    assert spanset.mean_self_s("service.execute") == pytest.approx((0.8 + 1.0) / 2)


def test_environment_stripping():
    from e2ebench import run

    env = {"REPRO_SERVING_WORKERS": "4", "OMP_NUM_THREADS": "1", "PATH": "/bin", "REPRO_STORE_DTYPE": "f4"}
    assert run.strip_environment(env) == ["OMP_NUM_THREADS", "REPRO_SERVING_WORKERS", "REPRO_STORE_DTYPE"]
    assert env == {"PATH": "/bin"}


def test_a_pause_is_per_thread_and_reaches_fan_out_workers():
    import threading
    import types

    from e2ebench import tracing

    calls = types.SimpleNamespace(
        work=lambda: None,
        run_ordered=lambda fn, items: [fn(item) for item in items],
    )
    tracer = tracing.Tracer("bench")
    tracer.wrap(calls, "work", "layer.work")
    tracer.propagate(calls)
    tracer.enabled = True
    with tracer.paused():
        calls.work()
        calls.run_ordered(lambda _: calls.work(), [1, 2])
        other = threading.Thread(target=calls.work)
        other.start()
        other.join()
    assert [span[0] for span in tracer.spans] == ["layer.work"]  # only the other thread's
    calls.work()
    assert len(tracer.spans) == 2
