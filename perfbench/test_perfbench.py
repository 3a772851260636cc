"""Tests of the benchmark's own helpers (no stage process is started)."""

import dataclasses
import types

import pytest

from metrics import count_failures, layer_metrics, nearest_rank, self_time, summarize, tail_percentile
from tracing import Tracer
from workloads import WORKLOADS, generate


def span(start, end, **extra):
    return {"start": start, "end": end, **extra}


class TestSelfTime:
    def test_no_children_is_whole_duration(self):
        assert self_time(span(2.0, 5.0), []) == 3.0

    def test_nested_overlapping_and_overhanging_children(self):
        parent = span(0.0, 10.0)
        children = [span(1.0, 3.0), span(2.0, 5.0), span(9.0, 12.0)]
        # covered: [1, 5] and [9, 10]
        assert self_time(parent, children) == pytest.approx(5.0)

    def test_children_in_any_order(self):
        parent = span(0.0, 4.0)
        assert self_time(parent, [span(3.0, 4.0), span(0.0, 1.0)]) == pytest.approx(2.0)


class TestPercentileRule:
    @pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (99, 50.0), (100, 90.0),
                                        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        assert tail_percentile(n) == pct

    def test_nearest_rank_is_a_sample(self):
        assert nearest_rank(range(1, 101), 90.0) == 90
        assert nearest_rank([5.0], 99.0) == 5.0

    def test_summary_gives_count_and_falls_back_to_median(self):
        few = summarize([3.0, 1.0, 2.0])
        assert few == {"median": 2.0, "tail_pct": 50.0, "tail": 2.0, "n": 3}
        many = summarize(range(1, 101))
        assert (many["tail_pct"], many["tail"], many["n"]) == (90.0, 90, 100)


class TestFailureCounting:
    def test_nonzero_exit_and_failed_check_each_fail_one_invocation(self):
        invocations = [
            {"exit_code": 0, "check_errors": []},
            {"exit_code": 1, "check_errors": []},
            {"exit_code": 0, "check_errors": ["report.csv has 3 rows, want 4"]},
            {"exit_code": 2, "check_errors": ["model.dbn: bad magic"]},
        ]
        assert count_failures(invocations) == (4, 3)

    def test_clean_run(self):
        assert count_failures([{"exit_code": 0, "check_errors": []}] * 5) == (5, 0)


class TestTracer:
    def make(self):
        ticks = iter(range(100))
        return Tracer(clock=lambda: float(next(ticks)))

    def test_missing_function_is_recorded_absent(self):
        tracer = self.make()
        ns = types.SimpleNamespace(present=lambda: 1)
        tracer.wrap(ns, "gone", "layer.gone")
        tracer.wrap(ns, "present", "layer.present")
        assert tracer.absent == ["layer.gone"]
        assert ns.present() == 1
        assert [s["name"] for s in tracer.spans] == ["layer.present"]

    def test_nested_calls_record_parents_and_attrs(self):
        tracer = self.make()
        ns = types.SimpleNamespace()
        ns.inner = lambda x: [x] * x
        ns.outer = lambda x: ns.inner(x) + ns.inner(1)
        tracer.wrap(ns, "inner", "inner", lambda args, result: {"rows": len(result)})
        tracer.wrap(ns, "outer", "outer")
        assert ns.outer(3) == [3, 3, 3, 1]
        outer, first, second = tracer.spans
        assert outer["parent"] is None and first["parent"] == second["parent"] == outer["id"]
        assert (first["rows"], second["rows"]) == (3, 1)
        # ticks: outer 0-5, inner 1-2 and 3-4
        assert self_time(outer, [first, second]) == pytest.approx(3.0)

    def test_span_closes_when_the_call_raises(self):
        tracer = self.make()

        def boom():
            raise ValueError("bad input")

        ns = types.SimpleNamespace(boom=boom)
        tracer.wrap(ns, "boom", "boom")
        with pytest.raises(ValueError):
            ns.boom()
        assert tracer.spans[0]["end"] is not None and not tracer._open

    def test_attrs_of_a_changed_signature_are_dropped(self):
        tracer = self.make()
        ns = types.SimpleNamespace(f=lambda: None)
        tracer.wrap(ns, "f", "f", lambda args, result: {"n": args[1].shape[0]})
        ns.f()
        assert tracer.spans[0]["attrs_missing"] is True


def test_layer_metrics_read_zero_when_nothing_was_traced():
    figures = layer_metrics([], {}, dgemm_gflops=40.0)
    assert figures["machine.dgemm_gflops"] == 40.0
    assert all(v == 0 for k, v in figures.items() if k != "machine.dgemm_gflops")


def test_generator_is_a_function_of_the_seed(tmp_path):
    tiny = dataclasses.replace(WORKLOADS["noise-sweep"], n_speakers=1, utterance_s=0.05, noise_s=0.05)

    def corpus(seed, name):
        clean, noise = generate(tiny, seed, tmp_path / name)
        return {p.relative_to(tmp_path / name): p.read_bytes()
                for p in sorted((tmp_path / name).rglob("*.wav"))}

    first, again, other = corpus(7, "a"), corpus(7, "b"), corpus(8, "c")
    assert first == again
    assert first != other
    assert len(first) == 7 + len(tiny.categories)
