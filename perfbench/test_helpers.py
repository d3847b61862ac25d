"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import gc
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import campaign, gauge, run, serve, stats  # noqa: E402
from perfbench.openloop import Sample, due_times  # noqa: E402
from perfbench.spans import (  # noqa: E402
    SpanTree,
    covered,
    from_chrome,
    ledger,
    self_time,
)
from repro.obs.trace import SpanRecord, to_chrome_trace  # noqa: E402


def _span(name, start, end, span_id, parent=None, rid="r", **attributes):
    return SpanRecord(name=name, trace_id=rid, span_id=span_id, parent_id=parent,
                      start=start, duration=end - start, attributes=attributes)


class TestPercentile:
    def test_value_count_and_samples_beyond(self):
        p = stats.percentile(range(1, 201), 95)
        assert p.count == 200
        assert p.value == pytest.approx(190.05)
        assert p.beyond == 10

    def test_matches_linear_interpolation_on_small_samples(self):
        assert stats.percentile([4, 1, 3, 2], 50).value == 2.5
        assert stats.percentile([7], 95).value == 7
        assert stats.percentile([7], 95).beyond == 0

    def test_failed_samples_are_infinitely_late(self):
        inf = float("inf")
        assert stats.percentile([1.0, 2.0, inf, inf], 50).value == inf
        p = stats.percentile([1.0, 2.0, 3.0, inf], 95)
        assert p.value == inf and p.beyond == 0
        assert stats.percentile([1.0, inf, inf], 50).value == inf

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1, 2], 100)

    def test_open_loop_phases_leave_ten_samples_beyond_p95(self):
        for workload in serve.WORKLOADS.values():
            count = int(workload.rate * 20 * serve.OPEN_SHARE)
            assert stats.percentile(range(count), 95).beyond >= 10
        assert stats.percentile(range(180), 95).beyond < 10


class TestGauge:
    def test_slowness_is_the_mean_burst_over_the_reference(self):
        inline = gauge.InlineGauge()
        inline.bursts = [0.5 * gauge.INLINE_REFERENCE_BURST_S,
                         1.5 * gauge.INLINE_REFERENCE_BURST_S]
        assert inline.slowness() == pytest.approx(1.0)
        assert inline.spent == pytest.approx(2 * gauge.INLINE_REFERENCE_BURST_S)

    def test_a_gauge_without_bursts_refuses_to_guess(self):
        with pytest.raises(RuntimeError):
            gauge.InlineGauge().slowness()

    def test_a_burst_leaves_the_collector_as_it_was(self):
        assert gauge.burst(1000) > 0
        assert gc.isenabled()

    def test_the_gauge_process_reports_bursts_and_stops(self):
        with gauge.Gauge() as g:
            deadline = time.monotonic() + 30
            while not g.bursts and time.monotonic() < deadline:
                time.sleep(0.05)
        assert g.bursts and g.slowness() > 0
        assert g._proc.poll() is not None


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        parent = _span("p", 0.0, 10.0, "p")
        kids = [_span("a", 1.0, 4.0, "a", "p"), _span("b", 3.0, 6.0, "b", "p")]
        assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
        assert self_time(parent, kids) == 5.0

    def test_children_are_clipped_to_the_parent(self):
        parent = _span("p", 0.0, 10.0, "p")
        kids = [_span("a", -2.0, 1.0, "a", "p"), _span("b", 9.0, 12.0, "b", "p")]
        assert self_time(parent, kids) == 8.0

    def test_nested_and_disjoint_children(self):
        assert covered(0, 10, [(1, 2), (1.5, 1.8), (5, 7), (20, 30)]) == 3.0
        assert covered(0, 10, []) == 0.0


class TestLedger:
    def _tree(self, worker_end):
        spans = [
            _span("client.color", 0.0, 10.0, "c"),
            _span("request", 1.0, 9.0, "r", "c"),
            _span("coalesce.batch", 2.0, 8.0, "b", "r"),
            _span("pool.task", 3.0, worker_end, "t", "b"),
            _span("engine_run", 4.0, 6.0, "e", "t"),
        ]
        return SpanTree(spans), spans[0]

    def test_stages_sum_to_root_when_nested(self):
        tree, root = self._tree(worker_end=7.0)
        stages = ledger(tree, root, {"client.color": "http", "request": "server",
                                     "coalesce.batch": "batch", "pool.task": "pool",
                                     "engine_run": "engine"})
        assert stages == {"http": 2.0, "server": 2.0, "batch": 2.0, "pool": 2.0,
                          "engine": 2.0, "unattributed": 0.0}

    def test_residual_shows_a_child_outside_its_parent(self):
        # The worker's span ends after its parent batch: the tree claims
        # 1.5 s more than the client waited, and the ledger says so.
        tree, root = self._tree(worker_end=9.5)
        stages = ledger(tree, root, {})
        assert sum(stages.values()) == pytest.approx(root.duration)
        assert stages["unattributed"] == pytest.approx(-1.5)

    def test_unmapped_spans_go_to_other(self):
        tree, root = self._tree(worker_end=7.0)
        stages = ledger(tree, root, {"client.color": "http"})
        assert stages["http"] == 2.0
        assert stages["other"] == pytest.approx(8.0)

    def test_chrome_round_trip(self):
        tree, root = self._tree(worker_end=7.0)
        back = from_chrome(json.loads(json.dumps(to_chrome_trace(tree.spans))))
        assert [(s.name, s.parent_id, s.trace_id) for s in back] == [
            (s.name, s.parent_id, s.trace_id) for s in tree.spans
        ]
        assert back[3].duration == pytest.approx(4.0)


class TestFollowerLedger:
    """A coalesced follower waits on its leader's batch, which the
    program records only under the leader's request."""

    def _run(self):
        spans = [
            _span("request", 0.0, 10.0, "r1", "c1", rid="t1"),
            _span("coalesce.batch", 2.0, 9.0, "b", "r1", rid="t1"),
            _span("pool.task", 3.0, 8.0, "t", "b", rid="t1"),
            _span("request", 1.0, 9.5, "r2", "c2", rid="t2"),
            _span("coalesce.follower", 2.0, 2.0, "f", "r2", rid="t2",
                  leader_span_id="b"),
        ]
        opened = [
            Sample(index=i, due=0.0, sent=0.0, done=dur, status=200, body={},
                   request_id=f"t{i}", span_id=f"c{i}", wall_sent=start)
            for i, start, dur in ((1, -0.5, 11.0), (2, 0.5, 9.5))
        ]
        return {"opened": opened, "server_spans": spans}

    def test_follower_is_charged_queue_batch_and_pool(self):
        from repro.obs.trace import FlightRecorder

        run_ = self._run()
        out = serve._ledger(run_, FlightRecorder(64))
        # The band (40th-60th percentile of two requests) is the
        # follower: 9.5 s client = 1.0 http + 0.5 server self (9.0-9.5)
        # + 1.0 queue (1.0-2.0) + 2.0 batch self + 5.0 pool task.
        assert out["ledger.followers"] == 1.0
        assert out["ledger.client_ms"] == pytest.approx(9.5e3)
        assert out["http.transport_ms"] == pytest.approx(1.0e3)
        assert out["server.request_self_ms"] == pytest.approx(0.5e3)
        assert out["coalesce.queue_wait_ms"] == pytest.approx(1.0e3)
        assert out["coalesce.batch_self_ms"] == pytest.approx(2.0e3)
        assert out["pool.task_self_ms"] == pytest.approx(5.0e3)
        assert out["ledger.unattributed_ms"] == pytest.approx(0.0, abs=1e-9)


class TestOpenLoopAccounting:
    def test_due_times_are_a_fixed_schedule(self):
        assert due_times(10.0, 4.0, 3) == [10.0, 10.25, 10.5]

    def test_latency_is_timed_from_the_due_time(self):
        late = Sample(index=1, due=1.0, sent=1.3, done=1.5, status=200, body={})
        assert late.latency == pytest.approx(0.5)
        assert late.service_time == pytest.approx(0.2)
        assert late.lag == pytest.approx(0.3)

    def test_growing_lateness_is_flagged(self):
        steady = [0.001 * (i % 3) for i in range(100)]
        growing = [0.002 * i for i in range(100)]
        assert not stats.trend_grew(steady, threshold=0.01)
        assert stats.trend_grew(growing, threshold=0.01)


class TestCampaignChecks:
    def _record(self, **result):
        flags = {"terminated": True, "proper": True, "palette_ok": True}
        return {"hash": "h", "status": "ok", "result": {**flags, **result}}

    def test_a_task_cut_off_before_terminating_is_failed_not_wrong(self):
        failure, wrong = campaign._check(self._record(terminated=False))
        assert failure and not wrong

    def test_an_improper_coloring_is_failed_and_wrong(self):
        failure, wrong = campaign._check(self._record(proper=False))
        assert failure and wrong

    def test_a_verified_task_passes(self):
        assert campaign._check(self._record()) == ("", "")


class TestBenchmarkFile:
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
