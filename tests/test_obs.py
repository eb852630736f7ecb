"""The observability spine: telemetry sinks, trace spans, topology, trends.

Covers the three layers end to end — ``RoundTelemetry`` fed by both
schedulers, the sweep's JSONL trace writer plus its summarizer and CLI
surface, the host-topology block, and the standalone bench-pipeline
scripts (``report_trends.py``, topology-aware ``check_perf_regression.py``)
loaded straight from ``benchmarks/``.
"""

import importlib.util
import json
import os

import pytest

from repro import SynchronousNetwork
from repro.cli import main
from repro.core import greedy_reduction, mis_arboricity
from repro.experiments import ResultCache, SweepSpec, grid_scenarios, run_sweep
from repro.graphs import forest_union
from repro.obs import (
    TRACE_SCHEMA,
    RoundTelemetry,
    Telemetry,
    TraceWriter,
    read_trace,
    summarize_trace,
    topology,
)

BENCHMARKS_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def load_bench_script(name):
    """Import a standalone ``benchmarks/`` script by path (not a package)."""
    path = os.path.join(BENCHMARKS_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_with_telemetry(scheduler, graph, runner, telemetry):
    """Attach a telemetry sink to every ``run`` of a library algorithm."""
    net = SynchronousNetwork(graph, scheduler=scheduler)
    original_run = net.run

    def run(*args, **kwargs):
        kwargs.setdefault("telemetry", telemetry)
        return original_run(*args, **kwargs)

    net.run = run
    return runner(net)


class TestRoundTelemetry:
    def test_base_sink_is_noop(self):
        """The base class accepts every hook without effect (the contract
        custom sinks override selectively)."""
        sink = Telemetry()
        assert sink.wants_messages is False and sink.wants_bytes is False
        sink.on_run_start(5, "event")
        sink.on_round(0, 5, 2, 10, 0, 0)
        sink.on_fast_forward(3, 7)
        sink.on_message(1, 0, 1, "x")
        sink.on_run_end(None)

    def test_counters_and_summary(self):
        gen = forest_union(100, 3, seed=11)
        tel = RoundTelemetry()
        result = run_with_telemetry(
            "event", gen.graph, lambda net: mis_arboricity(net, 3), tel
        )
        assert result.members  # the run actually happened
        assert tel.runs > 1  # composite algorithm: several net.run calls
        assert tel.n == gen.graph.n and tel.scheduler == "event"
        assert tel.total_messages > 0
        assert tel.peak_active <= gen.graph.n
        summary = tel.summary()
        json.dumps(summary)  # must be JSON-serialisable as emitted
        for key in (
            "runs",
            "rounds_executed",
            "fast_forwarded_rounds",
            "active_node_rounds",
            "messages",
            "message_bytes",
            "max_round_messages",
            "wake_transitions",
            "idle_transitions",
        ):
            assert key in summary, key
        assert summary["messages"] == tel.total_messages

    def test_wants_bytes_forces_byte_accounting(self):
        gen = forest_union(80, 2, seed=12)
        plain = RoundTelemetry()
        run_with_telemetry(
            "event", gen.graph, lambda net: mis_arboricity(net, 2), plain
        )
        assert plain.total_bytes == 0  # bytes not counted unless asked
        counting = RoundTelemetry(count_bytes=True)
        run_with_telemetry(
            "event", gen.graph, lambda net: mis_arboricity(net, 2), counting
        )
        assert counting.wants_bytes and counting.total_bytes > 0
        assert counting.total_messages == plain.total_messages

    def test_fast_forward_accounting(self):
        """Executed samples plus fast-forwarded rounds tile the run: no
        round is double-counted or lost when the event engine skips."""
        gen = forest_union(120, 3, seed=13)
        graph = gen.graph
        target = graph.max_degree + 1
        colors = {v: 7 * v for v in graph.vertices}

        def workload(net):
            return greedy_reduction(net, dict(colors), 7 * graph.n, target)

        dense = RoundTelemetry()
        event = RoundTelemetry()
        run_with_telemetry("dense", graph, workload, dense)
        run_with_telemetry("event", graph, workload, event)
        assert dense.fast_forwarded == 0
        assert len(dense.samples) == dense.last_round + 1
        assert event.fast_forwarded > 0
        assert len(event.samples) + event.fast_forwarded == event.last_round + 1
        assert dense.last_round == event.last_round

    def test_message_rounds_engine_independent(self):
        """Rounds with traffic — the engine-independent view — agree even
        though the engines disagree about which rounds they executed."""
        gen = forest_union(100, 3, seed=14)
        dense = RoundTelemetry()
        event = RoundTelemetry()
        run_with_telemetry(
            "dense", gen.graph, lambda net: mis_arboricity(net, 3), dense
        )
        run_with_telemetry(
            "event", gen.graph, lambda net: mis_arboricity(net, 3), event
        )
        assert dense.message_rounds() == event.message_rounds()
        assert dense.total_messages == event.total_messages
        # scheduling diagnostics are engine-specific by design
        assert dense.wake_transitions == 0
        assert event.active_node_rounds() <= dense.active_node_rounds()


class TestTraceWriter:
    def test_emit_read_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as tw:
            tw.emit("sweep", "start", sweep="x", trials=2)
            tw.emit("stage", "span", name="verify", dur_s=0.5, trial="a", pid=1)
            assert tw.emitted == 2
        events = read_trace(path)
        assert [e["kind"] for e in events] == ["sweep", "stage"]
        assert all(e["schema"] == TRACE_SCHEMA for e in events)
        assert all(isinstance(e["t"], float) for e in events)
        assert events[1]["name"] == "verify"

    def test_append_mode_and_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as tw:
            tw.emit("sweep", "start")
        with open(path, "a") as fh:
            fh.write("not json\n\n")
        with TraceWriter(path) as tw:  # append, never truncate
            tw.emit("sweep", "end")
        events = read_trace(path)
        assert [(e["kind"], e["event"]) for e in events] == [
            ("sweep", "start"),
            ("sweep", "end"),
        ]

    def test_summarize_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as tw:
            tw.emit("sweep", "start", sweep="x", trials=2, workers=2)
            tw.emit("cache", "miss", key="abc", trial="t0")
            tw.emit("cache", "hit", key="def", trial="t1")
            tw.emit("graphstore", "build", graph="abc", build_s=0.1)
            tw.emit("stage", "span", name="verify", dur_s=0.25, trial="t0", pid=7)
            tw.emit("stage", "span", name="verify", dur_s=0.75, trial="t1", pid=7)
            tw.emit("sweep", "end", trials=2, wall_s=1.0)
        summary = summarize_trace(path)
        assert summary["events"] == 7
        assert summary["cache"] == {"hit": 1, "miss": 1}
        assert summary["graphstore"] == {"build": 1}
        assert summary["stages"]["verify"]["count"] == 2
        assert summary["stages"]["verify"]["total_s"] == pytest.approx(1.0)
        assert summary["workers"][7]["trials"] == 0  # no trial events
        assert summary["workers"][7]["busy_s"] == pytest.approx(1.0)


class TestSweepTracing:
    @staticmethod
    def shared_spec(n=40):
        """Two algorithms on the same family/seed: the trials share one
        graph, so the GraphStore lifecycle actually fires."""
        return SweepSpec(
            "obs",
            grid_scenarios(
                families=[{"name": "forest_union", "n": n, "a": 2}],
                algorithms=[{"name": "cor46"}, {"name": "forests"}],
                seeds=[0, 1],
            ),
        )

    def test_pool_sweep_emits_full_trace(self, tmp_path):
        trace_path = tmp_path / "sweep.jsonl"
        result = run_sweep(self.shared_spec(), workers=2, trace=str(trace_path))
        assert result.num_trials == 4
        events = read_trace(trace_path)
        kinds = {e["kind"] for e in events}
        assert {"sweep", "pool", "stage", "trial", "graphstore"} <= kinds
        sweep_events = [e for e in events if e["kind"] == "sweep"]
        assert [e["event"] for e in sweep_events] == ["start", "end"]
        assert sweep_events[0]["trials"] == 4
        assert "topology" in sweep_events[0]
        assert sweep_events[1]["wall_s"] > 0
        # one span per stage per executed trial, re-emitted by the parent
        stage_names = {e["name"] for e in events if e["kind"] == "stage"}
        assert stage_names == {"build_graph", "run_algorithm", "verify", "metrics"}
        assert len([e for e in events if e["kind"] == "trial"]) == 4
        # shm pool: workers build the shared graphs, the parent expects
        # then adopts their segments and reclaims them at close
        store_events = {e["event"] for e in events if e["kind"] == "graphstore"}
        assert {"expect", "adopt", "close"} <= store_events

    def test_serial_sweep_traces_inline_builds(self, tmp_path):
        """The serial backend runs the same build payloads inline: the
        parent adopts each graph object (no segment is expected or
        reclaimed) and evicts it after its last trial."""
        trace_path = tmp_path / "sweep.jsonl"
        run_sweep(self.shared_spec(), trace=str(trace_path))
        events = read_trace(trace_path)
        store = [e for e in events if e["kind"] == "graphstore"]
        assert [e["event"] for e in store].count("adopt") == 2
        assert {e["event"] for e in store} == {"adopt", "evict"}
        adopts = [e for e in store if e["event"] == "adopt"]
        assert all(e["transport"] == "object" and e["build_s"] >= 0
                   for e in adopts)
        (dispatch,) = [e for e in events if e["kind"] == "pool"]
        assert dispatch["executor"] == "serial"
        assert dispatch["shared_graphs"] == 2

    def test_cache_hits_traced_and_file_appended(self, tmp_path):
        trace_path = tmp_path / "sweep.jsonl"
        cache = ResultCache(tmp_path / "cache")
        spec = self.shared_spec()
        run_sweep(spec, cache=cache, workers=1, trace=str(trace_path))
        first = len(read_trace(trace_path))
        result = run_sweep(spec, cache=cache, workers=1, trace=str(trace_path))
        assert result.cache_hits == 4
        events = read_trace(trace_path)[first:]
        cache_events = [e for e in events if e["kind"] == "cache"]
        assert [e["event"] for e in cache_events] == ["hit"] * 4
        assert all(e["key"] for e in cache_events)
        # cache hits execute nothing: no stage spans in the second run
        assert not [e for e in events if e["kind"] == "stage"]

    def test_cli_sweep_trace_and_report(self, tmp_path, capsys):
        trace_path = tmp_path / "cli.jsonl"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(self.shared_spec().to_json())
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--no-cache",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace appended" in out
        assert read_trace(trace_path)
        assert main(["report", "trace", str(trace_path)]) == 0
        report = capsys.readouterr().out
        assert "stage spans" in report
        assert "worker utilization" in report
        assert "run_algorithm" in report

    def test_report_trace_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "trace", str(tmp_path / "nope.jsonl")])


class TestTopology:
    def test_block_shape(self):
        topo = topology()
        required = {"cpu_count", "effective_workers", "shm_available"}
        # mem_gb appears when the host exposes physical-memory sysconf
        assert required <= set(topo) <= required | {"mem_gb"}
        assert isinstance(topo["cpu_count"], int) and topo["cpu_count"] >= 1
        assert 1 <= topo["effective_workers"] <= max(topo["cpu_count"], 8)
        assert isinstance(topo["shm_available"], bool)
        if "mem_gb" in topo:
            assert isinstance(topo["mem_gb"], float) and topo["mem_gb"] > 0
        json.dumps(topo)


class TestReportTrends:
    @staticmethod
    def fake_record(tmp_path, name, *, bench="b", ts, sha, **metrics):
        rec = {"schema": 1, "bench": bench, "metrics": metrics}
        if ts:
            rec["timestamp"] = ts
            rec["git_sha"] = sha
        path = tmp_path / name
        path.write_text(json.dumps(rec))
        return str(path)

    def test_sparkline(self):
        trends = load_bench_script("report_trends")
        assert trends.sparkline([]) == ""
        assert trends.sparkline([2.0]) == "▄"
        assert trends.sparkline([1.0, 1.0]) == "▄▄"
        line = trends.sparkline([1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█" and len(line) == 3

    def test_trajectory_from_history(self, tmp_path):
        trends = load_bench_script("report_trends")
        paths = [
            self.fake_record(
                tmp_path, "base.json", ts=None, sha=None, x_speedup=2.0
            ),
            self.fake_record(
                tmp_path,
                "r1.json",
                ts="2026-08-01T00:00:00Z",
                sha="aaaa111122223333",
                x_speedup=2.5,
                wall_s=3.0,
            ),
            self.fake_record(
                tmp_path,
                "r2.json",
                ts="2026-08-02T00:00:00Z",
                sha="bbbb111122223333",
                x_speedup=5.0,
                wall_s=2.0,
            ),
        ]
        rows = trends.trend_rows(trends.load_records(paths))
        by_metric = {r[1]: r for r in rows}
        assert set(by_metric) == {"x_speedup", "wall_s"}
        x = by_metric["x_speedup"]
        assert x[3] == "2" and x[4] == "5"  # first (baseline) and latest
        assert x[5] == "+100.0%"  # 2.5 -> 5.0 against the previous run
        assert x[6] == "3" and x[7] == "bbbb111122"
        assert by_metric["wall_s"][3] == "3"  # baseline lacks it: starts at r1

    def test_main_writes_markdown(self, tmp_path, capsys):
        trends = load_bench_script("report_trends")
        paths = [
            self.fake_record(tmp_path, "a.json", ts=None, sha=None, y_speedup=1.0),
            self.fake_record(
                tmp_path,
                "b.json",
                ts="2026-08-01T00:00:00Z",
                sha="cafe000011112222",
                y_speedup=1.5,
            ),
        ]
        out_path = tmp_path / "TRENDS.md"
        assert trends.main([*paths, "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert "| bench | metric |" in text and "y_speedup" in text
        assert trends.main([str(tmp_path / "missing.json")]) == 1


class TestTopologyAwareGate:
    @staticmethod
    def write(tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_parallelism_floors_skipped_on_small_box(self, tmp_path, capsys):
        gate = load_bench_script("check_perf_regression")
        cur = self.write(
            tmp_path,
            "cur.json",
            {
                "topology": {"cpu_count": 1},
                "metrics": {
                    "shared_speedup": 2.5,
                    "overlap_speedup": 0.9,  # would fail if gated
                },
            },
        )
        base = self.write(
            tmp_path,
            "base.json",
            {
                "topology": {"min_cores": 4},
                "parallelism_dependent": ["overlap_speedup"],
                "metrics": {"shared_speedup": 2.2, "overlap_speedup": 1.5},
            },
        )
        assert gate.main([cur, base]) == 0
        out = capsys.readouterr().out
        assert "SKIP overlap_speedup" in out
        assert "OK  shared_speedup" in out

    def test_parallelism_floor_gated_on_big_box(self, tmp_path, capsys):
        gate = load_bench_script("check_perf_regression")
        cur = self.write(
            tmp_path,
            "cur.json",
            {"topology": {"cpu_count": 8}, "metrics": {"overlap_speedup": 0.9}},
        )
        base = self.write(
            tmp_path,
            "base.json",
            {
                "topology": {"min_cores": 4},
                "parallelism_dependent": ["overlap_speedup"],
                "metrics": {"overlap_speedup": 1.5},
            },
        )
        assert gate.main([cur, base]) == 1
        assert "FAIL overlap_speedup" in capsys.readouterr().out

    def test_absolute_floor_no_tolerance(self, tmp_path, capsys):
        gate = load_bench_script("check_perf_regression")
        base = self.write(
            tmp_path, "base.json", {"floors": {"overhead_speedup": 0.97}}
        )
        ok = self.write(
            tmp_path, "ok.json", {"metrics": {"overhead_speedup": 0.98}}
        )
        assert gate.main([ok, base]) == 0
        # 0.96 would pass a 15%-tolerance gate; absolute floors must not
        bad = self.write(
            tmp_path, "bad.json", {"metrics": {"overhead_speedup": 0.96}}
        )
        assert gate.main([bad, base]) == 1
        missing = self.write(tmp_path, "missing.json", {"metrics": {}})
        assert gate.main([missing, base]) == 1

    def test_only_restricts_gating(self, tmp_path, capsys):
        gate = load_bench_script("check_perf_regression")
        cur = self.write(
            tmp_path,
            "cur.json",
            {
                "topology": {"cpu_count": 8},
                "metrics": {"a_speedup": 0.1, "b_speedup": 3.0},
            },
        )
        base = self.write(
            tmp_path,
            "base.json",
            {"metrics": {"a_speedup": 2.0, "b_speedup": 2.0}},
        )
        assert gate.main([cur, base, "--only", "b_speedup"]) == 0
        assert gate.main([cur, base]) == 1
        # --only naming nothing gated is an error, not a silent pass
        assert gate.main([cur, base, "--only", "nope_speedup"]) == 2
