"""The engine registry and the column engine's dispatch semantics."""

import pickle

import pytest

import repro
from repro import Graph, SynchronousNetwork
from repro.core.color_reduction import _GreedyReductionProgram
from repro.core.hpartition import HPartitionProgram, degree_threshold
from repro.errors import SimulationError
from repro.graphs import forest_union
from repro.obs import RoundTelemetry
from repro.types import Orientation
from repro.simulator import (
    Engine,
    MessageTrace,
    engine_names,
    get_engine,
    register_engine,
)
from repro.simulator.engines import ENGINES


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert {"dense", "event", "column"} <= set(engine_names())

    def test_engine_names_sorted(self):
        assert list(engine_names()) == sorted(engine_names())

    def test_unknown_engine_error_lists_registered(self):
        with pytest.raises(SimulationError) as exc:
            get_engine("bogus")
        msg = str(exc.value)
        assert "bogus" in msg
        for name in engine_names():
            assert name in msg

    def test_get_engine_returns_registered_instance(self):
        eng = get_engine("event")
        assert isinstance(eng, Engine)
        assert eng.name == "event"

    def test_shadowing_builtin_warns_outside_pytest(self, monkeypatch):
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        original = ENGINES["event"]
        try:
            with pytest.warns(RuntimeWarning, match="shadows the built-in"):

                @register_engine("event")
                class ShadowEngine(Engine):
                    def execute(self, run):
                        original.execute(run)

        finally:
            ENGINES["event"] = original

    def test_shadowing_builtin_silent_under_pytest(self, recwarn):
        # PYTEST_CURRENT_TEST is set here, so the shadow is sanctioned.
        original = ENGINES["event"]
        try:

            @register_engine("event")
            class QuietShadow(Engine):
                def execute(self, run):
                    original.execute(run)

        finally:
            ENGINES["event"] = original
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_registering_fresh_name_never_warns(self, monkeypatch, recwarn):
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        try:

            @register_engine("test-fresh")
            class FreshEngine(Engine):
                def execute(self, run):
                    raise NotImplementedError

        finally:
            del ENGINES["test-fresh"]
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_register_engine_is_visible_to_networks(self):
        event = get_engine("event")

        @register_engine("test-proxy")
        class ProxyEngine(Engine):
            def execute(self, run):
                event.execute(run)

        try:
            assert "test-proxy" in engine_names()
            gen = forest_union(40, 2, seed=3)
            net = SynchronousNetwork(gen.graph, scheduler="test-proxy")
            threshold = degree_threshold(2, 0.5)
            got = net.run(lambda: HPartitionProgram(threshold))
            want = SynchronousNetwork(gen.graph).run(
                lambda: HPartitionProgram(threshold)
            )
            assert got == want
        finally:
            del ENGINES["test-proxy"]
        with pytest.raises(SimulationError):
            get_engine("test-proxy")

    def test_top_level_api_exports(self):
        for name in (
            "Graph",
            "SynchronousNetwork",
            "run_sweep",
            "ScenarioSpec",
            "SweepSpec",
            "Engine",
            "register_engine",
            "engine_names",
            "get_engine",
            "forest_union_bulk",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


def _hp_run(net, gen, **kwargs):
    threshold = degree_threshold(gen.arboricity_bound, 0.5)
    return net.run(lambda: HPartitionProgram(threshold), **kwargs)


class TestColumnDispatch:
    """Which engine actually executes is observable via telemetry: the
    ``scheduler`` reported to ``on_run_start`` is the *executing* engine."""

    def test_kernel_program_runs_on_column(self):
        gen = forest_union(80, 2, seed=5)
        net = SynchronousNetwork(gen.graph, scheduler="column")
        tel = RoundTelemetry()
        _hp_run(net, gen, telemetry=tel)
        assert tel.scheduler == "column"

    def test_program_without_kernel_falls_back_to_event(self):
        from repro.core.mis import _LubyProgram

        gen = forest_union(80, 2, seed=5)
        net = SynchronousNetwork(gen.graph, scheduler="column")
        tel = RoundTelemetry()
        net.run(lambda: _LubyProgram(3), telemetry=tel)
        assert tel.scheduler == "event"

    def test_trace_request_falls_back_to_event(self):
        class EngineTrace(MessageTrace):
            def on_run_start(self, n, scheduler):
                self.scheduler = scheduler

        gen = forest_union(80, 2, seed=5)
        net = SynchronousNetwork(gen.graph, scheduler="column")
        trace = EngineTrace()
        _hp_run(net, gen, telemetry=trace)
        assert trace.scheduler == "event"
        assert len(trace) > 0

    def test_subgraph_run_takes_kernel_path(self):
        gen = forest_union(80, 2, seed=5)
        net = SynchronousNetwork(gen.graph, scheduler="column")
        tel = RoundTelemetry()
        participants = list(range(0, 80, 2))
        _hp_run(net, gen, telemetry=tel, participants=participants)
        assert tel.scheduler == "column"

    def test_subgraph_run_falls_back_to_event(self):
        """Kernel-less programs still fall back on subset runs."""
        from repro.core.mis import _LubyProgram

        gen = forest_union(80, 2, seed=5)
        net = SynchronousNetwork(gen.graph, scheduler="column")
        tel = RoundTelemetry()
        net.run(
            lambda: _LubyProgram(3),
            telemetry=tel,
            participants=list(range(0, 80, 2)),
        )
        assert tel.scheduler == "event"

    def test_telemetry_round_stream_matches_event(self):
        """The engine-independent telemetry view — per-round message and
        byte counts — is identical between column and event, on the peel
        and on a sparse-palette greedy reduction (colour 7·v).  The event
        engine also executes the greedy's delivery-only rounds, which the
        kernel fast-forwards, so only the peel's sample counts agree."""
        gen = forest_union(120, 3, seed=9)
        n, target = gen.graph.n, gen.graph.max_degree + 1
        workloads = {
            "peel": lambda net, tel: _hp_run(net, gen, telemetry=tel),
            "greedy": lambda net, tel: net.run(
                lambda: _GreedyReductionProgram(lambda v: 7 * v, 7 * n, target),
                telemetry=tel,
            ),
        }
        for name, workload in workloads.items():
            tels = {}
            for engine in ("event", "column"):
                net = SynchronousNetwork(gen.graph, scheduler=engine)
                tel = tels[engine] = RoundTelemetry(count_bytes=True)
                workload(net, tel)
            assert tels["column"].scheduler == "column"  # kernel actually ran
            assert (
                tels["column"].message_rounds() == tels["event"].message_rounds()
            )
            assert tels["column"].total_messages == tels["event"].total_messages
            assert tels["column"].total_bytes == tels["event"].total_bytes
            if name == "peel":
                assert len(tels["column"].samples) == len(tels["event"].samples)

    @pytest.mark.parametrize("a", [4, 16])
    @pytest.mark.parametrize(
        "algorithm",
        [
            "be08",
            "cor46",
            "delta_plus_one",
            "forests",
            "linial",
            "mis_arboricity",
            "oneshot",
            "thm43",
        ],
    )
    def test_flagship_trials_run_only_on_column(self, algorithm, a, monkeypatch):
        """Every simulator run of a flagship trial executes a column kernel.

        Left out: the Luby baselines, which have no kernel, and
        ``thm52``/``thm53``, whose Arb-Kuhn recolor counts conflicts only
        against parents, a configuration the recolor kernel declines.
        """
        from repro.experiments import registry
        from repro.experiments.spec import TrialSpec

        engines = []

        class RecordingNetwork(SynchronousNetwork):
            def run(self, program_factory, **kwargs):
                tel = RoundTelemetry()
                try:
                    return super().run(program_factory, telemetry=tel, **kwargs)
                finally:
                    engines.append(tel.scheduler)

        monkeypatch.setattr(registry, "SynchronousNetwork", RecordingNetwork)
        registry.execute_trial(
            TrialSpec(
                family="forest_union",
                algorithm=algorithm,
                seed=1,
                family_params={"n": 300, "a": a},
            ).to_dict()
        )
        assert engines
        assert set(engines) == {"column"}

    @pytest.mark.parametrize("a", [4, 16])
    @pytest.mark.parametrize(
        "algorithm",
        ["be08", "cor46", "delta_plus_one", "mis_arboricity", "oneshot", "thm43"],
    )
    def test_column_path_reads_no_orientation_per_node(
        self, algorithm, a, monkeypatch
    ):
        """Simple-Arbdefective's kernel gathers its parents from the
        orientation's heads: with the per-node readers patched to raise,
        every run of these trials still takes the column path and the
        trial still verifies."""

        def refuse(*args):
            raise AssertionError("per-node orientation read on the column path")

        monkeypatch.setattr(Orientation, "parents_of", refuse)
        monkeypatch.setattr(Orientation, "head", refuse)
        monkeypatch.setattr(Orientation, "direction", property(refuse), raising=False)
        self.test_flagship_trials_run_only_on_column(algorithm, a, monkeypatch)

    @pytest.mark.parametrize(
        "over,engine", [("pickled copy", "column"), ("another graph", "event")]
    )
    def test_simple_arbdefective_orientation_graph(self, over, engine):
        """An orientation over an equal graph object feeds the kernel; one
        over another graph declines it, and the scalar path reads its
        parents.  Both runs match dense."""
        from repro.core.arbdefective import _SimpleArbdefectiveProgram

        graph = forest_union(90, 3, seed=13).graph
        if over == "pickled copy":
            base = pickle.loads(pickle.dumps(graph))
            assert base == graph and base is not graph
        else:
            base = Graph(graph.vertices, graph.edges[1:])
        orientation = Orientation.from_order(base, base.vertices[::-1])
        factory = lambda: _SimpleArbdefectiveProgram(orientation, 3)
        dense = SynchronousNetwork(graph, scheduler="dense").run(
            factory, count_bytes=True
        )
        tel = RoundTelemetry()
        column = SynchronousNetwork(graph, scheduler="column").run(
            factory, count_bytes=True, telemetry=tel
        )
        assert tel.scheduler == engine
        assert column == dense


class TestSchedulerKnob:
    """The sweep layer's engine selection: spec -> trial -> provenance."""

    def test_trial_key_stable_when_scheduler_unset(self):
        from repro.experiments.spec import TrialSpec

        t = TrialSpec(family="forest_union", algorithm="linial", seed=3)
        assert "scheduler" not in t.to_dict()  # legacy cache keys unchanged

    def test_scheduler_flows_into_key_and_round_trips(self):
        from repro.experiments.spec import ScenarioSpec, TrialSpec

        base = TrialSpec(family="forest_union", algorithm="linial", seed=3)
        col = TrialSpec(
            family="forest_union", algorithm="linial", seed=3,
            scheduler="column",
        )
        assert col.key() != base.key()
        assert TrialSpec.from_dict(col.to_dict()) == col
        sc = ScenarioSpec(
            family="forest_union", algorithm="linial",
            scheduler="column", num_seeds=2,
        )
        assert all(t.scheduler == "column" for t in sc.trials())
        assert ScenarioSpec.from_dict(sc.to_dict()).scheduler == "column"

    def test_scheduler_does_not_shift_derived_seeds(self):
        """Engine A/B cells must run on the *same* graphs."""
        from repro.experiments.spec import ScenarioSpec

        mk = lambda sched: ScenarioSpec(
            family="forest_union", algorithm="linial",
            scheduler=sched, num_seeds=3,
        )
        assert mk("column").resolved_seeds() == mk("").resolved_seeds()

    def test_execute_trial_records_and_uses_engine(self):
        from repro.experiments.registry import execute_trial
        from repro.experiments.spec import TrialSpec

        mk = lambda sched: TrialSpec(
            family="forest_union", algorithm="mis_arboricity", seed=1,
            family_params={"n": 60, "a": 2}, scheduler=sched,
        ).to_dict()
        rec_evt = execute_trial(mk("event"))
        rec_def = execute_trial(mk(""))
        assert rec_evt["provenance"]["scheduler"] == "event"
        assert rec_def["provenance"]["scheduler"] == "column"
        # engine choice never leaks into metrics
        assert rec_evt["metrics"] == rec_def["metrics"]
