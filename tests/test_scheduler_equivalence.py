"""Engine equivalence across the algorithm library.

Every engine in the registry must be an *observationally invisible*
optimisation over the ``dense`` reference: for every algorithm on every
instance, it must produce byte-identical results — the same outputs, the
same round count (the paper's complexity measure!), the same message and
byte accounting.  All result types are dataclasses, so ``==`` compares
every field including nested params.

The suite is parametrized over :func:`repro.simulator.engine_names`, so a
newly registered engine is pinned against the reference automatically.  It
runs every ``core/`` algorithm under every engine on a forest-union, a
planar-triangulation, and a preferential-attachment instance — including
programs with no column kernel, which exercises the column engine's
fallback path; a separate test checks raw :class:`RunResult` equality (all
five fields, with byte counting on) for programs that declare quiescence.
"""

import pytest

from typing import ClassVar

from repro import SynchronousNetwork
from repro.core import (
    arb_kuhn_decomposition,
    arbdefective_coloring,
    be08_coloring,
    cole_vishkin_forest,
    complete_orientation,
    compute_hpartition,
    delta_plus_one_via_arboricity,
    forest_mis,
    forests_decomposition,
    kuhn_defective_coloring,
    legal_coloring_auto,
    legal_coloring_corollary44,
    legal_coloring_corollary46,
    legal_coloring_theorem43,
    legal_coloring_tradeoff45,
    linial_coloring,
    luby_coloring,
    luby_mis,
    mis_arboricity,
    oneshot_legal_coloring,
    partial_orientation,
    root_forest_by_bfs,
    ruling_set,
    theorem52_fast_coloring,
    theorem53_tradeoff,
)
from repro.graphs import (
    forest_union,
    planar_triangulation,
    preferential_attachment,
    random_tree,
)
from repro.simulator import MessageTrace, engine_names

#: every registered engine that must match the dense reference
CANDIDATE_ENGINES = [e for e in engine_names() if e != "dense"]

INSTANCES = [
    ("forest_union", lambda: forest_union(150, 3, seed=21)),
    ("planar", lambda: planar_triangulation(110, seed=22)),
    ("preferential", lambda: preferential_attachment(130, 3, seed=23)),
]

ALGORITHMS = [
    ("hpartition", lambda net, a: compute_hpartition(net, a)),
    ("forests", lambda net, a: forests_decomposition(net, a)),
    ("complete_orientation", lambda net, a: complete_orientation(net, a)),
    ("partial_orientation", lambda net, a: partial_orientation(net, a, t=2)),
    ("arbdefective", lambda net, a: arbdefective_coloring(net, a, k=2, t=2)),
    ("arb_kuhn", lambda net, a: arb_kuhn_decomposition(net, a, defect=2)),
    ("thm52", lambda net, a: theorem52_fast_coloring(net, a, d=2)),
    ("thm53", lambda net, a: theorem53_tradeoff(net, a, t=2)),
    ("oneshot_legal", lambda net, a: oneshot_legal_coloring(net, a)),
    ("thm43", lambda net, a: legal_coloring_theorem43(net, a, mu=0.5)),
    ("cor44", lambda net, a: legal_coloring_corollary44(net, a, mu=0.5)),
    ("tradeoff45", lambda net, a: legal_coloring_tradeoff45(net, a, f_value=4)),
    ("cor46", lambda net, a: legal_coloring_corollary46(net, a, eta=0.5)),
    ("delta_plus_one", lambda net, a: delta_plus_one_via_arboricity(net, a)),
    ("auto", lambda net, a: legal_coloring_auto(net)),
    ("linial", lambda net, a: linial_coloring(net)),
    ("kuhn_defective", lambda net, a: kuhn_defective_coloring(net, p=3)),
    ("mis_arboricity", lambda net, a: mis_arboricity(net, a)),
    ("luby_mis", lambda net, a: luby_mis(net, seed=5)),
    ("ruling_set", lambda net, a: ruling_set(net)),
    ("be08", lambda net, a: be08_coloring(net, a)),
    ("luby_coloring", lambda net, a: luby_coloring(net, seed=5)),
]


@pytest.fixture(scope="module", params=INSTANCES, ids=lambda p: p[0])
def instance(request):
    gen = request.param[1]()
    nets = {
        engine: SynchronousNetwork(gen.graph, scheduler=engine)
        for engine in engine_names()
    }
    return gen, nets


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
@pytest.mark.parametrize("name,algo", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
def test_engines_agree_with_dense(instance, engine, name, algo):
    gen, nets = instance
    a = gen.arboricity_bound
    dense = algo(nets["dense"], a)
    candidate = algo(nets[engine], a)
    # dataclass equality: every field, including rounds and nested params
    assert dense == candidate


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_forest_programs_agree(engine):
    gen = random_tree(90, seed=31)
    parent_of = root_forest_by_bfs(gen.graph)
    dense_net = SynchronousNetwork(gen.graph, scheduler="dense")
    other_net = SynchronousNetwork(gen.graph, scheduler=engine)
    assert cole_vishkin_forest(dense_net, parent_of) == cole_vishkin_forest(
        other_net, parent_of
    )
    assert forest_mis(dense_net, parent_of) == forest_mis(other_net, parent_of)


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
@pytest.mark.parametrize("inst_name,make", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_run_results_byte_identical(inst_name, make, engine):
    """Raw RunResult equality — all five fields, byte accounting on — for a
    pipeline whose programs all declare quiescence (H-partition feeding the
    color-class MIS sweep via the full Theorem 4.3 stack).  Both programs
    have column kernels, so for ``engine="column"`` this pins the kernels'
    message/byte accounting against the reference, not just the outputs."""
    from repro.core.hpartition import HPartitionProgram, degree_threshold
    from repro.core.mis import _ColorClassMISProgram
    from repro.core.legal import legal_coloring_theorem43

    gen = make()
    net_dense = SynchronousNetwork(gen.graph, scheduler="dense")
    net_other = SynchronousNetwork(gen.graph, scheduler=engine)
    threshold = degree_threshold(gen.arboricity_bound, 0.5)

    r_dense = net_dense.run(
        lambda: HPartitionProgram(threshold), count_bytes=True
    )
    r_other = net_other.run(
        lambda: HPartitionProgram(threshold), count_bytes=True
    )
    assert r_dense == r_other  # outputs, rounds, messages, bytes, max bytes

    coloring = legal_coloring_theorem43(net_other, gen.arboricity_bound, 0.5)
    normalized = coloring.normalized()
    sweep = lambda net: net.run(
        lambda: _ColorClassMISProgram(lambda v: normalized.colors[v]),
        count_bytes=True,
    )
    assert sweep(net_dense) == sweep(net_other)


class TestMessageTraceEquivalence:
    """The full message log — not just the aggregate accounting — is
    byte-identical across schedulers, including through stall phases the
    event engine fast-forwards without executing a round loop for."""

    @staticmethod
    def _traced(scheduler, graph, runner):
        from repro.obs import RoundTelemetry

        trace = MessageTrace()

        class TracedRounds(RoundTelemetry):
            """One sink per run: round counters, every message forwarded."""

            wants_messages = True

            def on_message(self, *args):
                trace.on_message(*args)

        net = SynchronousNetwork(graph, scheduler=scheduler)
        telemetry = TracedRounds()
        original_run = net.run

        def run_traced(*args, **kwargs):
            kwargs.setdefault("telemetry", telemetry)
            return original_run(*args, **kwargs)

        net.run = run_traced
        runner(net)
        return trace, telemetry

    TRACED_ALGORITHMS: ClassVar = [
        ("mis_arboricity", lambda net, a: mis_arboricity(net, a)),
        ("ruling_set", lambda net, a: ruling_set(net)),
        ("cor46", lambda net, a: legal_coloring_corollary46(net, a, eta=0.5)),
    ]

    @pytest.mark.parametrize(
        "name,algo", TRACED_ALGORITHMS, ids=[a[0] for a in TRACED_ALGORITHMS]
    )
    def test_trace_identical_across_schedulers(self, name, algo):
        gen = forest_union(150, 3, seed=21)
        a = gen.arboricity_bound
        dense_trace, _ = self._traced(
            "dense", gen.graph, lambda net: algo(net, a)
        )
        event_trace, _ = self._traced(
            "event", gen.graph, lambda net: algo(net, a)
        )
        # every message: round number, endpoints, payload, and size
        assert dense_trace.messages == event_trace.messages

    def test_trace_identical_through_fast_forwarded_rounds(self):
        """A sparse color palette leaves multi-round gaps between class
        activations: the event engine must fast-forward those empty rounds
        without executing them, yet keep the message log — including every
        round number — byte-identical to the dense reference."""
        from repro.core import greedy_reduction

        gen = forest_union(150, 3, seed=21)
        graph = gen.graph
        target = graph.max_degree + 1
        colors = {v: 7 * v for v in graph.vertices}  # classes 7 rounds apart

        def workload(net):
            return greedy_reduction(net, dict(colors), 7 * graph.n, target)

        dense_trace, dense_tel = self._traced("dense", graph, workload)
        event_trace, event_tel = self._traced("event", graph, workload)
        assert event_tel.fast_forwarded > 0  # the gaps were actually skipped
        assert dense_tel.fast_forwarded == 0  # dense executes every round
        assert dense_trace.messages == event_trace.messages
        # aggregate accounting agrees with the per-message log too
        assert dense_tel.total_messages == event_tel.total_messages
        assert event_tel.total_messages == len(event_trace)
        assert dense_tel.message_rounds() == event_tel.message_rounds()


def test_per_run_scheduler_override():
    """The network's scheduler runs every run, and an invalid name is
    rejected."""
    from repro.errors import SimulationError

    gen = forest_union(60, 2, seed=7)
    net = SynchronousNetwork(gen.graph)  # column by default
    assert net.scheduler == "column"
    a = ruling_set(net)
    dense = SynchronousNetwork(gen.graph, scheduler="dense")
    assert ruling_set(dense) == a
    with pytest.raises(SimulationError):
        SynchronousNetwork(gen.graph, scheduler="bogus")
