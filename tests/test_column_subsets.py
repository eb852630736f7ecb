"""Column kernels on subset runs: raw RunResults against the dense reference.

The paper's recursion runs nearly every program with ``participants=`` or
``part_of=``, and the column engine serves those runs from the run's masked
CSR renumbered into slot space.  For every program with a kernel, this
compares the whole :class:`RunResult` (outputs, rounds, messages, bytes and
the largest payload, with byte counting on) against the dense engine on
participant subsets, partial labelings, both at once and an empty
participant set, over contiguous ids and a relabeled non-contiguous copy
with negative ids.  Every non-empty run must report the ``column`` engine,
so a silent fallback cannot pass.  The error cases check that a kernel
raises the scalar program's exception with the same message.
"""

import pytest

from repro import Graph, SynchronousNetwork
from repro.core.arbdefective import _SimpleArbdefectiveProgram
from repro.core.color_reduction import _GreedyReductionProgram
from repro.core.forests import _ForestLabelProgram
from repro.core.hpartition import HPartitionProgram
from repro.core.mis import _ColorClassMISProgram
from repro.core.orientation import _OrientationExchangeProgram
from repro.core.recolor import RecolorProgram, compute_recolor_schedule
from repro.errors import RoundLimitExceeded, SimulationError
from repro.graphs import forest_union
from repro.obs import RoundTelemetry
from repro.types import Orientation


def _graphs():
    base = forest_union(90, 3, seed=13).graph
    relabel = lambda v: 41 * v - 200  # non-contiguous, some ids negative
    relabeled = Graph(
        map(relabel, base.vertices),
        [(relabel(u), relabel(v)) for u, v in base.edges],
    )
    return {"contiguous": base, "relabeled": relabeled}


GRAPHS = _graphs()


def _restriction(graph, kind):
    """``run`` keyword arguments for one kind of subset run."""
    ids = graph.vertices
    subset = [v for i, v in enumerate(ids) if i % 3 != 1]
    # a partial labeling: a third of the vertices share the None part
    labels = {v: i % 2 for i, v in enumerate(ids) if i % 3 != 0}
    return {
        "participants": {"participants": subset},
        "part_of": {"part_of": labels},
        "both": {"participants": subset, "part_of": labels},
        "empty": {"participants": []},
    }[kind]


def _position(graph):
    return {v: i for i, v in enumerate(graph.vertices)}


def _hpartition(graph):
    return lambda: HPartitionProgram(4)


def _forests(graph):
    pos = _position(graph)
    level_of = {v: 1 + pos[v] % 3 for v in graph.vertices}
    return lambda: _ForestLabelProgram(level_of.__getitem__)


def _mis_sweep(graph):
    pos = _position(graph)
    return lambda: _ColorClassMISProgram(lambda v: pos[v] % 5)


def _defective_from_ids(graph):
    # the ids are the initial colours (negative ones included)
    start = max(graph.vertices) + 1
    schedule = compute_recolor_schedule(start, graph.max_degree, 4)
    return lambda: RecolorProgram(schedule)


def _linial(graph):
    pos = _position(graph)
    schedule = compute_recolor_schedule(97 * graph.n, graph.max_degree, 0)
    return lambda: RecolorProgram(schedule, lambda v: 97 * pos[v])


def _acyclic_parents(graph):
    # acyclic and partial: edges point to the larger id unless the
    # endpoints' positions sum to a multiple of 3
    pos = _position(graph)
    return Orientation.from_direction(
        graph, {(u, v): v for u, v in graph.edges if (pos[u] + pos[v]) % 3}
    )


def _simple_arbdefective(graph):
    orientation = _acyclic_parents(graph)
    return lambda: _SimpleArbdefectiveProgram(orientation, 3)


def _arb_kuhn(graph):
    # Arb-Kuhn's recolor: conflicts only against the parents
    orientation = _acyclic_parents(graph)
    pos = _position(graph)
    schedule = compute_recolor_schedule(97 * graph.n, graph.max_degree, 2)
    return lambda: RecolorProgram(schedule, lambda v: 97 * pos[v], orientation)


def _orientation_greedy(graph):
    # Lemma 2.2(1): one more colour than any node has parents
    orientation = _acyclic_parents(graph)
    k = 1 + max(
        len(orientation.parents_of(v, graph.neighbors(v))) for v in graph.vertices
    )
    return lambda: _SimpleArbdefectiveProgram(orientation, k, legal=True)


def _greedy_inputs(graph):
    """A legal colouring with empty classes, ``m`` above its largest colour
    and ``target`` = Δ + 1: a position-order greedy colouring, 5c + 3."""
    colors = {}
    for v in graph.vertices:
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        colors[v] = min(c for c in range(len(used) + 1) if c not in used)
    colors = {v: 5 * c + 3 for v, c in colors.items()}
    return colors, max(colors.values()) + 4, graph.max_degree + 1


def _greedy_reduction(graph):
    colors, m, target = _greedy_inputs(graph)
    return lambda: _GreedyReductionProgram(colors.__getitem__, m, target)


def _exchange(partial):
    def make(graph):
        pos = _position(graph)
        if partial:
            key_of = lambda v: (pos[v] % 2, pos[v] % 3)  # leaves ties
        else:
            key_of = lambda v: (pos[v] % 3, v)  # ids never tie
        return lambda: _OrientationExchangeProgram(key_of, partial=partial)

    return make


PROGRAMS = {
    "hpartition": _hpartition,
    "forests": _forests,
    "mis_sweep": _mis_sweep,
    "defective_from_ids": _defective_from_ids,
    "linial": _linial,
    "simple_arbdefective": _simple_arbdefective,
    "arb_kuhn": _arb_kuhn,
    "orientation_greedy": _orientation_greedy,
    "partial_exchange": _exchange(partial=True),
    "complete_exchange": _exchange(partial=False),
    "greedy_reduction": _greedy_reduction,
}


@pytest.mark.parametrize("kind", ["participants", "part_of", "both", "empty"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_run_result_matches_dense(program, graph_name, kind):
    graph = GRAPHS[graph_name]
    factory = PROGRAMS[program](graph)
    kwargs = _restriction(graph, kind)
    dense = SynchronousNetwork(graph, scheduler="dense").run(
        factory, count_bytes=True, **kwargs
    )
    tel = RoundTelemetry()
    column = SynchronousNetwork(graph, scheduler="column").run(
        factory, count_bytes=True, telemetry=tel, **kwargs
    )
    assert tel.scheduler == ("event" if kind == "empty" else "column")
    assert column == dense
    if kind != "empty":
        assert column.messages and column.message_bytes


def test_recolor_from_ids_beyond_int64_runs_scalar():
    """Ids that are initial colours but do not fit an int64 column make
    the recolor kernel decline, so the run still matches dense."""
    big = 2**64
    base = GRAPHS["contiguous"]
    graph = Graph(
        [big + v for v in base.vertices],
        [(big + u, big + v) for u, v in base.edges],
    )
    factory = _defective_from_ids(graph)
    kwargs = _restriction(graph, "both")
    dense = SynchronousNetwork(graph, scheduler="dense").run(
        factory, count_bytes=True, **kwargs
    )
    tel = RoundTelemetry()
    column = SynchronousNetwork(graph, scheduler="column").run(
        factory, count_bytes=True, telemetry=tel, **kwargs
    )
    assert tel.scheduler == "event"
    assert column == dense


@pytest.mark.parametrize("offset", [2**64, -(2**63)])
def test_greedy_colors_outside_int64_payloads_run_scalar(offset):
    """Input colours an int64 column cannot hold, or whose byte sizes the
    vectorized sizing cannot compute (below -2**62), make the greedy
    kernel decline, so the run still matches dense."""
    graph = GRAPHS["contiguous"]
    colors, m, target = _greedy_inputs(graph)
    shifted = {v: offset + c for v, c in colors.items()}
    m = max(m, offset + m)  # negative colours sit below target: no classes
    factory = lambda: _GreedyReductionProgram(shifted.__getitem__, m, target)
    dense = SynchronousNetwork(graph, scheduler="dense").run(
        factory, count_bytes=True
    )
    tel = RoundTelemetry()
    column = SynchronousNetwork(graph, scheduler="column").run(
        factory, count_bytes=True, telemetry=tel
    )
    assert tel.scheduler == "event"
    assert column == dense


def test_largest_payload_counts_only_senders():
    """The isolated vertex's 3-byte colour is never sent, so the largest
    payload is the path's 1-byte colours, as the dense engine counts it."""
    graph = Graph([0, 1, 2, 10**6], [(0, 1), (1, 2)])
    schedule = compute_recolor_schedule(10**6 + 1, graph.max_degree, 0)
    factory = lambda: RecolorProgram(schedule)
    dense = SynchronousNetwork(graph, scheduler="dense").run(
        factory, count_bytes=True
    )
    tel = RoundTelemetry()
    column = SynchronousNetwork(graph, scheduler="column").run(
        factory, count_bytes=True, telemetry=tel
    )
    assert tel.scheduler == "column"
    assert dense.max_message_bytes == 1
    assert column == dense


def _raised(graph, scheduler, factory, **kwargs):
    net = SynchronousNetwork(graph, scheduler=scheduler)
    with pytest.raises(SimulationError) as info:
        net.run(factory, **kwargs)
    return info.value


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_complete_exchange_error_matches_dense(graph_name):
    """Same-(level, colour) neighbours: the first in CSR order is named."""
    graph = GRAPHS[graph_name]
    pos = _position(graph)
    key_of = lambda v: (0, pos[v] % 2)
    factory = lambda: _OrientationExchangeProgram(key_of, partial=False)
    kwargs = _restriction(graph, "both")
    dense = _raised(graph, "dense", factory, **kwargs)
    column = _raised(graph, "column", factory, **kwargs)
    assert type(column) is type(dense) is SimulationError
    assert str(column) == str(dense)
    assert "share level and color" in str(column)


@pytest.mark.parametrize("kind", ["full", "participants"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_exhausted_palette_error_matches_scalar_engines(graph_name, kind):
    """Lemma 2.2(1) with too few colours: every engine names the same
    node, the first in slot order of the first round that runs out."""
    graph = GRAPHS[graph_name]
    orientation = _acyclic_parents(graph)
    factory = lambda: _SimpleArbdefectiveProgram(orientation, 2, legal=True)
    kwargs = {} if kind == "full" else _restriction(graph, kind)
    dense = _raised(graph, "dense", factory, **kwargs)
    event = _raised(graph, "event", factory, **kwargs)
    tel = RoundTelemetry()
    column = _raised(graph, "column", factory, telemetry=tel, **kwargs)
    assert tel.scheduler == "column"
    assert type(column) is type(event) is type(dense) is SimulationError
    assert str(column) == str(event) == str(dense)
    assert "palette of size 2 exhausted by" in str(column)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_cyclic_parents_exceed_round_limit_like_dense(graph_name):
    """A ring oriented one way round, with pendant vertices: the ring and
    the pendants whose parent is on it wait out the round limit, while the
    pendants the ring points to decide at once.  Checked on a full run and
    on a subset run keeping the ring and every third pendant, two of each
    kind."""
    ids = GRAPHS[graph_name].vertices[:30]
    ring, pendants = ids[:20], ids[20:]
    direction = {
        (ring[i], ring[(i + 1) % 20]): ring[(i + 1) % 20] for i in range(20)
    }
    for j, p in enumerate(pendants):
        direction[(p, ring[j])] = ring[j] if j % 2 else p
    graph = Graph(ids, direction)
    orientation = Orientation.from_direction(graph, direction)
    factory = lambda: _SimpleArbdefectiveProgram(orientation, 3)
    for participants, waiting in ((None, 25), ([*ring, *pendants[::3]], 22)):
        kwargs = {"round_limit": 12, "participants": participants}
        dense = _raised(graph, "dense", factory, **kwargs)
        tel = RoundTelemetry()
        column = _raised(graph, "column", factory, telemetry=tel, **kwargs)
        assert tel.scheduler == "column"
        assert type(column) is type(dense) is RoundLimitExceeded
        assert (column.limit, column.still_running) == (
            dense.limit,
            dense.still_running,
        ) == (12, waiting)
        assert str(column) == str(dense)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_recolor_error_names_the_node_like_dense(graph_name):
    """A colour outside the step's space: the message names the vertex id."""
    graph = GRAPHS[graph_name]
    pos = _position(graph)
    start = 97 * graph.n
    schedule = compute_recolor_schedule(start, graph.max_degree, 0)
    colors = {v: start + 5 if pos[v] % 7 == 4 else 97 * pos[v] for v in pos}
    factory = lambda: RecolorProgram(schedule, colors.__getitem__)
    kwargs = _restriction(graph, "part_of")
    dense = _raised(graph, "dense", factory, **kwargs)
    column = _raised(graph, "column", factory, **kwargs)
    assert type(column) is type(dense) is SimulationError
    assert str(column) == str(dense)
    assert str(column).startswith(f"node {graph.vertices[4]}: color")


def _raised_on_every_engine(graph, factory, **kwargs):
    """The error dense, event and column all raise (same type, same
    message); the column engine must have run its kernel."""
    tel = RoundTelemetry()
    column = _raised(graph, "column", factory, telemetry=tel, **kwargs)
    assert tel.scheduler == "column"
    dense = _raised(graph, "dense", factory, **kwargs)
    event = _raised(graph, "event", factory, **kwargs)
    assert type(column) is type(event) is type(dense)
    assert str(column) == str(event) == str(dense)
    return column


@pytest.mark.parametrize("kind", ["full", "participants"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_greedy_reduction_no_free_color_matches_scalar_engines(graph_name, kind):
    """A target below Δ + 1: every engine names the same node, the first in
    slot order of the first class that finds no free colour."""
    graph = GRAPHS[graph_name]
    colors, m, _ = _greedy_inputs(graph)
    factory = lambda: _GreedyReductionProgram(colors.__getitem__, m, 2)
    kwargs = {} if kind == "full" else _restriction(graph, kind)
    error = _raised_on_every_engine(graph, factory, **kwargs)
    assert type(error) is SimulationError
    assert "no free color below target 2" in str(error)


@pytest.mark.parametrize("kind", ["full", "participants"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_greedy_reduction_color_above_palette_matches_scalar_engines(
    graph_name, kind
):
    """Input colours ``>= m``: the first such node in slot order is named."""
    graph = GRAPHS[graph_name]
    colors, _, target = _greedy_inputs(graph)
    factory = lambda: _GreedyReductionProgram(colors.__getitem__, 9, target)
    kwargs = {} if kind == "full" else _restriction(graph, kind)
    ids = kwargs.get("participants", graph.vertices)
    first = next(v for v in ids if colors[v] >= 9)
    error = _raised_on_every_engine(graph, factory, **kwargs)
    assert type(error) is SimulationError
    assert str(error) == f"node {first}: input color {colors[first]} >= m=9"


@pytest.mark.parametrize("kind", ["full", "participants"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_greedy_reduction_round_limit_matches_scalar_engines(graph_name, kind):
    """A round limit between the first two class rounds, past the event
    engine's delivery-only round: every engine stops with the same number
    of nodes still running."""
    graph = GRAPHS[graph_name]
    colors, m, target = _greedy_inputs(graph)
    kwargs = {} if kind == "full" else _restriction(graph, kind)
    ids = kwargs.get("participants", graph.vertices)
    top, below = sorted({colors[v] for v in ids if colors[v] >= target})[-1:-3:-1]
    limit = m - top + 2
    assert m - below > limit
    factory = lambda: _GreedyReductionProgram(colors.__getitem__, m, target)
    error = _raised_on_every_engine(graph, factory, round_limit=limit, **kwargs)
    assert type(error) is RoundLimitExceeded
    assert (error.limit, error.still_running) == (
        limit,
        sum(1 for v in ids if target <= colors[v] < top),
    )
