"""The one-pass verifiers against brute-force references.

Each case is a valid library result on a small random graph, with
contiguous ids or the same graph relabelled to scattered ids, plus at most
one corruption of a given class.  Every check must accept or reject
exactly as the reference kept here does, naming the same witness.  The
references are plain loops over ``graph.edges`` and ``graph.vertices``
that follow the witness rules the checks document.  A forests corruption
whose dict ``ForestsDecomposition.from_forest_of`` cannot place must
instead be rejected there, at the key the reference names.

The orientation checks and measurements get random orientations instead
(every edge towards either end or unoriented, half the cases with a
forced directed cycle); their references are dict loops over
``Orientation.direction`` and Kahn's algorithm.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Graph, SynchronousNetwork
from repro.core import (
    complete_from_partial,
    compute_hpartition,
    forests_decomposition,
    sequential_greedy_coloring,
)
from repro.core.mis import greedy_mis_sequential
from repro.errors import InvalidParameterError, SimulationError, VerificationError
from repro.graphs import (
    degeneracy,
    erdos_renyi,
    forest_union,
    nash_williams_lower_bound,
)
from repro.types import ForestsDecomposition, HPartition, Orientation, canonical_edge
from repro.verify import (
    check_arbdefective_coloring,
    check_forests_decomposition,
    check_hpartition,
    check_legal_coloring,
    check_mis,
    check_orientation_acyclic,
    check_orientation_complete,
    check_orientation_deficit,
    check_orientation_out_degree,
    color_class_subgraphs,
    coloring_arbdefect_bounds,
    longest_directed_path,
    orientation_deficits,
    orientation_length,
    orientation_max_deficit,
    orientation_max_out_degree,
    orientation_out_degrees,
    vertex_lengths,
)

PROFILE = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graph(draw):
    """G(n, p) on 1..14 vertices, half the time relabelled to scattered,
    shuffled ids (negative ones included)."""
    n = draw(st.integers(min_value=1, max_value=14))
    p = draw(st.floats(min_value=0.1, max_value=0.7))
    graph = erdos_renyi(n, p, seed=draw(st.integers(0, 10**6))).graph
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(-40, 200), min_size=n, max_size=n, unique=True))
        graph = Graph(ids, [(ids[u], ids[v]) for u, v in graph.edges])
    return graph


def _agree(check, reference, graph, result):
    """``check`` accepts when ``reference`` returns None, and otherwise
    raises exactly the message ``reference`` returns."""
    expected = reference(graph, result)
    if expected is None:
        check(graph, result)
    else:
        with pytest.raises(VerificationError) as info:
            check(graph, result)
        assert str(info.value) == expected


def _stray(graph, k):
    """An integer id that is not a vertex of ``graph``."""
    verts = graph.vertices
    return (max(verts) + 1 + k) if k % 2 else (min(verts) - 1 - k)


# ---------------------------------------------------------------------------
# brute-force references
# ---------------------------------------------------------------------------
def reference_coloring(graph, colors):
    for v in graph.vertices:
        if v not in colors:
            return f"vertex {v} is uncolored"
    for u, v in graph.edges:
        if colors[u] == colors[v]:
            return f"edge ({u}, {v}) is monochromatic with color {colors[u]}"
    return None


def reference_mis(graph, members):
    for u, v in graph.edges:
        if u in members and v in members:
            return f"MIS contains both endpoints of edge ({u}, {v})"
    for v in graph.vertices:
        if v not in members and not any(u in members for u in graph.neighbors(v)):
            return (
                f"vertex {v} is outside the MIS but has no MIS neighbour "
                "(not maximal)"
            )
    for v in members:
        if not graph.has_vertex(v):
            return f"MIS member {v!r} is not a vertex"
    return None


def reference_hpartition(graph, hp):
    for v in graph.vertices:
        if v not in hp.index:
            return f"vertex {v} has no H-index"
    for v in graph.vertices:
        higher = [u for u in graph.neighbors(v) if hp.index[u] >= hp.index[v]]
        if len(higher) > hp.degree_bound:
            return (
                f"vertex {v} (level {hp.index[v]}) has {len(higher)} neighbours "
                f"at its level or above (> {hp.degree_bound})"
            )
    return None


def reference_forests(graph, fd):
    offsets = graph.csr()[0]

    def label(u, v):
        """The label at u's entry for v."""
        row = graph.neighbors(u)
        return int(fd.labels[offsets[graph.index_of(u)] + row.index(v)])

    forest_of = {}  # each edge's (label, tail), read at the tail's entry
    for u, v in graph.edges:
        head = fd.orientation.head(u, v)
        tail = u if head == v else v
        f = -1 if head is None else label(tail, head)
        if f == -1:
            return f"edge ({u}, {v}) has no forest label"
        forest_of[(u, v)] = (f, tail)
    for u in graph.vertices:
        for v in graph.neighbors(u):
            if fd.orientation.head(u, v) != v and label(u, v) != -1:
                return (
                    f"forest label {label(u, v)} at vertex {u}'s entry for {v}, "
                    "which is not an out-edge"
                )
    forests = sorted({f for f, _ in forest_of.values()})
    for f in forests:
        if not 0 <= f < fd.num_forests:
            return f"forest label {f} out of range"
    for f in forests:
        parents = {}
        for g, tail in forest_of.values():
            if g == f:
                parents[tail] = parents.get(tail, 0) + 1
        for v in sorted(parents):
            if parents[v] > 1:
                return f"vertex {v} has two parents in forest {f}"
    for f in forests:
        if _has_cycle([e for e, (g, _) in forest_of.items() if g == f]):
            return f"forest {f} contains a cycle"
    return None


def reference_unplaceable(forest_of, orientation):
    """What ``from_forest_of`` names: the first key in dict order that is
    not an oriented edge in (min, max) form or has a negative label."""
    for (u, v), f in forest_of.items():
        edge = u < v and orientation.graph.has_edge(u, v)
        if not edge or orientation.head(u, v) is None:
            return f"({u}, {v}) is not an oriented edge in (min, max) form"
        if f < 0:
            return f"({u}, {v}) has negative forest label {f}"
    return None


def _has_cycle(edges):
    """Union-find: an edge joining two connected vertices closes a cycle."""
    root = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        root[ru] = rv
    return False


# ---------------------------------------------------------------------------
# corruptions: each returns the corrupted result (or the valid one when the
# graph offers no place for the corruption)
# ---------------------------------------------------------------------------
def _cycle(graph):
    """The vertices of some cycle of ``graph`` in order, or None."""
    for u, v in graph.edges:
        # a path from u to v avoiding the edge (u, v) closes a cycle
        came = {u: None}
        frontier = [u]
        while frontier and v not in came:
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y not in came and (x, y) != (u, v):
                        came[y] = x
                        nxt.append(y)
            frontier = nxt
        if v in came:
            path = [v]
            while path[-1] != u:
                path.append(came[path[-1]])
            return path
    return None


def corrupt_forests(graph, fd, kind, k):
    """The corrupted decomposition, or None where ``from_forest_of``
    rejects the corrupted dict (exactly as :func:`reference_unplaceable`
    names it)."""
    forest_of = dict(fd.forest_of)
    orientation = fd.orientation
    num_forests = fd.num_forests
    keys = list(forest_of)
    if kind == "missing" and keys:
        del forest_of[keys[k % len(keys)]]
    elif kind == "non-edge":
        verts = graph.vertices
        pairs = [
            (u, v)
            for i, u in enumerate(verts)
            for v in verts[i + 1 :]
            if not graph.has_edge(u, v)
        ]
        if pairs:
            forest_of[pairs[k % len(pairs)]] = k % max(num_forests, 1)
    elif kind == "reversed" and keys:
        u, v = keys[k % len(keys)]
        forest_of[(v, u)] = k % num_forests
    elif kind == "out-of-range" and keys:
        forest_of[keys[k % len(keys)]] = num_forests if k % 2 else -1
    elif kind == "unoriented" and keys:
        key = keys[k % len(keys)]
        direction = dict(orientation.direction)
        del direction[key]
        if k % 2:  # and unlabelled: it has no tail to hold a label
            del forest_of[key]
        orientation = Orientation.from_direction(graph, direction)
    elif kind == "stray":
        # a label at an entry that is not an out-edge's
        off_tail = np.flatnonzero(orientation.heads <= 0)
        if len(off_tail):
            labels = fd.labels.copy()
            labels[off_tail[k % len(off_tail)]] = k % max(num_forests, 1)
            return ForestsDecomposition(labels, orientation, num_forests)
    elif kind == "second-parent":
        out = {}
        for u, v in forest_of:
            tail = u if orientation.head(u, v) == v else v
            out.setdefault(tail, []).append((u, v))
        crowded = [es for es in out.values() if len(es) > 1]
        if crowded:
            first, second = crowded[k % len(crowded)][:2]
            forest_of[second] = forest_of[first]
    elif kind == "cycle":
        path = _cycle(graph)
        if path is not None:
            direction = dict(orientation.direction)
            for x, y in zip(path, path[1:] + path[:1], strict=True):
                direction[canonical_edge(x, y)] = y
                forest_of[canonical_edge(x, y)] = num_forests
            orientation = Orientation.from_direction(graph, direction)
            num_forests += 1
    expected = reference_unplaceable(forest_of, orientation)
    if expected is None:
        return ForestsDecomposition.from_forest_of(forest_of, orientation, num_forests)
    with pytest.raises(InvalidParameterError) as info:
        ForestsDecomposition.from_forest_of(forest_of, orientation, num_forests)
    assert str(info.value) == expected
    return None


FOREST_KINDS = [
    "none",
    "missing",
    "non-edge",
    "reversed",
    "out-of-range",
    "unoriented",
    "stray",
    "second-parent",
    "cycle",
]


@PROFILE
@pytest.mark.parametrize("kind", FOREST_KINDS)
@given(graph=small_graph(), k=st.integers(0, 10**6))
def test_forests_check_matches_reference(kind, graph, k):
    a = max(1, degeneracy(graph)[0])
    fd = forests_decomposition(SynchronousNetwork(graph), a)
    bad = corrupt_forests(graph, fd, kind, k)
    if bad is not None:
        _agree(check_forests_decomposition, reference_forests, graph, bad)


@PROFILE
@pytest.mark.parametrize("kind", ["none", "uncolored", "monochromatic"])
@given(graph=small_graph(), k=st.integers(0, 10**6))
def test_coloring_check_matches_reference(kind, graph, k):
    colors = dict(sequential_greedy_coloring(graph).colors)
    verts = graph.vertices
    edges = graph.edges
    if kind == "uncolored":
        del colors[verts[k % len(verts)]]
    elif kind == "monochromatic" and edges:
        u, v = edges[k % len(edges)]
        colors[v] = colors[u]
    _agree(check_legal_coloring, reference_coloring, graph, colors)


@PROFILE
@pytest.mark.parametrize("kind", ["none", "adjacent", "non-vertex", "uncovered"])
@given(graph=small_graph(), k=st.integers(0, 10**6))
def test_mis_check_matches_reference(kind, graph, k):
    members = set(greedy_mis_sequential(graph))
    if kind == "adjacent":
        pairs = [(u, v) for u, v in graph.edges if u in members or v in members]
        if pairs:
            members |= set(pairs[k % len(pairs)])
    elif kind == "non-vertex":
        members.add(_stray(graph, k % 7))
    elif kind == "uncovered":
        members.discard(sorted(members)[k % len(members)])
    _agree(check_mis, reference_mis, graph, members)


@PROFILE
@pytest.mark.parametrize("kind", ["none", "missing", "overfull"])
@given(graph=small_graph(), k=st.integers(0, 10**6))
def test_hpartition_check_matches_reference(kind, graph, k):
    a = max(1, degeneracy(graph)[0])
    hp = compute_hpartition(SynchronousNetwork(graph), a)
    index = dict(hp.index)
    bound = hp.degree_bound
    if kind == "missing":
        verts = graph.vertices
        del index[verts[k % len(verts)]]
    elif kind == "overfull":
        worst = max(
            sum(index[u] >= index[v] for u in graph.neighbors(v))
            for v in graph.vertices
        )
        bound = worst - 1 - k % 2
    _agree(check_hpartition, reference_hpartition, graph, HPartition(index, bound))


# ---------------------------------------------------------------------------
# orientations: random heads, half the cases with a forced directed cycle
# ---------------------------------------------------------------------------
@st.composite
def oriented_graph(draw):
    """A :func:`small_graph` with every edge towards its lower end, its
    higher end, or unoriented, at random; half the time the edges of one
    cycle of the graph (if it has one) then point around it."""
    graph = draw(small_graph())
    edges = graph.edges
    signs = draw(
        st.lists(st.sampled_from((-1, 0, 1)), min_size=len(edges), max_size=len(edges))
    )
    direction = {
        (u, v): (v if s > 0 else u)
        for (u, v), s in zip(edges, signs, strict=True)
        if s
    }
    if draw(st.booleans()):
        path = _cycle(graph)
        if path is not None:
            for x, y in zip(path, path[1:] + path[:1], strict=True):
                direction[canonical_edge(x, y)] = y
    return graph, Orientation.from_direction(graph, direction)


def _outcome(fn, *args):
    """What ``fn`` returns, or the message of the ``VerificationError`` it
    raises."""
    try:
        return fn(*args)
    except VerificationError as error:
        return ("raised", str(error))


def reference_out_degrees(graph, orientation):
    out = {v: 0 for v in graph.vertices}
    for (u, v), head in orientation.direction.items():
        tail = u if head == v else v
        out[tail] += 1
    return out


def reference_deficits(graph, orientation):
    deficit = {v: 0 for v in graph.vertices}
    for u, v in graph.edges:
        if canonical_edge(u, v) not in orientation.direction:
            deficit[u] += 1
            deficit[v] += 1
    return deficit


def reference_complete(graph, orientation):
    for u, v in graph.edges:
        if canonical_edge(u, v) not in orientation.direction:
            raise VerificationError(f"edge ({u}, {v}) is unoriented")


def reference_at_most(counts, bound, what):
    for v, d in counts.items():
        if d > bound:
            raise VerificationError(f"vertex {v} has {what} {d} > bound {bound}")


def reference_longest_paths(graph, orientation):
    """Kahn's algorithm, then len(v) and the next vertex on one longest
    path by a DP in reverse topological order; raises on a cycle."""
    indeg = {v: 0 for v in graph.vertices}
    children = {v: [] for v in graph.vertices}
    for (u, v), head in orientation.direction.items():
        tail = u if head == v else v
        children[tail].append(head)
        indeg[head] += 1
    stack = [v for v, d in indeg.items() if d == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for u in children[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)
    if len(order) != graph.n:
        raise VerificationError("orientation contains a directed cycle")
    length = {v: 0 for v in graph.vertices}
    best_child = {}
    for v in reversed(order):
        for u in children[v]:
            if 1 + length[u] > length[v]:
                length[v] = 1 + length[u]
                best_child[v] = u
    return length, best_child


def reference_acyclic(graph, orientation):
    try:
        reference_longest_paths(graph, orientation)
    except VerificationError:
        return False
    return True


def reference_path(graph, orientation):
    length, best_child = reference_longest_paths(graph, orientation)
    if not length:
        return []
    start = max(length, key=lambda v: length[v])
    path = [start]
    while path[-1] in best_child:
        path.append(best_child[path[-1]])
    return path


def reference_arbdefect(graph, colors, bound, orientation):
    """Per class in order of first appearance, per vertex in vertex
    order: its parents and unoriented neighbours inside the class."""
    for v in graph.vertices:
        if v not in colors:
            raise VerificationError(f"vertex {v} is uncolored")
    classes = {}
    for v in graph.vertices:
        classes.setdefault(colors[v], []).append(v)
    for c, members in classes.items():
        inside = set(members)
        for v in members:
            out = sum(
                orientation.direction.get(canonical_edge(u, v), u) == u
                for u in graph.neighbors(v)
                if u in inside
            )
            if out > bound:
                raise VerificationError(
                    f"class {c}: vertex {v} has witness out-degree {out} > {bound}"
                )


@PROFILE
@given(case=oriented_graph(), bound=st.integers(0, 4))
def test_orientation_counts_match_reference(case, bound):
    graph, o = case
    out = reference_out_degrees(graph, o)
    deficit = reference_deficits(graph, o)
    assert orientation_out_degrees(graph, o) == out
    assert orientation_deficits(graph, o) == deficit
    assert orientation_max_out_degree(graph, o) == max(out.values())
    assert orientation_max_deficit(graph, o) == max(deficit.values())
    for check, reference in [
        (check_orientation_complete, reference_complete),
        (
            lambda g, x: check_orientation_out_degree(g, x, bound),
            lambda g, x: reference_at_most(out, bound, "out-degree"),
        ),
        (
            lambda g, x: check_orientation_deficit(g, x, bound),
            lambda g, x: reference_at_most(deficit, bound, "deficit"),
        ),
    ]:
        assert _outcome(check, graph, o) == _outcome(reference, graph, o)


@PROFILE
@given(case=oriented_graph())
def test_orientation_lengths_match_reference(case):
    graph, o = case
    lengths = _outcome(lambda g, x: reference_longest_paths(g, x)[0], graph, o)
    cyclic = not reference_acyclic(graph, o)
    assert _outcome(vertex_lengths, graph, o) == lengths
    assert _outcome(check_orientation_acyclic, graph, o) == (
        lengths if cyclic else None
    )
    assert _outcome(orientation_length, graph, o) == (
        lengths if cyclic else max(lengths.values())
    )
    assert _outcome(longest_directed_path, graph, o) == _outcome(
        reference_path, graph, o
    )


@PROFILE
@given(
    case=oriented_graph(),
    palette=st.integers(1, 4),
    bound=st.integers(0, 4),
    uncolored=st.booleans(),
    k=st.integers(0, 10**6),
)
def test_arbdefect_witness_matches_reference(case, palette, bound, uncolored, k):
    graph, o = case
    colors = {v: (v * 7 + k) % palette for v in graph.vertices}
    if uncolored:
        del colors[graph.vertices[k % graph.n]]
    assert _outcome(check_arbdefective_coloring, graph, colors, bound, o) == (
        _outcome(reference_arbdefect, graph, colors, bound, o)
    )


@PROFILE
@given(case=oriented_graph())
def test_complete_from_partial_keeps_every_oriented_edge(case):
    graph, o = case
    if not reference_acyclic(graph, o):
        with pytest.raises(SimulationError, match="directed cycle"):
            complete_from_partial(graph, o)
        return
    done = complete_from_partial(graph, o)
    reference_complete(graph, done)
    assert reference_acyclic(graph, done)
    for e, head in o.direction.items():
        assert done.direction[e] == head


# ---------------------------------------------------------------------------
# Nash-Williams: one numpy path for every id layout
# ---------------------------------------------------------------------------
def reference_nash_williams(graph):
    """max ⌈m_H / (n_H − 1)⌉ over the suffixes of the degeneracy order
    with at least two vertices, one edge at a time."""
    n = graph.n
    if n < 2:
        return 0
    order = degeneracy(graph)[1]
    pos = {v: i for i, v in enumerate(order)}
    suffix_m = [0] * n
    for u, v in graph.edges:
        suffix_m[min(pos[u], pos[v])] += 1
    best = total = 0
    for i in range(n - 1, -1, -1):
        total += suffix_m[i]
        if n - i >= 2:
            best = max(best, math.ceil(total / (n - i - 1)))
    return best


@PROFILE
@given(graph=small_graph())
def test_nash_williams_matches_reference(graph):
    assert nash_williams_lower_bound(graph) == reference_nash_williams(graph)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nash_williams_on_relabelled_classes(seed):
    """Colour classes keep their ids (``induced_subgraph``), and a
    shuffled relabelling scatters them: both take the numpy path."""
    graph = forest_union(200, 3, seed=seed).graph
    odd = graph.induced_subgraph(range(1, 200, 2))
    assert not odd.ids_contiguous
    ids = list(range(1000, 1200))
    random.Random(seed).shuffle(ids)
    shuffled = Graph(ids, [(ids[u], ids[v]) for u, v in graph.edges])
    for g in (graph, odd, shuffled):
        assert nash_williams_lower_bound(g) == reference_nash_williams(g)


# ---------------------------------------------------------------------------
# arbdefect bounds without a witness: one degeneracy order per colour class
# ---------------------------------------------------------------------------
def reference_arbdefect_bounds(graph, colors):
    """The bounds as two separate computations per class: the Nash–Williams
    suffix bound (which peels its own degeneracy order) and the degeneracy."""
    lower = upper = 0
    for sub in color_class_subgraphs(graph, colors).values():
        if sub.m:
            lower = max(lower, nash_williams_lower_bound(sub))
            upper = max(upper, degeneracy(sub)[0])
    return lower, max(lower, upper)


@PROFILE
@given(graph=small_graph(), palette=st.integers(1, 4), k=st.integers(0, 10**6))
def test_arbdefect_bounds_match_reference(graph, palette, k):
    colors = {v: (v * 7 + k) % palette for v in graph.vertices}
    assert coloring_arbdefect_bounds(graph, colors) == reference_arbdefect_bounds(
        graph, colors
    )


def test_arbdefect_bounds_peel_each_class_once(monkeypatch):
    """One degeneracy order per non-empty class serves both bounds: a spy
    on every module-level name of ``degeneracy`` counts the peels."""
    from repro.graphs import arboricity as arboricity_module
    from repro.verify import coloring as coloring_module

    graph = erdos_renyi(60, 0.2, seed=5).graph
    colors = {v: v % 4 for v in graph.vertices}
    colors[graph.vertices[0]] = 9  # a class of one vertex: no edges
    expected = reference_arbdefect_bounds(graph, colors)
    calls = []

    def spy(sub):
        calls.append(sub.n)
        return degeneracy(sub)

    for module in (arboricity_module, coloring_module):
        monkeypatch.setattr(module, "degeneracy", spy)
    assert coloring_arbdefect_bounds(graph, colors) == expected
    non_empty = [
        sub for sub in color_class_subgraphs(graph, colors).values() if sub.m
    ]
    assert len(calls) == len(non_empty) == 4
