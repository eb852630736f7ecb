"""Verification of coloring guarantees: legality, defect, arbdefect.

The ``check_*`` functions raise :class:`~repro.errors.VerificationError`
with a pinpointed witness on failure; the measurement functions return the
observed quantity so benchmarks can report paper-bound vs. measured.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..errors import VerificationError
from ..graphs.arboricity import degeneracy, nash_williams_lower_bound
from ..graphs.graph import Graph
from ..types import Orientation, Vertex
from .orientation import check_orientation_edges_exist


def check_legal_coloring(graph: Graph, colors: Mapping[Vertex, int]) -> None:
    """Assert no edge is monochromatic and every vertex is colored."""
    for v in graph.vertices:
        if v not in colors:
            raise VerificationError(f"vertex {v} is uncolored")
    for (u, v) in graph.edges:
        if colors[u] == colors[v]:
            raise VerificationError(
                f"edge ({u}, {v}) is monochromatic with color {colors[u]}"
            )


def is_legal_coloring(graph: Graph, colors: Mapping[Vertex, int]) -> bool:
    """Boolean form of :func:`check_legal_coloring`."""
    try:
        check_legal_coloring(graph, colors)
    except VerificationError:
        return False
    return True


def coloring_defect(graph: Graph, colors: Mapping[Vertex, int]) -> int:
    """The defect: max over vertices of same-colored neighbours."""
    worst = 0
    for v in graph.vertices:
        same = sum(1 for u in graph.neighbors(v) if colors[u] == colors[v])
        worst = max(worst, same)
    return worst


def check_defective_coloring(
    graph: Graph, colors: Mapping[Vertex, int], max_defect: int
) -> None:
    """Assert the coloring is ``max_defect``-defective."""
    for v in graph.vertices:
        same = [u for u in graph.neighbors(v) if colors[u] == colors[v]]
        if len(same) > max_defect:
            raise VerificationError(
                f"vertex {v} has {len(same)} same-colored neighbours "
                f"(> {max_defect}): {same[:6]}"
            )


def color_class_subgraphs(
    graph: Graph, colors: Mapping[Vertex, int]
) -> Dict[int, Graph]:
    """The subgraph induced by every color class."""
    classes: Dict[int, list] = {}
    for v in graph.vertices:
        classes.setdefault(colors[v], []).append(v)
    return {c: graph.induced_subgraph(vs) for c, vs in classes.items()}


def coloring_arbdefect_bounds(
    graph: Graph, colors: Mapping[Vertex, int]
) -> Tuple[int, int]:
    """Certified (lower, upper) bounds on the arbdefect of a coloring.

    The arbdefect is the max arboricity over color classes; we sandwich it
    between the best Nash–Williams witness (lower) and the degeneracy
    (upper) of each class.
    """
    lower = 0
    upper = 0
    for _c, sub in color_class_subgraphs(graph, colors).items():
        if sub.m == 0:
            continue
        lower = max(lower, nash_williams_lower_bound(sub))
        upper = max(upper, degeneracy(sub)[0])
    return lower, max(lower, upper)


def check_arbdefective_coloring(
    graph: Graph,
    colors: Mapping[Vertex, int],
    max_arbdefect: int,
    orientation: Optional[Orientation] = None,
) -> None:
    """Assert every color class has arboricity ≤ ``max_arbdefect``.

    With an orientation *witness* (the acyclic orientation the algorithm
    used, which must be over ``graph``) the check is exact: restrict the orientation to each class and
    count out-degrees plus unoriented incident edges — by Lemmas 3.1 + 2.5
    the class arboricity is at most that maximum.  Without a witness we
    fall back to the Nash–Williams lower bound, which detects violations
    but can under-approximate.
    """
    if orientation is not None:
        check_orientation_edges_exist(graph, orientation)
        for c, sub in color_class_subgraphs(graph, colors).items():
            for v in sub.vertices:
                nbrs = sub.neighbors(v)
                out = len(orientation.parents_of(v, nbrs))
                out += len(orientation.unoriented_neighbors(v, nbrs))
                if out > max_arbdefect:
                    raise VerificationError(
                        f"class {c}: vertex {v} has witness out-degree "
                        f"{out} > {max_arbdefect}"
                    )
        return
    lower, _upper = coloring_arbdefect_bounds(graph, colors)
    if lower > max_arbdefect:
        raise VerificationError(
            f"a color class has arboricity >= {lower} > {max_arbdefect} "
            "(Nash-Williams witness)"
        )


def check_palette(colors: Mapping[Vertex, int], max_colors: int) -> None:
    """Assert the number of distinct colors is at most ``max_colors``."""
    used = len(set(colors.values()))
    if used > max_colors:
        raise VerificationError(f"{used} colors used, bound was {max_colors}")
