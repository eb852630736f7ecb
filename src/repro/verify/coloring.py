"""Verification of coloring guarantees: legality, defect, arbdefect.

The ``check_*`` functions raise :class:`~repro.errors.VerificationError`
with a pinpointed witness on failure; the measurement functions return the
observed quantity so benchmarks can report paper-bound vs. measured.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..errors import VerificationError
from ..graphs.arboricity import degeneracy, suffix_density_bound
from ..graphs.graph import Graph
from ..types import Orientation, Vertex
from .orientation import check_orientation_edges_exist


#: What the checks read for a key a result's mapping lacks: a value equal
#: to nothing else.
UNSET = object()


def value_codes(
    values: Iterable[object], size: int
) -> Tuple[np.ndarray, Dict[object, int]]:
    """Intern ``size`` values through a dict, so that they compare by
    ``==`` as in Python, never by a numeric coercion (``np.fromiter``
    would truncate 1.5 to 1 and parse ``"1"`` as 1).  Returns each value's
    code (the position of its first appearance) and the dict from every
    distinct value to its code."""
    code: Dict[object, int] = {}
    codes = np.fromiter(
        map(code.setdefault, values, count()), np.min_scalar_type(size), count=size
    )
    return codes, code


def _same_colored(
    graph: Graph, colors: Mapping[Vertex, int]
) -> Tuple[np.ndarray, Dict[object, int], np.ndarray]:
    """Every vertex's colour code and the codes (:func:`value_codes`, in
    vertex order), and per entry of ``graph.csr()`` whether it joins two
    equal colours.  Names the first uncolored vertex."""
    verts = graph.vertices
    own, code = value_codes(map(colors.get, verts, repeat(UNSET)), graph.n)
    if UNSET in code:
        v = verts[int(np.argmax(own == code[UNSET]))]
        raise VerificationError(f"vertex {v} is uncolored")
    return own, code, own[graph.row_sources()] == own[graph.csr()[1]]


def check_legal_coloring(graph: Graph, colors: Mapping[Vertex, int]) -> None:
    """Assert every vertex is colored and no edge is monochromatic.

    One pass over ``graph.csr()`` comparing the endpoints' colours, each
    interned by :func:`value_codes`.  Names the first uncolored vertex (in
    vertex order), else the first monochromatic edge (in ``graph.edges``
    order)."""
    same = _same_colored(graph, colors)[2]
    if same.any():
        # an edge's entry in its lower endpoint's row comes first, so the
        # first hit is the first monochromatic edge in graph.edges order
        k = int(same.argmax())
        u = graph.vertex_at(int(graph.row_sources()[k]))
        v = graph.vertex_at(int(graph.csr()[1][k]))
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


def _defects(
    graph: Graph, colors: Mapping[Vertex, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every vertex's number of same-colored neighbours, and the
    same-colour mask over ``graph.csr()`` it counts."""
    same = _same_colored(graph, colors)[2]
    return np.bincount(graph.row_sources()[same], minlength=graph.n), same


def coloring_defect(graph: Graph, colors: Mapping[Vertex, int]) -> int:
    """The defect: max over vertices of same-colored neighbours."""
    return int(_defects(graph, colors)[0].max(initial=0))


def check_defective_coloring(
    graph: Graph, colors: Mapping[Vertex, int], max_defect: int
) -> None:
    """Assert the coloring is ``max_defect``-defective.  Names the first
    uncolored vertex, else the first vertex (in vertex order) with too
    many same-colored neighbours and up to 6 of them."""
    defects, same = _defects(graph, colors)
    over = defects > max_defect
    if over.any():
        i = int(over.argmax())
        offsets, nbr = graph.csr()
        row = slice(offsets[i], offsets[i + 1])
        witnesses = list(map(graph.vertex_at, nbr[row][same[row]][:6].tolist()))
        raise VerificationError(
            f"vertex {graph.vertex_at(i)} has {defects[i]} same-colored "
            f"neighbours (> {max_defect}): {witnesses}"
        )


def color_class_subgraphs(
    graph: Graph, colors: Mapping[Vertex, int]
) -> Dict[int, Graph]:
    """The subgraph induced by every color class."""
    _same_colored(graph, colors)  # names an uncolored vertex
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
    (upper) of each class, both read from one degeneracy order per class.
    """
    lower = 0
    upper = 0
    for _c, sub in color_class_subgraphs(graph, colors).items():
        if sub.m == 0:
            continue
        k, order = degeneracy(sub)
        lower = max(lower, suffix_density_bound(sub, order))
        upper = max(upper, k)
    return lower, max(lower, upper)


def check_arbdefective_coloring(
    graph: Graph,
    colors: Mapping[Vertex, int],
    max_arbdefect: int,
    orientation: Optional[Orientation] = None,
) -> None:
    """Assert every color class has arboricity ≤ ``max_arbdefect``.

    With an orientation *witness* (the acyclic orientation the algorithm
    used, which must be over ``graph``) the check is exact: restrict the
    orientation to each class and count out-degrees plus unoriented
    incident edges — by Lemmas 3.1 + 2.5 the class arboricity is at most
    that maximum.  One masked ``bincount`` counts every class at once, and
    names the lowest vertex of the first class (in order of appearance).
    Without a witness we fall back to the Nash–Williams lower bound, which
    detects violations but can under-approximate.  An uncolored vertex is
    named first.
    """
    if orientation is not None:
        check_orientation_edges_exist(graph, orientation)
        own, code, same = _same_colored(graph, colors)
        src = graph.row_sources()
        out = np.bincount(src[same & (orientation.heads >= 0)], minlength=graph.n)
        over = np.flatnonzero(out > max_arbdefect)
        if len(over):
            i = int(over[own[over].argmin()])
            # codes are positions of first appearance, not dense ranks
            c = next(value for value, j in code.items() if j == own[i])
            raise VerificationError(
                f"class {c}: vertex {graph.vertex_at(i)} has witness "
                f"out-degree {out[i]} > {max_arbdefect}"
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
