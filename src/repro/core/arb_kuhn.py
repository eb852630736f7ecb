"""Section 5: Algorithm Arb-Kuhn and the fast-coloring tradeoffs.

Arb-Kuhn extends Kuhn's defective-coloring algorithm to bounded-arboricity
graphs: fix an acyclic complete orientation σ of out-degree
A = ⌊(2+ε)a⌋ (from the H-partition, O(log n) rounds), then run the
iterated recoloring of Procedure Arb-Recolor with conflicts counted only
against *parents* under σ.  After O(log* n) iterations every vertex has at
most d same-colored parents, so each color class — with σ restricted to it
— has an acyclic orientation of out-degree ≤ d, hence arboricity ≤ d
(Lemma 2.5): a d-arbdefective O((A/d)²)-coloring in O(log n) rounds total.

On top of it:

* :func:`theorem52_fast_coloring` — Theorem 5.2: an O(a²/g(a))-coloring in
  O(log g(a) · log n) rounds, by decomposing with defect d = f(a) and
  coloring every class with Corollary 4.6 in parallel.
* :func:`theorem53_tradeoff` — Theorem 5.3: an O(a·t)-coloring in
  O((a/t)^µ · log n) rounds, by decomposing with defect a/t and coloring
  every class with Theorem 4.3 (Procedure Legal-Coloring) in parallel.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..errors import InvalidParameterError
from ..simulator.engines import ids_at, members
from ..simulator.network import (
    SynchronousNetwork,
    column_of,
    partition,
    refine_parts,
)
from ..types import ColorAssignment, Decomposition
from .forests import hpartition_orientation
from .hpartition import compute_hpartition
from .legal import legal_coloring_corollary46, legal_coloring_theorem43, mixed_radix
from .recolor import run_recoloring


#: The one extra round nodes spend learning neighbours' H-indices.
#:
#: The (level, id) orientation is locally computable once every node knows
#: its neighbours' levels; we account for that single exchange round
#: explicitly instead of burying it.
_LEVEL_EXCHANGE_ROUNDS = 1


def arb_kuhn_decomposition(
    network: SynchronousNetwork,
    a: int,
    defect: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> Decomposition:
    """Algorithm Arb-Kuhn: a ``defect``-arbdefective O((a/defect)²·polylog)-
    coloring in O(log n) rounds.

    ``defect`` is the arboricity allowed per color class (the paper's d;
    d = a/t yields the a/t-arbdefective O(t²)-coloring of Section 5).
    """
    if a < 1:
        raise InvalidParameterError(f"arb_kuhn: a must be >= 1, got {a}")
    if defect < 0:
        raise InvalidParameterError(f"arb_kuhn: defect must be >= 0, got {defect}")
    graph = network.graph
    part = partition(graph, participants, part_of)
    hp = compute_hpartition(network, a, epsilon, part_of=part)
    orientation = hpartition_orientation(graph, hp)
    out_bound = hp.degree_bound
    recolored = run_recoloring(
        network,
        conflict_degree=out_bound,
        defect_target=defect,
        orientation=orientation,
        part_of=part,
        algorithm_name="arb-kuhn",
    )
    total_rounds = hp.rounds + _LEVEL_EXCHANGE_ROUNDS + recolored.rounds
    return Decomposition(
        label=recolored.colors,
        arboricity_bound=defect,
        rounds=total_rounds,
        params={
            "a": a,
            "defect": defect,
            "epsilon": epsilon,
            "out_degree_bound": out_bound,
            "color_space": recolored.params["final_color_space"],
            "orientation": orientation,
        },
    )


def _color_classes(
    graph, decomposition: Decomposition, color_class, part, algorithm: str, params
) -> ColorAssignment:
    """Colour every Arb-Kuhn class in parallel, each on its own palette:
    ``color_class(part_of=...)`` colours all classes of ``part`` refined by
    the labels at once; class ``c`` then moves to palette ``c``, of size
    (largest colour used) + 1."""
    labels = column_of(graph, part, decomposition.label.values())
    per_class = color_class(part_of=refine_parts(part, labels))
    rows = members(part, graph.n)
    # Python ints: a class's legal colours are exact at any size
    psi = np.fromiter(per_class.colors.values(), object, count=len(rows))
    palette = max(psi, default=0) + 1
    colors = mixed_radix(labels[rows], palette, psi)
    return ColorAssignment(
        colors=dict(zip(ids_at(graph, rows), colors.tolist(), strict=True)),
        rounds=decomposition.rounds + per_class.rounds,
        algorithm=algorithm,
        params=params,
    )


def theorem52_fast_coloring(
    network: SynchronousNetwork,
    a: int,
    d: int,
    eta: float = 0.25,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Theorem 5.2: O(a²/g(a)) colors in O(log g(a) · log n) rounds.

    ``d`` plays the role of f(a) = ω(1): Arb-Kuhn decomposes the graph into
    O((a/d)²) classes of arboricity ≤ d; every class is colored with
    O(d^{1+η}) colors in O(log d · log n) rounds (Corollary 4.6) using a
    disjoint palette, for O(a²/d^{1−η}) colors overall, i.e.
    g(a) = d^{1−η}.
    """
    if d < 1:
        raise InvalidParameterError(f"theorem52: d must be >= 1, got {d}")
    part = partition(network.graph, participants, part_of)
    decomposition = arb_kuhn_decomposition(
        network, a, defect=d, epsilon=epsilon, part_of=part
    )
    return _color_classes(
        network.graph,
        decomposition,
        partial(
            legal_coloring_corollary46, network, max(1, d), eta=eta, epsilon=epsilon
        ),
        part,
        "fast-coloring (Theorem 5.2)",
        {
            "a": a,
            "d": d,
            "eta": eta,
            "g_value": d ** (1.0 - eta),
            "num_classes": decomposition.num_parts,
            "class_color_space": decomposition.params["color_space"],
        },
    )


def theorem53_tradeoff(
    network: SynchronousNetwork,
    a: int,
    t: int,
    mu: float = 0.5,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Theorem 5.3: O(a·t) colors in O((a/t)^µ · log n) rounds.

    Arb-Kuhn with defect ⌈a/t⌉ splits the graph into O(t²) classes of
    arboricity ≤ a/t; Procedure Legal-Coloring (Theorem 4.3) colors every
    class with O(a/t) colors in O((a/t)^µ log n) rounds in parallel.
    """
    if t < 1 or t > a:
        raise InvalidParameterError(f"theorem53: need 1 <= t <= a, got t={t}, a={a}")
    alpha = max(1, math.ceil(a / t))
    part = partition(network.graph, participants, part_of)
    decomposition = arb_kuhn_decomposition(
        network, a, defect=alpha, epsilon=epsilon, part_of=part
    )
    return _color_classes(
        network.graph,
        decomposition,
        partial(legal_coloring_theorem43, network, alpha, mu=mu, epsilon=epsilon),
        part,
        "tradeoff-coloring (Theorem 5.3)",
        {
            "a": a,
            "t": t,
            "mu": mu,
            "alpha_per_class": alpha,
            "num_classes": decomposition.num_parts,
        },
    )
