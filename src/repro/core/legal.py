"""Procedure Legal-Coloring (Algorithm 2) and its parameterisations.

The paper's main results, Section 4.  The recursion: while the current
arboricity bound α exceeds p, run Procedure Arbdefective-Coloring with
k = t = p *in parallel on every current part*, refining the vertex
partition into p× more parts of ~(3+ε)/p× smaller arboricity; when α ≤ p,
legally color every part with its own palette of ⌊(2+ε)α⌋+1 colors
(Lemma 2.2(1): complete orientation + greedy along it).

Parameterisations reproduced here:

* :func:`oneshot_legal_coloring` — Lemma 4.1: a single Arbdefective-
  Coloring invocation with k = t = ⌈a^{1/3}⌉; O(a) colors in
  O(a^{2/3} log n) rounds.
* :func:`legal_coloring` — the general Algorithm 2 with explicit p.
* :func:`legal_coloring_theorem43` — p = ⌈a^{µ/2}⌉: O(a) colors in
  O(a^µ log n) rounds.
* :func:`legal_coloring_tradeoff45` — p = ⌈f(a)^{1/2}⌉ for a slowly
  growing f: a^{1+o(1)} colors in O(f(a) log a log n) rounds.
* :func:`legal_coloring_corollary46` — p = 2^{⌈1/η⌉}: O(a^{1+η}) colors
  in O(log a log n) rounds.
* :func:`delta_plus_one_via_arboricity` — Corollary 4.7: for graphs with
  a ≤ Δ^{1−ν}, an o(Δ)-coloring via Corollary 4.6 followed by a greedy
  reduction to Δ+1 colors.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from ..errors import InvalidParameterError
from ..simulator.network import SynchronousNetwork, refine_parts
from ..types import ColorAssignment, Vertex
from .arbdefective import arbdefective_coloring, orientation_greedy_coloring
from .color_reduction import greedy_reduction
from .orientation import complete_orientation


def color_parts_legally(
    network: SynchronousNetwork,
    labels: Mapping[Vertex, int],
    alpha: int,
    epsilon: float = 0.5,
    *,
    part_of=None,
) -> ColorAssignment:
    """Color every part legally with a disjoint palette (Alg. 2, lines 17-20).

    Every part has arboricity ≤ alpha; each is colored with
    A = ⌊(2+ε)·alpha⌋+1 colors via complete orientation + greedy (Lemma
    2.2(1)), all parts in parallel.  Vertex ``v`` gets the final color
    ``label(v)·A + ψ(v)``.
    """
    alpha = max(1, alpha)
    parts = refine_parts(part_of, labels)
    participants = list(labels.keys())
    orientation = complete_orientation(
        network, alpha, epsilon, participants=participants, part_of=parts
    )
    out_bound = int(orientation.params["out_degree_bound"])
    local = orientation_greedy_coloring(
        network,
        orientation,
        out_bound,
        participants=participants,
        part_of=parts,
    )
    palette = out_bound + 1
    colors = {v: labels[v] * palette + local.colors[v] for v in labels}
    return ColorAssignment(
        colors=colors,
        rounds=orientation.rounds + local.rounds,
        algorithm="color-parts-legally",
        params={"alpha": alpha, "palette_per_part": palette},
    )


def oneshot_legal_coloring(
    network: SynchronousNetwork,
    a: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Lemma 4.1: O(a)-coloring in O(a^{2/3} log n) time, one invocation.

    Arbdefective-Coloring with k = t = ⌈a^{1/3}⌉ splits the graph into
    ⌈a^{1/3}⌉ parts of arboricity ≤ (3+ε)a^{2/3}; coloring the parts in
    parallel with disjoint palettes yields O(a) colors overall.
    """
    if a < 1:
        raise InvalidParameterError(f"oneshot_legal_coloring: a must be >= 1")
    k = max(1, math.ceil(a ** (1.0 / 3.0)))
    decomposition = arbdefective_coloring(
        network, a, k=k, t=k, epsilon=epsilon,
        participants=participants, part_of=part_of,
    )
    final = color_parts_legally(
        network,
        decomposition.label,
        decomposition.arboricity_bound,
        epsilon,
        part_of=part_of,
    )
    return ColorAssignment(
        colors=final.colors,
        rounds=decomposition.rounds + final.rounds,
        algorithm="oneshot-legal (Lemma 4.1)",
        params={
            "a": a,
            "k": k,
            "epsilon": epsilon,
            "arbdefective_rounds": decomposition.rounds,
            "final_rounds": final.rounds,
        },
    )


def legal_coloring(
    network: SynchronousNetwork,
    a: int,
    p: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Procedure Legal-Coloring (Algorithm 2).

    Recursively decomposes the graph with Arbdefective-Coloring
    (k = t = p) until every part has arboricity ≤ p, then colors all parts
    in parallel with disjoint palettes.  See the module docstring for the
    parameterisations and their guarantees.
    """
    if a < 1:
        raise InvalidParameterError(f"legal_coloring: a must be >= 1, got {a}")
    if p < 2:
        raise InvalidParameterError(f"legal_coloring: p must be >= 2, got {p}")
    graph = network.graph
    if participants is None:
        participants = list(graph.vertices)
    labels: Dict[Vertex, int] = {v: 0 for v in participants}
    alpha = a
    total_rounds = 0
    iterations = 0
    while alpha > p:
        parts = refine_parts(part_of, labels)
        decomposition = arbdefective_coloring(
            network, alpha, k=p, t=p, epsilon=epsilon,
            participants=participants, part_of=parts,
        )
        total_rounds += decomposition.rounds
        labels = {v: labels[v] * p + decomposition.label[v] for v in labels}
        iterations += 1
        if decomposition.arboricity_bound >= alpha:
            # p too small to make progress ((3+ε)/p ≥ 1); stop refining —
            # the final stage still produces a legal coloring, only with
            # more colors per part.
            alpha = decomposition.arboricity_bound
            break
        alpha = max(1, decomposition.arboricity_bound)
    final = color_parts_legally(
        network, labels, alpha, epsilon, part_of=part_of
    )
    total_rounds += final.rounds
    return ColorAssignment(
        colors=final.colors,
        rounds=total_rounds,
        algorithm="legal-coloring (Algorithm 2)",
        params={
            "a": a,
            "p": p,
            "epsilon": epsilon,
            "iterations": iterations,
            "final_alpha": alpha,
            "palette_per_part": final.params["palette_per_part"],
        },
    )


def legal_coloring_theorem43(
    network: SynchronousNetwork,
    a: int,
    mu: float,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Theorem 4.3: O(a) colors in O(a^µ log n) rounds, p = ⌈a^{µ/2}⌉."""
    if not (0.0 < mu <= 2.0):
        raise InvalidParameterError(f"theorem43: mu must be in (0, 2], got {mu}")
    # The paper assumes a is large enough that p ≥ 16; at bench scale we
    # clamp to the smallest p for which an iteration still shrinks the
    # arboricity (p > 3 + ε).
    p = max(4, math.ceil(a ** (mu / 2.0)))
    result = legal_coloring(
        network, a, p, epsilon, participants=participants, part_of=part_of
    )
    result.algorithm = "legal-coloring (Theorem 4.3)"
    result.params["mu"] = mu
    return result


def legal_coloring_corollary44(
    network: SynchronousNetwork,
    a: int,
    mu: float,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Corollary 4.4: O(a) colors in O(a^µ + log^{1+µ} n) rounds.

    For graphs of *superlogarithmic* arboricity the paper sharpens Theorem
    4.3 by using the larger parameter p = ⌊a^{µ/2} / log n⌋, which makes
    the while-loop constant-depth while the final per-part coloring costs
    only O(p log n) = O(a^µ) rounds.  When a is not superlogarithmic (the
    computed p would be < 4) this degrades gracefully to Theorem 4.3's
    parameterisation, matching the corollary's two-regime statement.
    """
    if not (0.0 < mu <= 2.0):
        raise InvalidParameterError(f"corollary44: mu must be in (0, 2], got {mu}")
    n = max(2, network.graph.n)
    log_n = max(1.0, math.log2(n))
    p_super = int(a ** (mu / 2.0) / log_n)
    if p_super >= 4:
        p = p_super
        regime = "superlogarithmic"
    else:
        p = max(4, math.ceil(a ** (mu / 2.0)))
        regime = "theorem-4.3-fallback"
    result = legal_coloring(
        network, a, p, epsilon, participants=participants, part_of=part_of
    )
    result.algorithm = "legal-coloring (Corollary 4.4)"
    result.params["mu"] = mu
    result.params["regime"] = regime
    return result


def legal_coloring_tradeoff45(
    network: SynchronousNetwork,
    a: int,
    f_value: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Theorem 4.5: a^{1+o(1)} colors in O(f(a)·log a·log n) rounds.

    ``f_value`` is the (caller-evaluated) value of the slowly-growing
    function f(a) = ω(1); the procedure uses p = ⌈√f(a)⌉.
    """
    if f_value < 4:
        f_value = 4
    # clamp as in Theorem 4.3: the recursion shrinks only for p > 3 + ε
    p = max(4, math.ceil(math.sqrt(f_value)))
    result = legal_coloring(
        network, a, p, epsilon, participants=participants, part_of=part_of
    )
    result.algorithm = "legal-coloring (Theorem 4.5)"
    result.params["f_value"] = f_value
    return result


def legal_coloring_corollary46(
    network: SynchronousNetwork,
    a: int,
    eta: float,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Corollary 4.6: O(a^{1+η}) colors in O(log a·log n) rounds.

    Uses the constant parameter p = 2^{⌈1/η⌉}, so the recursion runs for
    O(log a / log p) iterations, each costing O(p² log n) rounds.
    """
    if eta <= 0:
        raise InvalidParameterError(f"corollary46: eta must be > 0, got {eta}")
    exponent = min(16, math.ceil(1.0 / eta))
    p = max(4, 2 ** exponent)
    result = legal_coloring(
        network, a, p, epsilon, participants=participants, part_of=part_of
    )
    result.algorithm = "legal-coloring (Corollary 4.6)"
    result.params["eta"] = eta
    return result


def delta_plus_one_via_arboricity(
    network: SynchronousNetwork,
    a: int,
    nu: float = 0.25,
    epsilon: float = 0.5,
    *,
    max_degree: Optional[int] = None,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Corollary 4.7: (Δ+1)-coloring when a ≤ Δ^{1−ν}, in polylog time.

    Computes an O(a^{1+ν})-coloring (Corollary 4.6 with η = ν); because
    a^{1+ν} ≤ Δ^{1−ν²} = o(Δ), a final greedy class-by-class reduction
    (o(Δ) additional rounds) brings it down to exactly Δ+1 colors.
    """
    if max_degree is None:
        max_degree = network.graph.max_degree
    base = legal_coloring_corollary46(
        network, a, eta=nu, epsilon=epsilon,
        participants=participants, part_of=part_of,
    )
    normalized = base.normalized()
    m = normalized.num_colors
    target = max_degree + 1
    if m <= target:
        result = ColorAssignment(
            colors=normalized.colors,
            rounds=base.rounds,
            algorithm="delta-plus-one-via-arboricity (Corollary 4.7)",
            params={"a": a, "nu": nu, "pre_reduction_colors": m},
        )
        return result
    reduced = greedy_reduction(
        network,
        normalized.colors,
        m,
        target,
        participants=participants,
        part_of=part_of,
    )
    return ColorAssignment(
        colors=reduced.colors,
        rounds=base.rounds + reduced.rounds,
        algorithm="delta-plus-one-via-arboricity (Corollary 4.7)",
        params={
            "a": a,
            "nu": nu,
            "max_degree": max_degree,
            "pre_reduction_colors": m,
        },
    )
