"""Distributed arboricity estimation: running the stack when a is unknown.

The paper (like BE08) assumes the arboricity bound ``a`` is globally
known.  When it is not, the standard remedy is *doubling*: attempt the
H-partition with the candidate bound â = 1, 2, 4, ...; a candidate at
least the true arboricity makes the peeling finish within its O(log n)
level budget, while an underestimate stalls — and a stall is *locally
detectable* (the peeling exceeded the budget without everyone leaving).
Each attempt is the H-partition peel of Lemma 2.3 itself, run with the
level budget as its round limit.

Cost analysis: a failed attempt costs its level budget O(log n) rounds;
there are O(log a) attempts; so estimation costs O(log a · log n) rounds —
the same order as Corollary 4.6 itself, i.e. not-knowing-a is asymptotically
free for the paper's headline algorithm.

:func:`estimate_arboricity_bound` returns the first successful candidate
(a certified upper bound within a factor (2+ε)·2 of the true arboricity);
:func:`legal_coloring_auto` chains it with Procedure Legal-Coloring.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import InvalidParameterError, RoundLimitExceeded
from ..simulator.network import SynchronousNetwork, partition
from ..types import ColorAssignment, HPartition
from .hpartition import HPartitionProgram, degree_threshold, expected_num_levels
from .legal import legal_coloring_corollary46


def try_hpartition(
    network: SynchronousNetwork,
    candidate: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> Tuple[Optional[HPartition], int]:
    """Attempt an H-partition with arboricity candidate â.

    Runs the H-partition peel, :class:`HPartitionProgram`, with the level
    budget as its round limit.  Returns ``(hpartition, rounds)`` on
    success, or ``(None, budget)`` when the peel did not finish within the
    budget — i.e. â is too small.  A failed attempt costs its whole
    budget: the nodes still active in the budget's last round detect the
    stall locally.
    """
    if candidate < 1:
        raise InvalidParameterError("candidate arboricity must be >= 1")
    threshold = degree_threshold(candidate, epsilon)
    budget = expected_num_levels(max(2, network.graph.n), epsilon) + 2
    try:
        result = network.run(
            lambda: HPartitionProgram(threshold),
            participants=participants,
            part_of=part_of,
            round_limit=budget,
            global_params={"candidate": candidate, "epsilon": epsilon},
        )
    except RoundLimitExceeded:
        return None, budget
    hp = HPartition(
        index=result.outputs,
        degree_bound=threshold,
        rounds=result.rounds,
        params={"a": candidate, "epsilon": epsilon, "estimated": True},
    )
    return hp, result.rounds


def estimate_arboricity_bound(
    network: SynchronousNetwork,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> Tuple[int, HPartition, int]:
    """Estimate an arboricity upper bound by doubling (â = 1, 2, 4, ...).

    Returns ``(bound, hpartition, total_rounds)``.  The returned bound
    satisfies: the H-partition with threshold ⌊(2+ε)·bound⌋ succeeded, so
    every algorithm in this library can run with it; and bound < 2·a + 2
    for the true arboricity a (the previous candidate bound/2 failed, and
    candidates ≥ a always succeed because the average degree argument of
    Lemma 2.3 applies).
    """
    part = partition(network.graph, participants, part_of)
    total_rounds = 0
    candidate = 1
    while candidate <= max(1, network.graph.n):
        hp, rounds = try_hpartition(network, candidate, epsilon, part_of=part)
        total_rounds += rounds
        if hp is not None:
            return candidate, hp, total_rounds
        candidate *= 2
    raise InvalidParameterError(
        "arboricity estimation failed to converge"
    )  # pragma: no cover - candidates reach n, which always succeeds


def legal_coloring_auto(
    network: SynchronousNetwork,
    eta: float = 0.5,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Color a graph of *unknown* arboricity: estimate, then Corollary 4.6.

    Total cost O(log a · log n) rounds — the estimation phase is the same
    order as the coloring itself, so not knowing a is asymptotically free.
    """
    part = partition(network.graph, participants, part_of)
    bound, _hp, est_rounds = estimate_arboricity_bound(network, epsilon, part_of=part)
    coloring = legal_coloring_corollary46(
        network, bound, eta=eta, epsilon=epsilon, part_of=part
    )
    return ColorAssignment(
        colors=coloring.colors,
        rounds=est_rounds + coloring.rounds,
        algorithm="legal-coloring-auto (doubling + Corollary 4.6)",
        params={
            "estimated_bound": bound,
            "estimation_rounds": est_rounds,
            "coloring_rounds": coloring.rounds,
            "eta": eta,
        },
    )
