"""Kuhn's defective coloring (Lemma 2.1, SPAA'09 [17]).

An ``m``-defective ``p``-coloring allows each vertex up to ``m`` same-colored
neighbours; each color class then induces a subgraph of maximum degree ≤ m.
Lemma 2.1: a ⌊Δ/p⌋-defective O(p²)-coloring is computable in O(log* n)
rounds.  The paper uses it inside Procedure Partial-Orientation (Algorithm
1, line 3) to color every H-level quickly — defectively, but with a defect
small enough to become the orientation's *deficit*.

Implemented with the generic recoloring engine: conflicts counted against
all neighbours, defect budget ⌊Δ/p⌋ spent over the O(log* n) iterations.
With the explicit polynomial families the color count is O(p²·polylog p)
rather than O(p²) — see README, *Substitutions and ablations*.
"""

from __future__ import annotations

from typing import Optional

from ..errors import InvalidParameterError
from ..simulator.network import SynchronousNetwork
from ..types import ColorAssignment
from .recolor import run_recoloring


def kuhn_defective_coloring(
    network: SynchronousNetwork,
    p: int,
    max_degree: Optional[int] = None,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Compute a ⌊Δ/p⌋-defective O(p²)-coloring in O(log* n) rounds.

    Parameters
    ----------
    p:
        The trade-off knob: larger p means smaller defect but more colors.
    max_degree:
        Degree bound Δ of the visible graph (defaults to the true one).
    """
    if p < 1:
        raise InvalidParameterError(f"kuhn_defective_coloring: p must be >= 1, got {p}")
    if max_degree is None:
        max_degree = network.graph.max_degree
    defect = max_degree // p
    result = run_recoloring(
        network,
        conflict_degree=max_degree,
        defect_target=defect,
        participants=participants,
        part_of=part_of,
        algorithm_name="kuhn-defective",
    )
    result.params["p"] = p
    result.params["defect_bound"] = defect
    return result
