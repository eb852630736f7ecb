"""The generic iterated-recoloring engine (Procedure Arb-Recolor and kin).

One engine powers three of the paper's building blocks:

* **Linial's O(Δ²)-coloring** [20] — zero defect allowed, conflicts counted
  against *all* neighbours;
* **Kuhn's ⌊Δ/p⌋-defective O(p²)-coloring** (Lemma 2.1, [17]) — positive
  defect budget, conflicts against all neighbours;
* **Algorithm Arb-Kuhn** (Section 5) — positive defect budget, conflicts
  counted against the node's *parents* under a fixed low-out-degree
  orientation, yielding an arbdefective coloring.

Each iteration is one synchronous round: every node knows its neighbours'
current colors (broadcast in the previous round), picks a point ``α`` of the
function family for which at most ``d`` conflicting neighbours agree with it
(Lemma 5.1 guarantees such a point exists), and adopts the new color
``⟨α, ϕ_χ(α)⟩``.  The color space shrinks from ``M`` to ``q² < M`` per
iteration, reaching its fixpoint after O(log* M) iterations.

The *defect budget schedule* decides how much of the target defect each
iteration may consume.  Two policies are implemented:

* ``"equal-split"`` (default): pre-divide the budget evenly over the
  estimated log*-many iterations, so the *final* iterations — which
  determine the fixpoint color count — retain real budget;
* ``"half-remaining"``: spend half the remaining budget per iteration.

The ablation ``benchmarks/bench_ablation_schedule.py`` measures both:
equal-split reaches a 2–3× smaller color fixpoint at the cost of one or
two extra iterations, because half-remaining exhausts the budget early
and leaves the fixpoint iteration with denominator ≈ 1.  Hence the
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, SimulationError
from ..families.polynomial import PolynomialFamily, select_family
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, NeighborSelector, Vertex


@dataclass(frozen=True)
class RecolorStep:
    """One iteration of the engine: family + defect budget for the step."""

    family: PolynomialFamily
    defect_prev: int
    defect_new: int
    colors_in: int

    @property
    def colors_out(self) -> int:
        """Color-space size after the step (q²)."""
        return self.family.num_pairs


def compute_recolor_schedule(
    initial_colors: int,
    conflict_degree: int,
    defect_target: int,
    *,
    budget_policy: str = "equal-split",
    max_steps: int = 64,
) -> List[RecolorStep]:
    """Plan the iterations of the recoloring engine.

    Every node computes this schedule locally from globally-known parameters
    (initial color count M₀, conflict degree, defect target), so all nodes
    agree on the family used in each round without communication.

    The loop stops at the *fixpoint*: the first step whose output color
    space would not be strictly smaller than its input.  For
    ``defect_target = 0`` this reproduces Linial's iteration (fixpoint
    O(Δ²)); for ``defect_target = Δ/p`` it reproduces Kuhn's (fixpoint
    O(p²·polylog)).

    Parameters
    ----------
    budget_policy:
        ``"equal-split"`` (default) pre-divides the defect budget evenly
        over an estimated log*-many steps; ``"half-remaining"`` spends
        half the remaining budget per step.  See the module docstring and
        the A1 ablation bench for why equal-split is the default.
    """
    if initial_colors < 1:
        raise InvalidParameterError("schedule: initial_colors must be >= 1")
    if defect_target < 0:
        raise InvalidParameterError("schedule: defect_target must be >= 0")
    if budget_policy not in ("half-remaining", "equal-split"):
        raise InvalidParameterError(f"unknown budget policy {budget_policy!r}")

    # equal-split needs an estimate of the number of steps; log* M₀ + 3 is a
    # safe overestimate computed from globals only.
    est_steps = 3
    x = initial_colors
    while x > 2:
        x = max(2, x.bit_length())
        est_steps += 1

    steps: List[RecolorStep] = []
    colors = initial_colors
    d_used = 0
    while len(steps) < max_steps:
        remaining = defect_target - d_used
        if remaining <= 0:
            d_new = d_used
        elif budget_policy == "half-remaining":
            d_new = d_used + (remaining + 1) // 2
        else:  # equal-split
            d_new = min(defect_target, d_used + max(1, defect_target // est_steps))
        family = select_family(colors, conflict_degree, d_used, d_new)
        if family.num_pairs >= colors:
            # Try committing the entire remaining budget before giving up.
            if d_new < defect_target:
                family = select_family(colors, conflict_degree, d_used, defect_target)
                if family.num_pairs < colors:
                    steps.append(
                        RecolorStep(family, d_used, defect_target, colors)
                    )
                    colors = family.num_pairs
                    d_used = defect_target
                    continue
            break
        steps.append(RecolorStep(family, d_used, d_new, colors))
        colors = family.num_pairs
        d_used = d_new
    return steps


def schedule_final_colors(schedule: Sequence[RecolorStep], initial_colors: int) -> int:
    """Color-space size after running the whole schedule."""
    return schedule[-1].colors_out if schedule else initial_colors


class RecolorProgram(NodeProgram):
    """Node program executing a precomputed recoloring schedule.

    Parameters
    ----------
    schedule:
        The iterations, as returned by :func:`compute_recolor_schedule`.
        Identical at every node (computed from global parameters).
    initial_color_of:
        Callable giving each node its starting color in ``[0, M₀)``.  The
        default is the node id — the paper's "trivial legal n-coloring that
        uses each vertex Id as its color".
    conflict_set_of:
        Optional callable ``(node, visible_neighbors) -> neighbour ids``
        whose colors count as conflicts (the node's *parents* for
        Arb-Kuhn, i.e. ``orientation.parents_of``).  Called once per node
        with ``ctx.neighbors``, the run's visible neighbourhood.  ``None``
        means all visible neighbours (Linial / Kuhn defective).
    """

    def __init__(
        self,
        schedule: Sequence[RecolorStep],
        initial_color_of: Optional[Callable[[Vertex], int]] = None,
        conflict_set_of: Optional[NeighborSelector] = None,
    ):
        self._schedule = schedule
        self._initial_color_of = initial_color_of
        self._conflict_set_of = conflict_set_of
        self._color: int = 0
        self._step_index = 0
        self._conflicts: Optional[FrozenSet[Vertex]] = None

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        if self._initial_color_of is None:
            self._color = ctx.node
        else:
            self._color = int(self._initial_color_of(ctx.node))
        if self._conflict_set_of is not None:
            self._conflicts = frozenset(self._conflict_set_of(ctx.node, ctx.neighbors))
        if not self._schedule:
            ctx.halt(self._color)
            return
        ctx.broadcast(self._color)

    def on_round(self, ctx: NodeContext) -> None:
        step = self._schedule[self._step_index]
        family = step.family
        if self._color >= step.colors_in:
            raise SimulationError(
                f"node {ctx.node}: color {self._color} outside the expected "
                f"space [0, {step.colors_in}) at step {self._step_index}"
            )
        neighbor_colors = [
            payload
            for sender, payload in ctx.inbox.items()
            if self._conflicts is None or sender in self._conflicts
        ]
        self._color = _recolor_once(
            family, self._color, neighbor_colors, step.defect_new, ctx.node
        )
        self._step_index += 1
        ctx.broadcast(self._color)
        if self._step_index >= len(self._schedule):
            ctx.halt(self._color)

    def column_kernel(self, col):
        """Vectorized iterated recoloring (Linial / Kuhn defective).

        Only the all-neighbours conflict configuration vectorizes; a
        restricted ``conflict_set_of`` (Arb-Kuhn's parents) declines the
        kernel and runs on the event engine, and so do ids too large for
        int64 columns when they are the initial colours.  Per step: base-q coefficient
        columns of every node's color, then ascending-α passes — one
        Horner evaluation over all nodes plus a CSR-segmented agreement
        count per α — fixing each node at its first point within the
        defect budget, exactly :func:`_recolor_once`'s scan order.
        """
        if self._conflict_set_of is not None:
            return None
        np = col.np
        schedule = self._schedule
        initial_color_of = self._initial_color_of
        ids = col.ids
        if initial_color_of is None and not -(2**62) <= ids[0] <= ids[-1] < 2**62:
            return None  # ids as colours (and their byte sizes) need int64

        def run() -> None:
            n = col.n
            deg = col.degrees
            nbr = col.neighbors
            if initial_color_of is None:
                colors = np.array(ids, dtype=np.int64)
            else:
                colors = np.fromiter(
                    (int(initial_color_of(v)) for v in ids),
                    np.int64,
                    count=n,
                )
            if not schedule:
                col.note_round(0, n)
                col.outputs = dict(zip(ids, colors.tolist(), strict=True))
                return
            sizes = col.int_payload_sizes(colors) if col.count_bytes else 0
            col.note_round(0, n, deg, sizes)
            src = col.row_sources()
            for step_index, step in enumerate(schedule):
                family = step.family
                q = family.q
                bad = colors >= step.colors_in
                if bad.any():
                    v = int(np.flatnonzero(bad)[0])
                    raise SimulationError(
                        f"node {ids[v]}: color {int(colors[v])} outside the "
                        f"expected space [0, {step.colors_in}) at step "
                        f"{step_index}"
                    )
                digits = []
                x = colors.copy()
                for _ in range(family.degree + 1):
                    digits.append(x % q)
                    x //= q
                unfixed = np.ones(n, dtype=bool)
                new_colors = np.zeros(n, dtype=np.int64)
                for alpha in range(q):
                    vals = np.zeros(n, dtype=np.int64)
                    for coeff in reversed(digits):
                        vals = (vals * alpha + coeff) % q
                    agree = vals[nbr] == vals[src]
                    agreements = np.bincount(src[agree], minlength=n)
                    ok = unfixed & (agreements <= step.defect_new)
                    if ok.any():
                        new_colors[ok] = alpha * q + vals[ok]
                        unfixed &= ~ok
                        if not unfixed.any():
                            break
                if unfixed.any():
                    v = int(np.flatnonzero(unfixed)[0])
                    raise SimulationError(
                        f"node {ids[v]}: no valid recoloring point exists "
                        f"(family q={q}, degree={family.degree}, defect "
                        f"budget {step.defect_new}, {int(deg[v])} "
                        "conflicts) — family selection bug"
                    )
                colors = new_colors
                sizes = col.int_payload_sizes(colors) if col.count_bytes else 0
                col.note_round(step_index + 1, n, deg, sizes)
            col.outputs = dict(zip(ids, colors.tolist(), strict=True))
            col.rounds = len(schedule)

        return run


def _recolor_once(
    family: PolynomialFamily,
    own_color: int,
    conflict_colors: Sequence[int],
    allowed_defect: int,
    node: Vertex,
) -> int:
    """One application of Procedure Arb-Recolor at a single node.

    Finds the smallest point ``α`` at which at most ``allowed_defect``
    conflicting colors' polynomials agree with the node's own polynomial,
    and returns the encoded pair ⟨α, ϕ(α)⟩.  Lemma 5.1 guarantees such an
    ``α`` exists whenever the family was selected by
    :func:`~repro.families.polynomial.select_family` — a failure here is a
    bug, reported loudly.
    """
    q = family.q
    degree = family.degree
    own_digits = _digits(own_color, q, degree)
    other_digits = [
        _digits(c, q, degree) for c in conflict_colors
    ]
    for alpha in range(q):
        own_val = _horner(own_digits, alpha, q)
        agreements = 0
        ok = True
        for digs in other_digits:
            if _horner(digs, alpha, q) == own_val:
                agreements += 1
                if agreements > allowed_defect:
                    ok = False
                    break
        if ok:
            return family.encode_pair(alpha, own_val)
    raise SimulationError(
        f"node {node}: no valid recoloring point exists (family q={q}, "
        f"degree={degree}, defect budget {allowed_defect}, "
        f"{len(conflict_colors)} conflicts) — family selection bug"
    )


def _digits(x: int, q: int, degree: int) -> Tuple[int, ...]:
    """Base-q digits of x, least significant first, padded to degree+1."""
    out = []
    for _ in range(degree + 1):
        out.append(x % q)
        x //= q
    return tuple(out)


def _horner(digits: Tuple[int, ...], alpha: int, q: int) -> int:
    """Evaluate the polynomial with the given coefficient digits at alpha."""
    acc = 0
    for coeff in reversed(digits):
        acc = (acc * alpha + coeff) % q
    return acc


def run_recoloring(
    network: SynchronousNetwork,
    *,
    conflict_degree: int,
    defect_target: int,
    initial_colors: Optional[int] = None,
    initial_color_of: Optional[Callable[[Vertex], int]] = None,
    conflict_set_of: Optional[NeighborSelector] = None,
    participants=None,
    part_of=None,
    budget_policy: str = "equal-split",
    algorithm_name: str = "recolor",
) -> ColorAssignment:
    """Run the full iterated recoloring on (a subgraph of) a network.

    ``conflict_set_of(node, visible_neighbors)`` is :class:`RecolorProgram`'s.

    Returns a :class:`~repro.types.ColorAssignment` whose ``rounds`` is the
    number of communication rounds consumed (O(log* n)).
    """
    if initial_colors is None:
        initial_colors = max(network.graph.vertices, default=0) + 1
    schedule = compute_recolor_schedule(
        initial_colors,
        conflict_degree,
        defect_target,
        budget_policy=budget_policy,
    )
    result = network.run(
        lambda: RecolorProgram(schedule, initial_color_of, conflict_set_of),
        participants=participants,
        part_of=part_of,
        global_params={
            "conflict_degree": conflict_degree,
            "defect_target": defect_target,
        },
    )
    return ColorAssignment(
        colors=dict(result.outputs),
        rounds=result.rounds,
        algorithm=algorithm_name,
        params={
            "conflict_degree": conflict_degree,
            "defect_target": defect_target,
            "initial_colors": initial_colors,
            "final_color_space": schedule_final_colors(schedule, initial_colors),
            "iterations": len(schedule),
        },
    )
