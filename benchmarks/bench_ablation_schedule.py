"""Ablation A1 — the defect budget schedule in the recoloring engine.

README, *Substitutions and ablations*: two policies for spending the
defect budget across the log*-many iterations.  "half-remaining" spends
half the remaining budget per step; "equal-split" (the library default)
pre-divides it evenly.
Measured result: equal-split reaches a 2–3× smaller color fixpoint at the
cost of 1–2 extra iterations, because half-remaining exhausts the budget
early and leaves the fixpoint iteration with denominator ≈ 1.  This bench
is the evidence for the default.
"""


from conftest import run_once
from repro.analysis import emit, render_table
from repro.core import compute_recolor_schedule
from repro.core.recolor import schedule_final_colors

M0 = 10**6


def test_budget_policies(benchmark):
    rows = []
    wins = {"half-remaining": 0, "equal-split": 0}
    for delta, defect in [(16, 4), (32, 8), (64, 8), (64, 16), (128, 16)]:
        per_policy = {}
        for policy in ("half-remaining", "equal-split"):
            schedule = compute_recolor_schedule(
                M0, delta, defect, budget_policy=policy
            )
            per_policy[policy] = (
                schedule_final_colors(schedule, M0),
                len(schedule),
            )
        rows.append(
            [f"Δ={delta},d={defect}",
             per_policy["half-remaining"][0], per_policy["half-remaining"][1],
             per_policy["equal-split"][0], per_policy["equal-split"][1]]
        )
        better = min(per_policy, key=lambda p: per_policy[p][0])
        wins[better] += 1
    emit(
        render_table(
            "A1 ablation — defect budget schedule (M0 = 10^6)",
            ["params", "half-rem colors", "iters", "equal-split colors", "iters"],
            rows,
            note="equal-split (library default) reserves budget for the "
            "fixpoint iterations and wins on colors; half-remaining saves "
            "1-2 iterations",
        ),
        "a1_ablation_schedule.txt",
    )
    # the finding that set the default: equal-split wins on colors
    assert wins["equal-split"] >= 4
    run_once(
        benchmark,
        lambda: compute_recolor_schedule(M0, 64, 16, budget_policy="half-remaining"),
    )
