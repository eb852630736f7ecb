"""Ablation A2 — greedy vs Kuhn–Wattenhofer color reduction.

README, *Substitutions and ablations*: the Δ+1 pipeline (our substitute
for [5]/[17]) reduces Linial's O(Δ²) palette with KW's divide-and-conquer
instead of the naive class-by-class sweep.  This bench composes Linial's
coloring with the greedy reduction itself and quantifies the round
difference — O(Δ log(m/Δ)) vs m − Δ − 1 — which is what keeps
Complete-Orientation's level coloring affordable.
"""


from conftest import run_once
from repro import SynchronousNetwork
from repro.analysis import emit, render_table
from repro.core import delta_plus_one_coloring, greedy_reduction, linial_coloring
from repro.graphs import random_regular
from repro.verify import check_legal_coloring


def test_reduction_strategies(benchmark):
    rows = []
    for n, d in [(300, 8), (600, 12), (900, 16)]:
        gen = random_regular(n, d, seed=1500 + n)
        net = SynchronousNetwork(gen.graph)
        delta = gen.graph.max_degree
        kw = delta_plus_one_coloring(net, delta)
        linial = linial_coloring(net, delta)
        m = linial.params["final_color_space"]
        greedy = greedy_reduction(net, linial.colors, m, delta + 1)
        greedy_rounds = linial.rounds + greedy.rounds
        check_legal_coloring(gen.graph, kw.colors)
        check_legal_coloring(gen.graph, greedy.colors)
        assert kw.num_colors <= delta + 1
        assert greedy.num_colors <= delta + 1
        rows.append(
            [f"n={n},Δ={delta}", kw.rounds, greedy_rounds,
             f"{greedy_rounds / max(1, kw.rounds):.1f}x"]
        )
        # KW must not lose; it wins clearly once Δ² >> Δ log Δ
        assert kw.rounds <= greedy_rounds
    emit(
        render_table(
            "A2 ablation — Δ+1 pipeline: KW vs greedy reduction rounds",
            ["instance", "KW rounds", "greedy rounds", "greedy/KW"],
            rows,
            note="KW reduces O(Δ²)→Δ+1 in O(Δ log Δ) rounds; greedy pays Θ(Δ²)",
        ),
        "a2_ablation_reduction.txt",
    )
    gen = random_regular(600, 12, seed=2100)
    net = SynchronousNetwork(gen.graph)
    run_once(
        benchmark,
        lambda: delta_plus_one_coloring(net, gen.graph.max_degree),
    )
