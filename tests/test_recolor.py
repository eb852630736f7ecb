"""The iterated recoloring engine: schedules and executions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SynchronousNetwork
from repro.core.recolor import (
    compute_recolor_schedule,
    run_recoloring,
    schedule_final_colors,
)
from repro.errors import InvalidParameterError
from repro.graphs import forest_union, random_regular, random_tree
from repro.verify import check_legal_coloring, coloring_defect


class TestSchedule:
    def test_strictly_shrinking(self):
        schedule = compute_recolor_schedule(10**6, 16, 0)
        sizes = [*(s.colors_in for s in schedule), schedule[-1].colors_out]
        assert all(a > b for a, b in zip(sizes, sizes[1:], strict=False))

    def test_defect_budget_respected(self):
        schedule = compute_recolor_schedule(10**6, 40, 7)
        assert all(s.defect_new <= 7 for s in schedule)
        # the budget is consumed monotonically
        for prev, cur in zip(schedule, schedule[1:], strict=False):
            assert cur.defect_prev == prev.defect_new

    def test_zero_defect_fixpoint_quadratic(self):
        """Linial's fixpoint: O(Δ²) colors from n colors."""
        for delta in (4, 8, 16, 32):
            schedule = compute_recolor_schedule(10**6, delta, 0)
            final = schedule_final_colors(schedule, 10**6)
            assert final <= 16 * delta * delta

    def test_positive_defect_fixpoint_smaller(self):
        delta = 64
        legal = schedule_final_colors(
            compute_recolor_schedule(10**6, delta, 0), 10**6
        )
        defective = schedule_final_colors(
            compute_recolor_schedule(10**6, delta, delta // 4), 10**6
        )
        assert defective < legal

    def test_log_star_length(self):
        """The number of iterations is tiny even for astronomically many
        initial colors (log* behaviour)."""
        schedule = compute_recolor_schedule(10**30, 10, 0)
        assert len(schedule) <= 8

    def test_already_at_fixpoint(self):
        # fewer initial colors than any step could produce: empty schedule
        schedule = compute_recolor_schedule(9, 16, 0)
        assert schedule == []

    def test_single_color(self):
        assert compute_recolor_schedule(1, 5, 0) == []

    def test_equal_split_policy(self):
        half = compute_recolor_schedule(10**6, 40, 8, budget_policy="half-remaining")
        equal = compute_recolor_schedule(10**6, 40, 8, budget_policy="equal-split")
        assert all(s.defect_new <= 8 for s in equal)
        # both terminate with bounded color spaces
        assert schedule_final_colors(half, 10**6) < 10**6
        assert schedule_final_colors(equal, 10**6) < 10**6

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            compute_recolor_schedule(0, 5, 0)
        with pytest.raises(InvalidParameterError):
            compute_recolor_schedule(10, 5, -1)
        with pytest.raises(InvalidParameterError):
            compute_recolor_schedule(10, 5, 0, budget_policy="bogus")

    @given(
        colors=st.integers(min_value=1, max_value=10**9),
        delta=st.integers(min_value=0, max_value=100),
        defect=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_schedule_sound(self, colors, delta, defect):
        schedule = compute_recolor_schedule(colors, delta, defect)
        m = colors
        d_prev = 0
        for step in schedule:
            assert step.colors_in == m
            assert step.colors_out < m
            assert step.defect_prev == d_prev
            assert d_prev <= step.defect_new <= defect
            # Lemma 5.1's strict inequality
            eff = max(0, delta - step.defect_prev)
            denom = step.defect_new - step.defect_prev + 1
            assert step.family.q * denom > step.family.degree * eff
            assert step.family.size >= m
            m = step.colors_out
            d_prev = step.defect_new


class TestRunRecoloring:
    def test_legal_zero_defect(self):
        g = random_regular(150, 6, seed=1)
        net = SynchronousNetwork(g.graph)
        result = run_recoloring(net, conflict_degree=6, defect_target=0)
        check_legal_coloring(g.graph, result.colors)
        assert result.params["final_color_space"] <= 16 * 36

    def test_defective_bound(self):
        g = random_regular(200, 10, seed=2)
        net = SynchronousNetwork(g.graph)
        result = run_recoloring(net, conflict_degree=10, defect_target=3)
        assert coloring_defect(g.graph, result.colors) <= 3

    def test_rounds_equal_schedule_length(self):
        g = random_tree(300, seed=3)
        net = SynchronousNetwork(g.graph)
        delta = g.graph.max_degree
        schedule = compute_recolor_schedule(300, delta, 0)
        result = run_recoloring(net, conflict_degree=delta, defect_target=0)
        assert result.rounds == len(schedule)

    def test_conflicts_against_parents_only(self):
        """Arbdefective mode: same-colored parents bounded, not neighbours."""
        from repro.core.forests import hpartition_orientation
        from repro.core.hpartition import compute_hpartition

        g = forest_union(200, 4, seed=4)
        net = SynchronousNetwork(g.graph)
        hp = compute_hpartition(net, 4)
        orientation = hpartition_orientation(g.graph, hp)

        result = run_recoloring(
            net,
            conflict_degree=hp.degree_bound,
            defect_target=2,
            orientation=orientation,
        )
        for v in g.graph.vertices:
            same_parents = sum(
                1
                for u in orientation.parents_of(v, g.graph.neighbors(v))
                if result.colors[u] == result.colors[v]
            )
            assert same_parents <= 2

    def test_custom_initial_colors(self):
        g = random_regular(100, 4, seed=5)
        net = SynchronousNetwork(g.graph)
        # start from a (shifted) legal coloring with large color space
        initial = {v: v * 7 for v in g.graph.vertices}
        result = run_recoloring(
            net,
            conflict_degree=4,
            defect_target=0,
            initial_colors=7 * 100,
            initial_color_of=lambda v: initial[v],
        )
        check_legal_coloring(g.graph, result.colors)

    def test_deterministic(self):
        g = random_regular(120, 5, seed=6)
        net = SynchronousNetwork(g.graph)
        r1 = run_recoloring(net, conflict_degree=5, defect_target=0)
        r2 = run_recoloring(net, conflict_degree=5, defect_target=0)
        assert r1.colors == r2.colors

    def test_on_parts(self):
        g = random_regular(100, 6, seed=7)
        net = SynchronousNetwork(g.graph)
        parts = {v: v % 2 for v in g.graph.vertices}
        result = run_recoloring(
            net, conflict_degree=6, defect_target=0, part_of=parts
        )
        # legality holds within every part (cross-part edges may collide)
        for (u, v) in g.graph.edges:
            if parts[u] == parts[v]:
                assert result.colors[u] != result.colors[v]
