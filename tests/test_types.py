"""Result types: ColorAssignment, Orientation, decompositions."""

from repro import Graph
from repro.types import (
    ColorAssignment,
    Decomposition,
    HPartition,
    MISResult,
    Orientation,
    canonical_edge,
)


class TestCanonicalEdge:
    def test_orders(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)
        assert canonical_edge(2, 2) == (2, 2)


class TestColorAssignment:
    def test_counts(self):
        ca = ColorAssignment(colors={0: 5, 1: 7, 2: 5})
        assert ca.num_colors == 2
        assert ca.max_color == 7

    def test_empty(self):
        ca = ColorAssignment(colors={})
        assert ca.num_colors == 0
        assert ca.max_color == 0

    def test_color_classes(self):
        ca = ColorAssignment(colors={0: 1, 1: 2, 2: 1})
        classes = ca.color_classes()
        assert sorted(classes[1]) == [0, 2]
        assert classes[2] == [1]

    def test_normalized_compacts_and_preserves_order(self):
        ca = ColorAssignment(colors={0: 10, 1: 3, 2: 10, 3: 99}, rounds=7)
        norm = ca.normalized()
        assert norm.colors == {0: 1, 1: 0, 2: 1, 3: 2}
        assert norm.rounds == 7
        assert norm.num_colors == 3

    def test_normalized_does_not_mutate(self):
        ca = ColorAssignment(colors={0: 10})
        ca.normalized()
        assert ca.colors == {0: 10}

    def test_restricted_to(self):
        ca = ColorAssignment(colors={0: 1, 1: 2, 2: 3})
        sub = ca.restricted_to([0, 2])
        assert sub.colors == {0: 1, 2: 3}


class TestOrientation:
    def test_head_and_is_oriented(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        o = Orientation.from_direction(g, {(0, 1): 1})
        assert o.head(0, 1) == 1
        assert o.head(1, 0) == 1
        assert o.head(1, 2) is None
        assert o.head(2, 3) is None

    def test_parents_children_unoriented(self):
        g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
        o = Orientation.from_direction(g, {(0, 1): 1, (0, 2): 0})
        neighbors = [1, 2, 3]
        assert o.parents_of(0, neighbors) == [1]
        # vertex 0's row: parent 1, child 2, unoriented 3
        assert o.heads[:3].tolist() == [1, -1, 0]

    def test_lengths_peel(self):
        g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
        chain = Orientation.from_direction(
            g, {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 3}
        )
        assert chain.lengths().tolist() == [3, 2, 1, 0, 0]
        # 0 -> 1 -> 2 -> 3 -> 0 is a cycle, and 4 -> 3 reaches it
        cyclic = Orientation.from_direction(
            g, {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 0, (3, 4): 3}
        )
        assert cyclic.lengths().tolist() == [-1, -1, -1, -1, -1]
        assert Orientation.from_direction(g, {}).lengths().tolist() == [0] * 5
        empty = Graph([], [])
        assert Orientation.from_direction(empty, {}).lengths().tolist() == []


class TestHPartition:
    def test_levels(self):
        hp = HPartition(index={0: 1, 1: 2, 2: 1}, degree_bound=4)
        assert hp.num_levels == 2
        assert sorted(hp.level(1)) == [0, 2]
        assert hp.levels() == {1: [0, 2], 2: [1]}

    def test_empty(self):
        assert HPartition(index={}, degree_bound=1).num_levels == 0


class TestDecomposition:
    def test_parts(self):
        d = Decomposition(label={0: 0, 1: 1, 2: 0}, arboricity_bound=2)
        assert d.num_parts == 2
        assert sorted(d.parts()[0]) == [0, 2]


class TestMISResult:
    def test_membership(self):
        m = MISResult(members={1, 3})
        assert 1 in m
        assert 2 not in m
        assert m.size == 2
