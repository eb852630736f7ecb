"""The verification layer itself: every checker must catch violations."""

import pytest

from repro.errors import InvalidParameterError, VerificationError
from repro.graphs import Graph, complete_graph, path, ring
from repro.types import ForestsDecomposition, HPartition, Orientation
from repro.verify import (
    check_arbdefective_coloring,
    check_defective_coloring,
    check_forests_decomposition,
    check_hpartition,
    check_legal_coloring,
    check_mis,
    check_orientation_acyclic,
    check_orientation_complete,
    check_orientation_deficit,
    check_orientation_edges_exist,
    check_orientation_out_degree,
    check_palette,
    check_partition_covers,
    color_class_subgraphs,
    coloring_arbdefect_bounds,
    coloring_defect,
    is_legal_coloring,
    longest_directed_path,
    orientation_length,
    vertex_lengths,
)


@pytest.fixture
def p4():
    return path(4).graph


class TestColoringCheckers:
    def test_legal_accepts(self, p4):
        check_legal_coloring(p4, {0: 0, 1: 1, 2: 0, 3: 1})

    def test_legal_rejects_monochromatic_edge(self, p4):
        with pytest.raises(VerificationError, match="monochromatic"):
            check_legal_coloring(p4, {0: 0, 1: 0, 2: 1, 3: 0})

    def test_legal_rejects_uncolored(self, p4):
        with pytest.raises(VerificationError, match="uncolored"):
            check_legal_coloring(p4, {0: 0, 1: 1, 2: 0})

    def test_is_legal(self, p4):
        assert is_legal_coloring(p4, {0: 0, 1: 1, 2: 0, 3: 1})
        assert not is_legal_coloring(p4, {0: 0, 1: 0, 2: 0, 3: 0})

    def test_defect_measured(self, p4):
        assert coloring_defect(p4, {0: 0, 1: 0, 2: 0, 3: 1}) == 2  # vertex 1

    def test_defective_checker(self, p4):
        check_defective_coloring(p4, {0: 0, 1: 0, 2: 1, 3: 1}, 1)
        with pytest.raises(VerificationError):
            check_defective_coloring(p4, {0: 0, 1: 0, 2: 0, 3: 1}, 1)

    def test_color_classes(self, p4):
        subs = color_class_subgraphs(p4, {0: 0, 1: 1, 2: 0, 3: 1})
        assert subs[0].vertices == (0, 2)
        assert subs[0].m == 0

    def test_arbdefect_bounds_detect_cycle(self):
        g = ring(6).graph
        mono = {v: 0 for v in g.vertices}
        lower, upper = coloring_arbdefect_bounds(g, mono)
        assert lower >= 2  # the whole cycle needs 2 forests
        assert upper >= lower

    def test_arbdefective_without_witness_rejects(self):
        g = complete_graph(6).graph
        mono = {v: 0 for v in g.vertices}
        with pytest.raises(VerificationError):
            check_arbdefective_coloring(g, mono, 1)

    def test_arbdefective_with_witness(self, p4):
        orientation = Orientation.from_direction(
            p4, {(0, 1): 1, (1, 2): 2, (2, 3): 3}
        )
        check_arbdefective_coloring(p4, {v: 0 for v in p4.vertices}, 1, orientation)
        with pytest.raises(VerificationError):
            check_arbdefective_coloring(
                p4, {v: 0 for v in p4.vertices}, 0, orientation
            )

    def test_arbdefective_witness_over_sparser_graph_rejected(self, p4):
        """A witness over ``p4`` minus an edge would drop that edge from
        the out-degrees; the check rejects it instead."""
        sparser = Graph(p4.vertices, [(0, 1), (2, 3)])
        witness = Orientation.from_direction(sparser, {(0, 1): 1, (2, 3): 3})
        with pytest.raises(VerificationError, match="another graph"):
            check_arbdefective_coloring(p4, {v: 0 for v in p4.vertices}, 1, witness)

    def test_palette(self):
        check_palette({0: 1, 1: 2}, 2)
        with pytest.raises(VerificationError):
            check_palette({0: 1, 1: 2, 2: 3}, 2)


class TestOrientationCheckers:
    def test_acyclic_rejects_cycle(self):
        g = ring(3).graph
        cyclic = Orientation.from_direction(g, {(0, 1): 1, (1, 2): 2, (0, 2): 0})
        with pytest.raises(VerificationError, match="cycle"):
            check_orientation_acyclic(g, cyclic)

    def test_complete_rejects_missing(self, p4):
        partial = Orientation.from_direction(p4, {(0, 1): 1})
        with pytest.raises(VerificationError, match="unoriented"):
            check_orientation_complete(p4, partial)

    def test_edges_exist_rejects_phantom(self, p4):
        """A phantom edge cannot enter an orientation, and the checker
        rejects an orientation over another graph."""
        with pytest.raises(InvalidParameterError, match="not an edge"):
            Orientation.from_direction(p4, {(0, 3): 3})
        with pytest.raises(InvalidParameterError, match="not an endpoint"):
            Orientation.from_direction(p4, {(0, 1): 3})
        check_orientation_edges_exist(p4, Orientation.from_direction(p4, {}))
        other = ring(4).graph  # same ids, one more edge
        with pytest.raises(VerificationError, match="another graph"):
            check_orientation_edges_exist(p4, Orientation.from_direction(other, {}))

    def test_out_degree_bound(self, p4):
        fan = Orientation.from_direction(p4, {(0, 1): 1, (1, 2): 2, (2, 3): 3})
        check_orientation_out_degree(p4, fan, 1)
        star_out = Orientation.from_direction(
            p4, {(0, 1): 0, (1, 2): 2, (2, 3): 2}
        )
        # vertex 1 points to 0? no: (0,1)->0 means tail 1; (1,2)->2 tail 1
        with pytest.raises(VerificationError):
            check_orientation_out_degree(p4, star_out, 1)

    def test_deficit_bound(self, p4):
        partial = Orientation.from_direction(p4, {(0, 1): 1})
        with pytest.raises(VerificationError):
            check_orientation_deficit(p4, partial, 0)
        check_orientation_deficit(p4, partial, 2)

    def test_length_on_directed_path(self, p4):
        chain = Orientation.from_direction(p4, {(0, 1): 1, (1, 2): 2, (2, 3): 3})
        assert orientation_length(p4, chain) == 3
        assert vertex_lengths(p4, chain) == {0: 3, 1: 2, 2: 1, 3: 0}
        assert longest_directed_path(p4, chain) == [0, 1, 2, 3]
        alternating = Orientation.from_direction(
            p4, {(0, 1): 1, (1, 2): 1, (2, 3): 3}
        )
        assert orientation_length(p4, alternating) == 1
        assert vertex_lengths(p4, alternating) == {0: 1, 1: 0, 2: 1, 3: 0}


class TestDecompositionCheckers:
    def test_hpartition_rejects_overfull_level(self):
        g = complete_graph(5).graph
        hp = HPartition(index={v: 1 for v in g.vertices}, degree_bound=2)
        with pytest.raises(VerificationError):
            check_hpartition(g, hp)

    def test_hpartition_rejects_missing_vertex(self, p4):
        hp = HPartition(index={0: 1, 1: 1, 2: 1}, degree_bound=5)
        with pytest.raises(VerificationError, match="H-index"):
            check_hpartition(p4, hp)

    def test_forests_rejects_unlabeled_edge(self, p4):
        fd = ForestsDecomposition(
            forest_of={(0, 1): 0},
            orientation=Orientation.from_direction(p4, {(0, 1): 1}),
            num_forests=1,
        )
        with pytest.raises(VerificationError, match="no forest label"):
            check_forests_decomposition(p4, fd)

    def test_forests_rejects_two_parents(self):
        g = path(3).graph  # 0-1-2
        fd = ForestsDecomposition(
            forest_of={(0, 1): 0, (1, 2): 0},
            orientation=Orientation.from_direction(g, {(0, 1): 0, (1, 2): 2}),
            num_forests=1,
        )
        # vertex 1 points to both 0 and 2 in forest 0
        with pytest.raises(VerificationError, match="two parents"):
            check_forests_decomposition(g, fd)

    def test_forests_rejects_cycle(self):
        g = ring(3).graph
        fd = ForestsDecomposition(
            forest_of={(0, 1): 0, (1, 2): 0, (0, 2): 0},
            orientation=Orientation.from_direction(
                g, {(0, 1): 1, (1, 2): 2, (0, 2): 0}
            ),
            num_forests=1,
        )
        with pytest.raises(VerificationError, match="cycle"):
            check_forests_decomposition(g, fd)

    def test_partition_covers(self, p4):
        check_partition_covers(p4, {v: 0 for v in p4.vertices})
        with pytest.raises(VerificationError):
            check_partition_covers(p4, {0: 0})


class TestMISChecker:
    def test_rejects_adjacent_members(self, p4):
        with pytest.raises(VerificationError, match="both endpoints"):
            check_mis(p4, {0, 1})

    def test_rejects_non_maximal(self, p4):
        with pytest.raises(VerificationError, match="maximal"):
            check_mis(p4, {0})

    def test_accepts(self, p4):
        check_mis(p4, {0, 2})
        check_mis(p4, {1, 3})
