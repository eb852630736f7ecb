"""Graph substrate: the immutable graph type, generators with certified
arboricity, and centralized arboricity analysis."""

from .arboricity import (
    arboricity_bounds,
    degeneracy,
    degeneracy_orientation,
    is_forest,
    nash_williams_lower_bound,
    pseudoarboricity,
)
from .bulk import forest_union_bulk
from .generators import (
    GeneratedGraph,
    binary_tree,
    complete_graph,
    disjoint_union,
    erdos_renyi,
    forest_union,
    grid,
    hypercube,
    low_arboricity_high_degree,
    path,
    planar_triangulation,
    preferential_attachment,
    random_geometric,
    random_regular,
    random_tree,
    ring,
    standard_families,
    star,
)
from .graph import Graph

__all__ = [
    "Graph",
    "GeneratedGraph",
    "path",
    "ring",
    "star",
    "grid",
    "hypercube",
    "binary_tree",
    "complete_graph",
    "random_tree",
    "forest_union",
    "forest_union_bulk",
    "random_regular",
    "erdos_renyi",
    "preferential_attachment",
    "random_geometric",
    "planar_triangulation",
    "low_arboricity_high_degree",
    "disjoint_union",
    "standard_families",
    "degeneracy",
    "degeneracy_orientation",
    "nash_williams_lower_bound",
    "pseudoarboricity",
    "arboricity_bounds",
    "is_forest",
]
