"""Checkers for every guarantee the paper states.

``check_*`` functions raise :class:`~repro.errors.VerificationError` with a
concrete witness on failure; measurement helpers return observed values for
paper-vs-measured reporting.
"""

from .coloring import (
    check_arbdefective_coloring,
    check_defective_coloring,
    check_legal_coloring,
    check_palette,
    color_class_subgraphs,
    coloring_arbdefect_bounds,
    coloring_defect,
    is_legal_coloring,
)
from .decomposition import (
    check_forests_decomposition,
    check_hpartition,
    check_mis,
)
from .orientation import (
    check_orientation_acyclic,
    check_orientation_complete,
    check_orientation_deficit,
    check_orientation_edges_exist,
    check_orientation_out_degree,
    longest_directed_path,
    orientation_deficits,
    orientation_length,
    orientation_max_deficit,
    orientation_max_out_degree,
    orientation_out_degrees,
    vertex_lengths,
)

__all__ = [
    "check_legal_coloring",
    "is_legal_coloring",
    "coloring_defect",
    "check_defective_coloring",
    "check_arbdefective_coloring",
    "coloring_arbdefect_bounds",
    "color_class_subgraphs",
    "check_palette",
    "check_hpartition",
    "check_forests_decomposition",
    "check_mis",
    "check_orientation_acyclic",
    "check_orientation_complete",
    "check_orientation_deficit",
    "check_orientation_edges_exist",
    "check_orientation_out_degree",
    "orientation_out_degrees",
    "orientation_max_out_degree",
    "orientation_deficits",
    "orientation_max_deficit",
    "orientation_length",
    "vertex_lengths",
    "longest_directed_path",
]
