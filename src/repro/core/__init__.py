"""The paper's algorithms and the substrates they build on.

Organised bottom-up:

* recoloring engine (:mod:`repro.core.recolor`) → Linial
  (:mod:`repro.core.linial`), Kuhn defective (:mod:`repro.core.defective`);
* H-partition (:mod:`repro.core.hpartition`) → forests decomposition
  (:mod:`repro.core.forests`), orientations
  (:mod:`repro.core.orientation`);
* arbdefective colorings (:mod:`repro.core.arbdefective`) →
  Procedure Legal-Coloring (:mod:`repro.core.legal`) and Arb-Kuhn
  (:mod:`repro.core.arb_kuhn`);
* MIS (:mod:`repro.core.mis`), Cole–Vishkin
  (:mod:`repro.core.cole_vishkin`), color reductions
  (:mod:`repro.core.color_reduction`), baselines
  (:mod:`repro.core.baselines`).
"""

from .arb_kuhn import arb_kuhn_decomposition, theorem52_fast_coloring, theorem53_tradeoff
from .arbdefective import (
    arbdefective_coloring,
    orientation_greedy_coloring,
    simple_arbdefective,
)
from .baselines import be08_coloring, luby_coloring, sequential_greedy_coloring
from .cole_vishkin import cole_vishkin_forest, cv_iterations_needed
from .color_reduction import (
    delta_plus_one_coloring,
    greedy_reduction,
    kuhn_wattenhofer_reduction,
)
from .defective import kuhn_defective_coloring
from .estimation import (
    estimate_arboricity_bound,
    legal_coloring_auto,
    try_hpartition,
)
from .forests import forests_decomposition, hpartition_orientation
from .hpartition import compute_hpartition, degree_threshold, expected_num_levels
from .legal import (
    color_parts_legally,
    delta_plus_one_via_arboricity,
    legal_coloring,
    legal_coloring_corollary44,
    legal_coloring_corollary46,
    legal_coloring_theorem43,
    legal_coloring_tradeoff45,
    oneshot_legal_coloring,
)
from .linial import linial_coloring
from .mis import greedy_mis_sequential, luby_mis, mis_arboricity, mis_from_coloring
from .orientation import (
    complete_from_partial,
    complete_orientation,
    partial_orientation,
)
from .ruling_sets import ruling_set, ruling_set_domination_radius
from .trees import forest_mis, forest_parent_map, root_forest_by_bfs
from .recolor import RecolorProgram, RecolorStep, compute_recolor_schedule, run_recoloring

__all__ = [
    "compute_hpartition",
    "degree_threshold",
    "expected_num_levels",
    "forests_decomposition",
    "hpartition_orientation",
    "complete_orientation",
    "partial_orientation",
    "complete_from_partial",
    "orientation_greedy_coloring",
    "simple_arbdefective",
    "arbdefective_coloring",
    "legal_coloring",
    "oneshot_legal_coloring",
    "legal_coloring_theorem43",
    "legal_coloring_corollary44",
    "legal_coloring_tradeoff45",
    "legal_coloring_corollary46",
    "delta_plus_one_via_arboricity",
    "color_parts_legally",
    "arb_kuhn_decomposition",
    "theorem52_fast_coloring",
    "theorem53_tradeoff",
    "linial_coloring",
    "kuhn_defective_coloring",
    "delta_plus_one_coloring",
    "greedy_reduction",
    "kuhn_wattenhofer_reduction",
    "cole_vishkin_forest",
    "cv_iterations_needed",
    "mis_from_coloring",
    "mis_arboricity",
    "luby_mis",
    "greedy_mis_sequential",
    "be08_coloring",
    "luby_coloring",
    "sequential_greedy_coloring",
    "estimate_arboricity_bound",
    "legal_coloring_auto",
    "try_hpartition",
    "forest_mis",
    "forest_parent_map",
    "root_forest_by_bfs",
    "ruling_set",
    "ruling_set_domination_radius",
    "compute_recolor_schedule",
    "run_recoloring",
    "RecolorProgram",
    "RecolorStep",
]
