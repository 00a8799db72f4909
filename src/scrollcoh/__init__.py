"""Exact sheaf cohomology and Ulrich bundle classification on rational
normal scrolls.

All engines work over the integers: split-bundle calculus on the base line,
pushforwards of twisted relative differentials through the fibrewise Bott
regimes (line bundles being the case p = 0), Koszul resolutions with
interval-valued dimension chases, the full exceptional collection with its
right dual, Beilinson tables, and the classification of Ulrich bundles by
filtration multiplicities.  Everything is pure and deterministic over
immutable values.
"""

from .p1 import SplitBundle, hook_rank
from .tables import (CohomTable, IndeterminateError, intersect, solve_quotient,
                     solve_sub)
from .scroll import DivClass, F, H, Scroll, line_cohomology
from .sheaves import (Atom, FormalSheaf, ZERO_SHEAF, atom_c1, atom_rank,
                      deg_H, deg_slope, dual_atom, line_atom, omega_atom,
                      sheaf_c1, sheaf_rank)
from .relative import (atom_cohomology, chase_bounds, fiber_degree,
                       koszul_resolution, omega_cohomology,
                       pn_omega_cohomology, rel_pushforward, sheaf_chi,
                       sheaf_cohomology)
from .homext import ext_line_vs_atom, hom_upper_bound, segre_ext1
from .beilinson import (BeilinsonTable, Collection, CollectionMember,
                        DualityReport, NotDiagonalError, atom_label,
                        beilinson_table, beilinson_table_from_profile,
                        build_collections, diagonal_type, duality_report,
                        sigma, verify_duality)
from .ulrich import (NotUlrichError, TypeInfo, UlrichVerdict, block,
                     block_atom, classify, enumerate_types, is_ulrich,
                     type_info, type_sheaf, veronese_classify, veronese_table)

__version__ = "0.1.0"

__all__ = [
    "Atom", "BeilinsonTable", "CohomTable", "Collection", "CollectionMember",
    "DivClass", "DualityReport", "F", "FormalSheaf", "H",
    "IndeterminateError", "NotDiagonalError", "NotUlrichError", "Scroll",
    "SplitBundle", "TypeInfo", "UlrichVerdict", "ZERO_SHEAF", "atom_c1",
    "atom_cohomology", "atom_label", "atom_rank", "beilinson_table",
    "beilinson_table_from_profile", "block", "block_atom", "build_collections",
    "chase_bounds", "classify", "deg_H", "deg_slope", "diagonal_type",
    "dual_atom", "duality_report", "enumerate_types", "ext_line_vs_atom",
    "fiber_degree", "hom_upper_bound", "hook_rank", "intersect", "is_ulrich",
    "koszul_resolution", "line_atom", "line_cohomology", "omega_atom",
    "omega_cohomology", "pn_omega_cohomology", "rel_pushforward", "segre_ext1",
    "sheaf_c1", "sheaf_chi", "sheaf_cohomology", "sheaf_rank", "sigma",
    "solve_quotient", "solve_sub", "type_info", "type_sheaf", "verify_duality",
    "veronese_classify", "veronese_table",
]
