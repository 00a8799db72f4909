"""Exact sheaf cohomology and Ulrich bundle classification on rational
normal scrolls.

All engines work over the integers: split-bundle calculus on the base line,
pushforwards of twisted relative differentials through the fibrewise Bott
regimes (line bundles being the case p = 0), Koszul resolutions with
interval-valued dimension chases, the full exceptional collection with its
right dual, Beilinson tables, and the classification of Ulrich bundles by
filtration multiplicities.  Everything is pure and deterministic over
immutable values.

Importing the package loads none of its modules: each name below, and each
submodule as an attribute, is imported on first use (PEP 562) and then kept
in the package namespace, so later lookups cost what a plain global does.
"""

import sys

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "p1": ("SplitBundle", "hook_rank"),
    "tables": ("CohomTable", "IndeterminateError", "intersect", "solve_quotient"),
    "scroll": ("DivClass", "F", "H", "Scroll", "line_cohomology"),
    "sheaves": ("Atom", "FormalSheaf", "ZERO_SHEAF", "atom_c1", "atom_rank", "deg_H",
                "deg_slope", "dual_atom", "line_atom", "omega_atom", "sheaf_c1",
                "sheaf_rank"),
    "relative": ("chase_bounds", "fiber_degree", "koszul_resolution",
                 "omega_cohomology", "pn_omega_cohomology", "rel_pushforward",
                 "sheaf_chi", "sheaf_cohomology"),
    "homext": ("hom_upper_bound", "segre_ext1"),
    "beilinson": ("BeilinsonTable", "CollectionMember", "DualityReport", "NotDiagonalError",
                  "atom_label", "beilinson_table", "beilinson_table_from_profile",
                  "build_collections", "diagonal_type", "duality_report", "sigma",
                  "verify_duality"),
    "ulrich": ("NotUlrichError", "TypeInfo", "UlrichVerdict", "block", "block_atom",
               "classify", "enumerate_types", "is_ulrich", "type_info", "type_sheaf",
               "veronese_classify", "veronese_table"),
    "verify": (),
    "cli": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def _submodule(name):
    # __import__ rather than importlib, which a bare interpreter has not loaded
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)  # the import also binds it in this namespace
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_OWNER[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
