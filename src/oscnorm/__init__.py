"""Oscillation norms on dyadic grids.

Tools for measuring how far a piecewise-constant function on the unit cube
is from polynomial behaviour: local polynomial approximation errors, packing
and sparse-family suprema built from them, fractional maximal functions, and
rearrangement-invariant functionals, plus seeded verification suites and a
command-line front end.
"""

from .families import CubeFamily, SparsityViolation, cz_family, validate
from .generate import GENERATOR_NAMES, generate
from .grid import CubeId, GridFunction, average, children, cube_index, moment
from .local_poly import (PolyFit, best_fit, mean_oscillation, poly_error,
                         scaled_error)
from .maximal import (MaximalResult, fractional_maximal, lp_norm,
                      maximal_opnorm_bound)
from .norms import (NormParams, NormReport, Rearrangement, RIFunctionals,
                    bmo_norm, family_value, garo_norm, packing_sup_norm,
                    rearrangement, ri_functionals, sparse_norm_bounds,
                    sparse_sup_exhaustive)

__version__ = "0.1.0"

__all__ = [
    "CubeFamily", "CubeId", "GENERATOR_NAMES", "GridFunction",
    "MaximalResult", "NormParams", "NormReport", "PolyFit", "Rearrangement",
    "RIFunctionals", "SparsityViolation", "average", "best_fit", "bmo_norm",
    "children", "cube_index", "cz_family", "family_value",
    "fractional_maximal", "garo_norm", "generate", "lp_norm",
    "maximal_opnorm_bound", "mean_oscillation", "moment",
    "packing_sup_norm", "poly_error", "rearrangement", "ri_functionals",
    "scaled_error", "sparse_norm_bounds", "sparse_sup_exhaustive",
    "validate", "__version__",
]
