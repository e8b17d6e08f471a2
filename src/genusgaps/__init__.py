"""Exact certification of genus gaps for curves on very general surfaces in P^3."""

from .formulas import (
    ambient_dim,
    arithmetic_genus,
    clemens_min_genus,
    contiguity_holds,
    cut_system_dim,
    linsys_dim,
)
from .gapmap import (
    Certificate,
    GapDecomposition,
    GapStatus,
    candidate_gap_interval,
    certify_nongap,
    coarse_horizon,
    decompose,
    initial_gap_interval,
    realizable_interval,
    refined_horizon,
    second_gap_interval,
    status,
)
from .intervals import Interval, IntervalSet
from .picard import (
    DivisorClass,
    PicardLattice,
    adjunction_genus,
    builtin_lattice,
    canonical_degree,
    family_dim_bound,
    intersect,
)

__all__ = [
    "ambient_dim",
    "arithmetic_genus",
    "clemens_min_genus",
    "contiguity_holds",
    "cut_system_dim",
    "linsys_dim",
    "Certificate",
    "GapDecomposition",
    "GapStatus",
    "candidate_gap_interval",
    "certify_nongap",
    "coarse_horizon",
    "decompose",
    "initial_gap_interval",
    "realizable_interval",
    "refined_horizon",
    "second_gap_interval",
    "status",
    "Interval",
    "IntervalSet",
    "DivisorClass",
    "PicardLattice",
    "adjunction_genus",
    "builtin_lattice",
    "canonical_degree",
    "family_dim_bound",
    "intersect",
]

__version__ = "0.1.0"
