"""Numerical range, numerical radius, and reverse radius-norm bound checks.

The library computes the numerical range boundary, the numerical radius, and
the operator norm of dense complex matrices, evaluates a family of reverse
bounds on the norm-radius gap under disk and sector certificates, and runs
randomized ensemble sweeps and extremal searches around them.

The top level exports what the demos and the README quickstart use; every
other name is imported from its submodule, such as `numrad.bounds`.
"""

from .bounds import DiskCertificate, SectorPair, check_disk, optimize_lambda, verify_all
from .extremal import (
    candidate_violations,
    gen_segment_instance,
    ginibre,
    orthogonal_ranges_check,
    probe_equality_case,
    search_sqrt_disk,
    shift2,
)
from .linalg import operator_norm
from .numrange import numerical_radius, numerical_radius_oracle, range_summary

__version__ = "0.1.0"

__all__ = [
    "DiskCertificate",
    "SectorPair",
    "candidate_violations",
    "check_disk",
    "gen_segment_instance",
    "ginibre",
    "numerical_radius",
    "numerical_radius_oracle",
    "operator_norm",
    "optimize_lambda",
    "orthogonal_ranges_check",
    "probe_equality_case",
    "range_summary",
    "search_sqrt_disk",
    "shift2",
    "verify_all",
]
