"""Certified Mordell-Weil rank bounds for quadratic twists of Mordell curves.

The pipeline: enumerate twist parameters in arithmetic progressions of
fundamental discriminants, compute 3-class groups of the attached quadratic
fields through binary quadratic forms, convert 3-ranks into Selmer (hence
rank) bounds, and aggregate family statistics against exact theoretical
constants.  Its records (ClassGroupSummary, TwistRecord, FamilyReport,
ProgressionFamily, ...) are immutable NamedTuples: _fields, _asdict and
_replace list, convert and rebuild them.
"""

from .classgroup import (
    ClassGroupSummary,
    Form,
    analytic_class_number_oracle,
    brute_force_group_structure,
    class_group_summary,
    reduced_forms,
)
from .discriminants import (
    ProgressionFamily,
    condition_star,
    enumerate_progression,
    is_fundamental,
)
from .selmer import (
    StollCase,
    TwistRecord,
    ValidationError,
    selmer_dimension,
    twist_record,
)
from .stats import (
    FamilyReport,
    average_dimension_bound,
    certified_density_bound,
    correspondence_check,
    density_constant,
    low_rank_factor,
    nh_mean,
    rearrangement_check,
    scan_family,
    scan_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "ClassGroupSummary",
    "FamilyReport",
    "Form",
    "ProgressionFamily",
    "StollCase",
    "TwistRecord",
    "ValidationError",
    "analytic_class_number_oracle",
    "average_dimension_bound",
    "brute_force_group_structure",
    "certified_density_bound",
    "class_group_summary",
    "condition_star",
    "correspondence_check",
    "density_constant",
    "enumerate_progression",
    "is_fundamental",
    "low_rank_factor",
    "nh_mean",
    "rearrangement_check",
    "reduced_forms",
    "scan_family",
    "scan_parameters",
    "selmer_dimension",
    "twist_record",
]
