"""The package's public surface: exactly the audited names, each importable.

A new re-export must be added to this list on purpose.
"""

import twistrank

PUBLIC_NAMES = [
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


def test_public_surface_is_the_audited_list():
    assert len(PUBLIC_NAMES) == 25
    assert sorted(twistrank.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(twistrank, name).__module__.startswith("twistrank."), name
