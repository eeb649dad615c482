"""Exact rational toolkit for partially open polyhedra.

The package computes, with zero floating point anywhere, the objects a
convex-analysis practitioner wants from a polyhedral set whose facets may
be individually open: support functions with attainment witnesses, normal
cones, the intersection of supported half-spaces (the largest closed set
sharing the boundary structure), separation certificates, coupling-based
convexifications of monotone graphs, and the matching machinery for sums
of a finite graph with a normal-cone operator.

Every numerical claim has a second, independently computed route — an LP
against an elimination oracle, a closed form against a face enumeration —
and the command-line tool re-verifies those identities on each run.
"""

import importlib

from .errors import InputError, InvalidSetError, ScaleLimitError
from .faces import Face, enumerate_faces
from .fitzpatrick import (
    MonotoneGraph,
    fitzpatrick_value,
    graph,
    graph_related,
    is_monotone,
    monotonically_related,
    normal_cone_fitzpatrick,
    normal_cone_fitzpatrick_by_faces,
)
from .lp import (
    EqualityLP,
    LPOutcome,
    LPProblem,
    SupportLP,
    lp_solve,
    max_value,
    problem,
    strict_system_feasible,
    verify_outcome,
)
from .normal_cones import (
    SupportEvaluation,
    in_normal_cone,
    in_portable_hull,
    in_range,
    normal_cone_at,
    support_level,
    support_value,
    supporting_rows,
)
from .polyhedra import (
    ClosedPolyhedron,
    EmptySet,
    GeneratedCone,
    PartiallyOpenPolyhedron,
    VRep,
    canonicalize,
    closed_as_set,
    closed_contains,
    closed_subset_of,
    cone,
    cone_contains,
    cones_equal,
    contains,
    h_to_v,
    is_bounded,
    lineality_space,
    make_set,
    space,
    v_to_h,
    validate,
    whole_set,
)
from .portability import (
    FinitePointSet,
    PortabilityReport,
    SeparationCertificate,
    boundary_support_report,
    hull_extension_report,
    is_portable,
    line_free_report,
    nonsupporting_witness,
    partial_hull_report,
    partial_portable_hull,
    partial_supporting_rows,
    point_set,
    portability_report,
    portable_hull,
    portable_hull_by_faces,
    separation_certificate,
    verify_certificate,
)
from .representability import (
    GridSpec,
    ProbeReport,
    PsiEvaluation,
    SumMembership,
    rep_sum_value,
    rep_sum_value_by_enumeration,
    rep_value,
    representability_probe,
    restrict_graph,
    sum_graph_membership,
)
from .sampling import SampleSpec
from .scalars import NEG_INF, POS_INF, ExtValue, fin, rat, rat_str

__version__ = "0.1.0"


def __getattr__(name: str):
    # Only ``selftest`` and the tests run the seeded ``corpus`` and the
    # Fourier-Motzkin oracle ``fme``, so these load on first use: a cold CLI
    # call imports none of them.
    if name in ("selftest", "corpus", "fme"):
        return importlib.import_module(f"{__name__}.{name}")
    if name == "run_selftest":
        return __getattr__("selftest").run_selftest
    if name in ("fm_feasible", "fm_maximize"):
        return getattr(__getattr__("fme"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ClosedPolyhedron",
    "EmptySet",
    "EqualityLP",
    "ExtValue",
    "Face",
    "FinitePointSet",
    "GeneratedCone",
    "GridSpec",
    "InputError",
    "InvalidSetError",
    "LPOutcome",
    "LPProblem",
    "MonotoneGraph",
    "NEG_INF",
    "POS_INF",
    "PartiallyOpenPolyhedron",
    "PortabilityReport",
    "ProbeReport",
    "PsiEvaluation",
    "SampleSpec",
    "ScaleLimitError",
    "SeparationCertificate",
    "SumMembership",
    "SupportEvaluation",
    "SupportLP",
    "VRep",
    "boundary_support_report",
    "canonicalize",
    "closed_as_set",
    "closed_contains",
    "closed_subset_of",
    "cone",
    "cone_contains",
    "cones_equal",
    "contains",
    "enumerate_faces",
    "fin",
    "fitzpatrick_value",
    "fm_feasible",
    "fm_maximize",
    "graph",
    "graph_related",
    "h_to_v",
    "hull_extension_report",
    "in_normal_cone",
    "in_portable_hull",
    "in_range",
    "is_bounded",
    "is_monotone",
    "is_portable",
    "line_free_report",
    "lineality_space",
    "lp_solve",
    "make_set",
    "max_value",
    "monotonically_related",
    "nonsupporting_witness",
    "normal_cone_at",
    "normal_cone_fitzpatrick",
    "normal_cone_fitzpatrick_by_faces",
    "partial_hull_report",
    "partial_portable_hull",
    "partial_supporting_rows",
    "point_set",
    "portability_report",
    "portable_hull",
    "portable_hull_by_faces",
    "problem",
    "rat",
    "rat_str",
    "rep_sum_value",
    "rep_sum_value_by_enumeration",
    "rep_value",
    "representability_probe",
    "restrict_graph",
    "run_selftest",
    "separation_certificate",
    "space",
    "strict_system_feasible",
    "sum_graph_membership",
    "support_level",
    "support_value",
    "supporting_rows",
    "v_to_h",
    "validate",
    "verify_certificate",
    "verify_outcome",
    "whole_set",
]
