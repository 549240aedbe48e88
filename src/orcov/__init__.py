"""Orientation covering numbers via maximal intersecting families.

Public surface: the graph model and parsers, set-family algebra and
enumeration, sigma computations, cover construction/verification with
JSON certificates, and brute-force oracles for small instances.
"""

from .cover import (
    CertificateMeta,
    CoverCertificate,
    FamilyAssignment,
    certificate_from_json,
    certificate_to_json,
    construct_cover,
    cover_from_families,
    families_from_cover,
    verify_cover,
)
from .errors import BudgetError, CapacityError, ParseError
from .families import (
    KERNEL_BACKEND,
    KMAX_HARD,
    LITERATURE_LAMBDA,
    MifCatalog,
    SetFamily,
    enumerate_mifs,
    hosten_morris,
    is_intersecting,
    is_maximal_intersecting,
    sorted_mif_masks,
    upward_closure,
)
from .graphs import (
    Coloring,
    Graph,
    chromatic_number,
    complete_graph,
    cycle_graph,
    encode_graph6,
    exact_coloring,
    parse_edge_list,
    parse_graph6,
    path_graph,
    petersen_graph,
    proper_coloring,
    wheel_graph,
)
from .oracle import SearchBudget, brute_chromatic, brute_mifs, brute_sigma
from .sigma import (
    EstimateResult,
    SigmaResult,
    lambda_asymptote,
    sigma_complete,
    sigma_estimate,
    sigma_of_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CapacityError",
    "CertificateMeta",
    "Coloring",
    "CoverCertificate",
    "EstimateResult",
    "FamilyAssignment",
    "Graph",
    "KERNEL_BACKEND",
    "KMAX_HARD",
    "LITERATURE_LAMBDA",
    "MifCatalog",
    "ParseError",
    "SearchBudget",
    "SetFamily",
    "SigmaResult",
    "brute_chromatic",
    "brute_mifs",
    "brute_sigma",
    "certificate_from_json",
    "certificate_to_json",
    "chromatic_number",
    "complete_graph",
    "construct_cover",
    "cover_from_families",
    "cycle_graph",
    "encode_graph6",
    "enumerate_mifs",
    "exact_coloring",
    "families_from_cover",
    "hosten_morris",
    "is_intersecting",
    "is_maximal_intersecting",
    "lambda_asymptote",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "petersen_graph",
    "proper_coloring",
    "sigma_complete",
    "sigma_estimate",
    "sigma_of_graph",
    "sorted_mif_masks",
    "upward_closure",
    "verify_cover",
    "wheel_graph",
]
