"""Exact and numeric spectral toolkit for the harmonic matrix of simple
graphs: exact characteristic polynomials over the rationals, harmonic
energies, a regular-graph census, and an auditor for published claims."""

from .audit import AuditResult, audit_all, audit_claim
from .census import (
    CensusRecord,
    EnergyClass,
    canonical_form,
    census_from_graphs,
    compare_reference_table,
    enumerate_regular,
)
from .charpoly import (
    RatPoly,
    char_poly,
    factored_display,
    graph_char_poly,
    poly_text,
    tridiag_charpoly,
)
from .families import generate
from .graphs import (
    Graph,
    Graph6Error,
    build_graph,
    components,
    decode_graph6,
    degrees,
    disjoint_union,
    encode_graph6,
    relabel,
)
from .harmonic import harmonic_index, harmonic_matrix
from .spectrum import (
    EnergyReport,
    Spectrum,
    eigenvalues_symmetric,
    harmonic_energies,
    harmonic_energy,
)

__version__ = "0.1.0"

__all__ = [
    "AuditResult",
    "CensusRecord",
    "EnergyClass",
    "EnergyReport",
    "Graph",
    "Graph6Error",
    "RatPoly",
    "Spectrum",
    "audit_all",
    "audit_claim",
    "build_graph",
    "canonical_form",
    "census_from_graphs",
    "char_poly",
    "compare_reference_table",
    "components",
    "decode_graph6",
    "degrees",
    "disjoint_union",
    "eigenvalues_symmetric",
    "encode_graph6",
    "enumerate_regular",
    "factored_display",
    "generate",
    "graph_char_poly",
    "harmonic_energies",
    "harmonic_energy",
    "harmonic_index",
    "harmonic_matrix",
    "poly_text",
    "relabel",
    "tridiag_charpoly",
]
