"""Derived-graph join composites and their degree-based topological indices.

The package builds four edge-insertion derived graphs (S, R, Q, T), joins
them with a second factor at either the original or the inserted vertices,
computes exact degree-based indices, and verifies closed-form composite
F-index formulas against brute-force construction.
"""

from .closed_form import (
    FAMILY_CASES,
    AuditReport,
    audit_examples,
    family_case,
    family_value,
    theorem_value,
)
from .derived import DerivedKind, ProvenancedGraph, VertexTag, derive
from .graph import (
    FAMILIES,
    Graph,
    GraphError,
    ParseError,
    degrees,
    generate,
    parse_edge_list,
    random_graph,
    render_edge_list,
)
from .harness import (
    BenchRecord,
    CorpusConfig,
    PairRecord,
    VerificationReport,
    bench_compare,
    family_corpus,
    verify_corpus,
    verify_pair,
)
from .indices import (
    GraphInvariants,
    f_index,
    first_zagreb,
    general_first_zagreb,
    invariants,
    power_sum,
    power_sum_edge_form,
)
from .joins import ALL_SPECS, JoinMode, OperationSpec, f_join

__all__ = [
    "ALL_SPECS",
    "AuditReport",
    "BenchRecord",
    "CorpusConfig",
    "DerivedKind",
    "FAMILIES",
    "FAMILY_CASES",
    "Graph",
    "GraphError",
    "GraphInvariants",
    "JoinMode",
    "OperationSpec",
    "PairRecord",
    "ParseError",
    "ProvenancedGraph",
    "VerificationReport",
    "VertexTag",
    "audit_examples",
    "bench_compare",
    "degrees",
    "derive",
    "f_index",
    "f_join",
    "family_case",
    "family_corpus",
    "family_value",
    "first_zagreb",
    "general_first_zagreb",
    "generate",
    "invariants",
    "parse_edge_list",
    "power_sum",
    "power_sum_edge_form",
    "random_graph",
    "render_edge_list",
    "theorem_value",
    "verify_corpus",
    "verify_pair",
]
