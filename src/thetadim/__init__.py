"""Metric dimension and landmark bases for type-III bicyclic (theta) graphs.

The library builds ``C_{p,q,r}`` theta graphs, computes metric dimensions
and bases both by an exhaustive definitional oracle and by closed-form case
formulas, verifies the two against each other across parameter sweeps, and
assigns landmark codes to named networks.

The network names (``parse_network``, ``assign_landmarks`` and the rest of
``thetadim.network``) load on first use, so a program that never reads a
network does not import the parser; each one is then stored in the package
namespace like an eager export.  Every other export is imported with the
package.
"""

from .closed_form import (
    ClosedFormResult,
    TheoremCase,
    closed_form_basis,
    dimension_by_path_lengths,
    dispatch_case,
    formula_representation,
)
from .graphs import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    all_pairs,
    bfs_distances,
    new_graph,
)
from .resolve import (
    BasisResult,
    is_minimal_resolving,
    is_resolving,
    metric_dimension_oracle,
    representation,
    unresolved_pair,
)
from .sweep import (
    SweepRecord,
    SweepReport,
    SweepSummary,
    TableMismatch,
    check_triple,
    emit_report,
    parse_report,
    sweep,
    valid_triples,
)
from .theta import (
    InvalidParamsError,
    ThetaParams,
    ThetaShape,
    build_c,
    detect_theta,
    to_theta_lengths,
    validate_params,
)

__version__ = "1.0.0"

#: Exports of ``thetadim.network``, imported by ``__getattr__`` on first access.
_NETWORK_NAMES = frozenset({
    "LandmarkTable",
    "NetworkParseError",
    "NetworkSpec",
    "assign_landmarks",
    "field_network_text",
    "format_network",
    "network_graph",
    "parse_network",
})

__all__ = [
    "UNREACHABLE",
    "BasisResult",
    "ClosedFormResult",
    "DistanceMatrix",
    "Graph",
    "InvalidParamsError",
    "LandmarkTable",
    "NetworkParseError",
    "NetworkSpec",
    "SweepRecord",
    "SweepReport",
    "SweepSummary",
    "TableMismatch",
    "TheoremCase",
    "ThetaParams",
    "ThetaShape",
    "all_pairs",
    "assign_landmarks",
    "bfs_distances",
    "build_c",
    "check_triple",
    "closed_form_basis",
    "detect_theta",
    "dimension_by_path_lengths",
    "dispatch_case",
    "emit_report",
    "field_network_text",
    "format_network",
    "formula_representation",
    "is_minimal_resolving",
    "is_resolving",
    "metric_dimension_oracle",
    "network_graph",
    "new_graph",
    "parse_network",
    "parse_report",
    "representation",
    "sweep",
    "to_theta_lengths",
    "unresolved_pair",
    "valid_triples",
    "validate_params",
]


def __getattr__(name: str):
    """A network export, imported on first access and kept in the package
    namespace, so later lookups do not come here (PEP 562)."""
    if name not in _NETWORK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import network

    value = globals()[name] = getattr(network, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
