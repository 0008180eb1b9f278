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

``__all__`` is not a second list of these names.  It is formed from the
package namespace: every public name that the imports below bind, except
the submodules that they bind as well, plus the network names.
"""

import types

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

__all__ = sorted(
    {name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    | _NETWORK_NAMES
)


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
