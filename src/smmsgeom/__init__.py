"""Weighted curvature invariants and ambient expansions of smooth metric
measure spaces, computed numerically through truncated jet arithmetic."""

from .jets import Jet, JetDivisionError, JetShapeError
from .fields import Chart, ScalarField, SymTensor2Field, sample_points
from .expressions import parse_expression, ExpressionError
from .series import Series, SeriesTruncationError
from .invariants import (MetricMeasureSpace, WeightedInvariants,
                         ValidationError, weighted_invariants,
                         conformal_change, curvature_scale)
from .expansion import (Branch, RhoExpansion, OrderStep, ObstructionData,
                        expand, solve_order_step, obstruction,
                        OrderError, ConsistencyError)
from .ambient import AmbientMetric, ResidualReport, order_report
from .poincare import (PoincareStructure, to_poincare, poincare_residual,
                       cone_identity_check)
from .catalog import (CatalogEntry, EntryRejected, quasi_einstein_entry,
                      wlcf_entry, gover_leitner_entry, random_entry,
                      load_entry, standard_catalog)

__all__ = [
    "Jet", "JetDivisionError", "JetShapeError",
    "Chart", "ScalarField", "SymTensor2Field", "sample_points",
    "parse_expression", "ExpressionError",
    "Series", "SeriesTruncationError",
    "MetricMeasureSpace", "WeightedInvariants", "ValidationError",
    "weighted_invariants", "conformal_change", "curvature_scale",
    "Branch", "RhoExpansion", "OrderStep", "ObstructionData", "expand",
    "solve_order_step", "obstruction", "OrderError", "ConsistencyError",
    "AmbientMetric", "ResidualReport", "order_report",
    "PoincareStructure", "to_poincare", "poincare_residual",
    "cone_identity_check",
    "CatalogEntry", "EntryRejected", "quasi_einstein_entry", "wlcf_entry",
    "gover_leitner_entry", "random_entry", "load_entry", "standard_catalog",
]

__version__ = "0.1.0"
