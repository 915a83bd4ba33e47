"""Exact-arithmetic toolkit for real reductive Lie algebras.

Computes real ranks and a-hyperbolic ranks from Satake diagrams, lists the
generators of the cone of antipodal hyperbolic adjoint orbits, and decides
existence or non-existence of properly discontinuous actions of
non-virtually-abelian discrete subgroups on reductive homogeneous spaces
G/H, using only the rank data of g and h.
"""

from .catalog import (
    ADMITTING_FAMILIES,
    DISPUTED_ENTRIES,
    NO_COMPACT_FORM_FAMILIES,
    OPEN_CASE,
    TABLE1_EXCEPTIONAL,
    TABLE1_FAMILIES,
    TABLE2,
    VerificationReport,
    anomaly_scan,
    table1_predicted_anomalies,
    verify_table1,
    verify_table2,
)
from .cones import (
    NodePartition,
    RankProfile,
    ReductiveAlgebra,
    WeightedDynkinDiagram,
    a_hyperbolic_rank,
    antipodal_classes,
    b_plus_generators,
    factor_profile,
    matching_classes,
    rank_profile,
)
from .decision import (
    Decision,
    NotASubgroupPairError,
    Obstruction,
    TraceStep,
    Verdict,
    decide,
    embed_obstruction,
)
from .notation import AlgebraExpression, ParseError, parse, parse_expression, render
from .rootsys import (
    LieType,
    NodePermutation,
    cartan_matrix,
    iota,
)
from .satake import (
    InvalidRealFormError,
    RealFormSpec,
    SatakeDiagram,
    ascii_diagram,
    complex_as_real,
    export,
    real_forms,
    real_rank,
    satake_of,
    validate,
)

__version__ = "0.1.0"
