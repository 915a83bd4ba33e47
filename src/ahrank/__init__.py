"""Exact-arithmetic toolkit for real reductive Lie algebras.

Computes real ranks and a-hyperbolic ranks from Satake diagrams, lists the
generators of the cone of antipodal hyperbolic adjoint orbits, and decides
existence or non-existence of properly discontinuous actions of
non-virtually-abelian discrete subgroups on reductive homogeneous spaces
G/H, using only the rank data of g and h.

The package exports the names of README's Library section; everything
else is reached through its module, e.g. ``ahrank.catalog``.
"""

from .cones import a_hyperbolic_rank, b_plus_generators, rank_profile
from .decision import NotASubgroupPairError, decide, embed_obstruction
from .notation import ParseError, parse, render
from .rootsys import LieType
from .satake import InvalidRealFormError, RealFormSpec, complex_as_real, real_rank, satake_of

__version__ = "0.1.0"
