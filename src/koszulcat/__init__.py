"""Exact computer algebra for dg categories and pointed curved coalgebras.

The layers, bottom up:

- ``field``, ``matrix``, ``complexes``: exact scalars (Q, GF(p)), sparse
  elimination, bounded cochain complexes with labelled bases.
- ``quiver``: graded quivers with named basis arrows and their tensor.
  It also owns the vocabulary every later layer shares: tensor keys
  (``pair_key``, ``lkey``, ``rkey``), composable words, object maps and the
  directed-cycle check.
- ``dgcat``: dg / curved categories as finite structure tables, validation,
  free categories, tensor, opposite, hom homology.
- ``coalgebra``: pointed curved coalgebras, morphisms, tensor, cofree.
- ``barcobar``: bar and cobar constructions, materialization with caps and
  exactness reports.
- ``convmc``: convolution categories, Maurer-Cartan elements and categories,
  the internal hom, the Koszul adjunction transports and counit, the
  interchange isomorphism, Eilenberg-Zilber comparison.
- ``randgen``, ``samples``: seeded random instances and a named sample
  library for tests and benchmarks.
"""

from .field import QQ, GF, Field, field_by_name
from .matrix import SparseMatrix
from .complexes import BoundedComplex

__all__ = [
    "QQ",
    "GF",
    "Field",
    "field_by_name",
    "SparseMatrix",
    "BoundedComplex",
]
