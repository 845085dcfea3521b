"""Bounded cochain complexes and their exact homology.

Cohomological convention throughout: the differential has degree +1, so
``d[n]`` maps the degree-n piece to the degree-(n+1) piece.  Matrices act on
column vectors; ``d[n]`` has shape dim(n+1) x dim(n).

A complex only stores a finite degree range.  Whenever a differential is
missing (outside the stored range, or simply not given) it is the zero map;
homology at the edges of a requested window uses that convention, so a
window is only meaningful if the caller knows the true complex vanishes (or
has zero differential) just outside it.  The materialization reports in the
bar/cobar layer are what certify that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .field import Field
from .matrix import SparseMatrix


class BoundedComplex:
    def __init__(
        self,
        field: Field,
        dims: Dict[int, int],
        differentials: Dict[int, SparseMatrix],
    ):
        self.field = field
        self.dims = {n: d for n, d in dims.items() if d}
        self.d = dict(differentials)
        for n, m in self.d.items():
            want = (self.dim(n + 1), self.dim(n))
            if (m.nrows, m.ncols) != want:
                raise ValueError(
                    f"d[{n}] is {m.nrows}x{m.ncols}, expected {want[0]}x{want[1]}"
                )

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    @property
    def support(self) -> Tuple[int, int]:
        if not self.dims:
            return (0, -1)
        return (min(self.dims), max(self.dims))

    def differential(self, n: int) -> SparseMatrix:
        if n in self.d:
            return self.d[n]
        return SparseMatrix(self.field, self.dim(n + 1), self.dim(n))

    def validate(self) -> List[str]:
        """d∘d = 0 wherever both factors exist; returns failure messages."""
        problems = []
        for n in self.d:
            if (n + 1) in self.d or self.dim(n + 2):
                sq = self.differential(n + 1).matmul(self.d[n])
                if sq.entries:
                    problems.append(f"d^2 != 0 from degree {n}")
        return problems

    def homology_dims(self, lo: Optional[int] = None, hi: Optional[int] = None) -> Dict[int, int]:
        """dim H^n = dim ker d_n - rank d_{n-1} for n in [lo, hi]."""
        if not self.dims:
            return {}
        slo, shi = self.support
        lo = slo if lo is None else lo
        hi = shi if hi is None else hi
        ranks: Dict[int, int] = {}

        def rank_at(n: int) -> int:
            if n not in ranks:
                ranks[n] = self.differential(n).rank() if self.dim(n) else 0
            return ranks[n]

        out = {}
        for n in range(lo, hi + 1):
            dn = self.dim(n)
            out[n] = dn - rank_at(n) - rank_at(n - 1)
        return out
