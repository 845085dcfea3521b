"""Sparse exact matrices: rank, reduced row echelon form, kernels, solving.

Entries live in a dict keyed by (row, col); zeros are never stored.  Pivots
are chosen Markowitz-style (least fill-in estimate) which keeps elimination
cheap on the block-sparse matrices the category machinery produces.  Over Q,
rank() integerizes each row and runs one-step Bareiss elimination so the
intermediate entries stay integral; kernels and solving go through field
RREF, which is exact in every supported field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .field import Field, QQ, Vec


class SparseMatrix:
    def __init__(self, field: Field, nrows: int, ncols: int, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries: Dict[Tuple[int, int], object] = {}
        if entries:
            for (i, j), v in dict(entries).items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry {(i, j)} outside {nrows}x{ncols}")
                v = field.coerce(v)
                if not field.is_zero(v):
                    self.entries[(i, j)] = v

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                ent[(i, j)] = v
        return cls(field, nrows, ncols, ent)

    @classmethod
    def identity(cls, field: Field, n: int) -> "SparseMatrix":
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "SparseMatrix":
        return cls(field, nrows, ncols)

    # -- basics --------------------------------------------------------------

    def get(self, i: int, j: int):
        return self.entries.get((i, j), self.field.zero)

    def is_zero(self) -> bool:
        return not self.entries

    def copy(self) -> "SparseMatrix":
        return SparseMatrix(self.field, self.nrows, self.ncols, self.entries)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.field, self.ncols, self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = SparseMatrix(self.field, self.nrows, self.ncols, self.entries)
        F = self.field
        for k, v in other.entries.items():
            s = F.add(out.entries.get(k, F.zero), v)
            if F.is_zero(s):
                out.entries.pop(k, None)
            else:
                out.entries[k] = s
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        F = self.field
        by_row: Dict[int, List[Tuple[int, object]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: Dict[Tuple[int, int], object] = {}
        for (i, k), v in self.entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                s = F.add(acc.get(key, F.zero), F.mul(v, w))
                if F.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return SparseMatrix(F, self.nrows, other.ncols, acc)

    def apply(self, v: Dict[int, object]) -> Dict[int, object]:
        """Matrix times a sparse column vector keyed by column index."""
        F = self.field
        out: Dict[int, object] = {}
        for (i, j), a in self.entries.items():
            if j in v:
                s = F.add(out.get(i, F.zero), F.mul(a, v[j]))
                if F.is_zero(s):
                    out.pop(i, None)
                else:
                    out[i] = s
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.field is other.field
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.field}, {self.nrows}x{self.ncols}, nnz={len(self.entries)})"

    # -- elimination ---------------------------------------------------------

    def _rows_as_dicts(self) -> List[Dict[int, object]]:
        rows: List[Dict[int, object]] = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def rank(self) -> int:
        if self.field is QQ:
            return self._rank_bareiss()
        return len(self.rref()[1])

    def _rank_bareiss(self) -> int:
        # integerize rows, then one-step fraction-free elimination
        rows: List[Dict[int, int]] = []
        for r in self._rows_as_dicts():
            if not r:
                continue
            den = 1
            for v in r.values():
                den = den * v.denominator // gcd(den, v.denominator)
            ints = {j: int(v * den) for j, v in r.items()}
            g = 0
            for v in ints.values():
                g = gcd(g, v)
            rows.append({j: v // g for j, v in ints.items()})
        rank = 0
        prev = 1
        while rows:
            # Markowitz-ish: pivot in the sparsest row, then the rarest column
            col_count: Dict[int, int] = {}
            for r in rows:
                for j in r:
                    col_count[j] = col_count.get(j, 0) + 1
            ri = min(range(len(rows)), key=lambda i: (len(rows[i]), i))
            prow = rows.pop(ri)
            pj = min(prow, key=lambda j: (col_count[j], j))
            pv = prow[pj]
            rank += 1
            nxt: List[Dict[int, int]] = []
            for r in rows:
                # every remaining row gets the one-step update, including
                # those without the pivot column (they scale by pv/prev);
                # skipping them would break the exact-division invariant
                f = r.get(pj, 0)
                new: Dict[int, int] = {}
                for j in set(r) | (set(prow) if f else set()):
                    if j == pj:
                        continue
                    v = (pv * r.get(j, 0) - f * prow.get(j, 0)) // prev
                    if v:
                        new[j] = v
                if new:
                    nxt.append(new)
            rows = nxt
            prev = pv
        return rank

    def rref(self, allowed_cols=None) -> Tuple["SparseMatrix", List[int]]:
        """Reduced row echelon form; returns (R, pivot column list).

        Pivot columns are chosen by Markowitz cost, so the pivot *set* is one
        valid greedy basis of the column matroid, not the canonical
        leftmost one.  ``allowed_cols`` restricts which columns may serve as
        pivots (used for solving with an augmented column); rows left with
        support only outside the allowed set are appended unreduced.
        """
        F = self.field
        rows = self._rows_as_dicts()
        done: List[Dict[int, object]] = []
        stuck: List[Dict[int, object]] = []
        pivots: List[int] = []
        live = [r for r in rows if r]
        while live:
            col_count: Dict[int, int] = {}
            for r in live:
                for j in r:
                    col_count[j] = col_count.get(j, 0) + 1
            # cheapest elimination step first (Markowitz estimate)
            best = None
            for idx, r in enumerate(live):
                for j in r:
                    if allowed_cols is not None and j not in allowed_cols:
                        continue
                    cost = (len(r) - 1) * (col_count[j] - 1)
                    key = (cost, j, idx)
                    if best is None or key < best[0]:
                        best = (key, idx, j)
            if best is None:
                stuck.extend(live)
                break
            _, ri, pj = best
            prow = live.pop(ri)
            pinv = F.inv(prow[pj])
            prow = {j: F.mul(pinv, v) for j, v in prow.items()}
            if F is QQ:
                prow = _strip_content(prow, pj)
            ppiv = prow[pj]

            def eliminate(r):
                f = F.neg(F.div(r[pj], ppiv))
                new = dict(r)
                for j, v in prow.items():
                    s = F.add(new.get(j, F.zero), F.mul(f, v))
                    if F.is_zero(s):
                        new.pop(j, None)
                    else:
                        new[j] = s
                return new

            nxt = []
            for r in live:
                if pj in r:
                    new = eliminate(r)
                    if new:
                        nxt.append(new)
                else:
                    nxt.append(r)
            live = nxt
            # clear the pivot column from the finished rows too
            for k, r in enumerate(done):
                if pj in r:
                    done[k] = eliminate(r)
            done.append(prow)
            pivots.append(pj)
        ent = {}
        for i, r in enumerate(done):
            # rows were content-stripped during elimination; renormalize
            piv = r[pivots[i]]
            if piv != F.one:
                inv = F.inv(piv)
                r = {j: F.mul(inv, v) for j, v in r.items()}
            for j, v in r.items():
                ent[(i, j)] = v
        for k, r in enumerate(stuck):
            for j, v in r.items():
                ent[(len(done) + k, j)] = v
        R = SparseMatrix(F, len(done) + len(stuck), self.ncols, ent)
        return R, pivots

    def kernel_basis(self, labels: Optional[Sequence] = None) -> List[Vec]:
        """Basis of the right kernel, one sparse dict per basis vector.

        With ``labels`` (len == ncols) the dicts are keyed by label instead of
        column index, so named bases survive end to end.
        """
        basis = self.solution_space({})[1]
        if labels is not None:
            basis = [{labels[j]: c for j, c in v.items()} for v in basis]
        return basis

    def solve(self, rhs: Dict[int, object]) -> Optional[Dict[int, object]]:
        """One solution of self * x = rhs (sparse dicts), or None."""
        return self.solution_space(rhs)[0]

    def solution_space(self, rhs: Dict[int, object]
                       ) -> Tuple[Optional[Dict[int, object]], List[Vec]]:
        """(one solution of self * x = rhs or None, right-kernel basis).

        One elimination of the augmented matrix serves both: its pivots
        stay in self's columns, so with rhs = 0 it is the rref of self.
        """
        F = self.field
        aug = SparseMatrix(F, self.nrows, self.ncols + 1, dict(self.entries))
        for i, v in rhs.items():
            v = F.coerce(v)
            if not F.is_zero(v):
                aug.entries[(i, self.ncols)] = v
        R, pivots = aug.rref(allowed_cols=frozenset(range(self.ncols)))
        rows: List[Dict[int, object]] = [dict() for _ in range(R.nrows)]
        for (i, j), v in R.entries.items():
            rows[i][j] = v
        # free column fj: x_fj = 1 and x_pj = -R[i, fj] on each pivot row i
        pivot_set = set(pivots)
        kernel = {j: {j: F.one} for j in range(self.ncols) if j not in pivot_set}
        for row, pj in zip(rows, pivots):
            for j, v in row.items():
                if j in kernel:
                    kernel[j][pj] = F.neg(v)
        if any(rows[len(pivots):]):
            return None, list(kernel.values())  # a row reduced to 0 = nonzero rhs
        sol = {pj: row[self.ncols] for row, pj in zip(rows, pivots)
               if self.ncols in row}
        return sol, list(kernel.values())


def _strip_content(row: Dict[int, Fraction], pivot_col: int) -> Dict[int, Fraction]:
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    num = 0
    for v in row.values():
        num = gcd(num, int(v * den))
    if num in (0, 1) and den == 1:
        return row
    s = Fraction(den, num)
    return {j: v * s for j, v in row.items()}

