"""Sparse exact matrices: rank, reduced row echelon form, kernels, solving.

Entries live in a dict keyed by (row, col); zeros are never stored.  There
is one elimination, ``rref``, and rank, kernels, solving and basis
coordinates (``_coordinates``) all read its result, in every field alike.
Pivots are chosen Markowitz-style (least fill-in estimate, a function of
row supports only), which keeps elimination cheap on the block-sparse
matrices the category machinery produces.  Each pivot row is scaled to 1
at its pivot as soon as it is chosen; nothing is integerized.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .field import Field, Vec


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
    def zero(cls, field: Field, nrows: int, ncols: int) -> "SparseMatrix":
        return cls(field, nrows, ncols)

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.field, self.ncols, self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

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
        return len(self.rref()[1])

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

            def eliminate(r):
                f = F.neg(r[pj])
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


def _coordinates(field: Field, keys: Sequence,
                 basis: Sequence[Tuple[object, Vec]]) -> Optional[Dict[object, Vec]]:
    """Each key on ``basis`` (name, vector) as name -> coefficient, or
    None when the basis does not span the keys.  One elimination of
    [basis | I], pivots in the basis block, leaves the inverse of the
    basis in the identity block: one column per key, its entries in
    pivot order."""
    kpos = {k: i for i, k in enumerate(keys)}
    n = len(basis)
    entries = {(kpos[k], j): c for j, (_name, v) in enumerate(basis)
               for k, c in v.items()}
    entries.update({(i, n + i): field.one for i in range(len(keys))})
    inv, pivots = SparseMatrix(field, len(keys), n + len(keys), entries).rref(
        allowed_cols=frozenset(range(n)))
    if len(pivots) < len(keys):
        return None
    coords: Dict[object, Vec] = {k: {} for k in keys}
    for (i, j), c in inv.entries.items():
        if j >= n:
            coords[keys[j - n]][basis[pivots[i]][0]] = c
    return coords
