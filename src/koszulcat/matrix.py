"""Sparse exact matrices: rank, reduced row echelon form, kernels, solving.

There is one elimination, ``_eliminate``, on a list of row dicts (column
index -> nonzero entry), and only this module calls it.  Rank,
``SparseMatrix.rref``, kernels and solving (``_solution_space``), the
rref rows of a span (``_rref_rows``) and basis coordinates
(``_coordinates``) all read its result, in every field alike; library
callers hand their rows to these helpers and build no matrix.

Pivots follow Markowitz's rule (least fill-in estimate, a function of
row supports only), which keeps elimination cheap on the block-sparse
matrices the category machinery produces: the next pivot is the live
entry of least (cost, column, input row order), where an entry in row r
and column j costs (len(r) - 1)(count(j) - 1) and count(j) is the
number of live rows holding j.  The rule is kept up, not recomputed:
the rows holding each column and a lazy heap of costs change only where
a pivot step changes rows or counts, and the finished rows that hold a
column are indexed too, so a step costs about what it changes rather
than a rescan of every live entry.  Pivots, pivot rows and leftover rows
equal those of a full rescan per pivot (the oracle of
``tests/test_exact_linalg.py``).  Each pivot row is scaled to 1 at its
pivot as soon as it is chosen; nothing is integerized.

Entries are coerced once, at the boundary: ``SparseMatrix.__init__``
coerces and bounds-checks what comes from outside (tests, the hom
complexes of ``dgcat``), and so does ``solve`` its right-hand side.  Rows
built inside the library already hold field elements and no zeros.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .field import Field, Vec

Row = Dict[int, object]


def _eliminate(F: Field, rows: Sequence[Row], ncols: int
               ) -> Tuple[List[Row], List[int], List[Row]]:
    """Gauss-Jordan elimination of ``rows``, pivoting only in columns
    below ``ncols``; returns (pivot rows, pivot columns, leftover rows)
    and leaves ``rows`` as they are.

    Each pivot row is 1 at its pivot and 0 at every other pivot.  The
    next pivot is the live entry (row r, column j < ncols) with the least
    (Markowitz cost (len(r) - 1)(count(j) - 1), j, input position of r),
    count(j) the number of live rows holding j; so the pivot *set* is one
    valid greedy basis of the column matroid, not the canonical leftmost
    one.  Leftover rows are the nonzero rows with support only from
    column ``ncols`` on, in input order; rows that reduce to zero are
    dropped.

    The rule is kept up, not recomputed: ``held`` and ``done_held`` map
    each column below ``ncols`` to the live and the finished rows that
    hold it, and ``heap`` holds (cost, column, row) entries such that
    every live entry has one at most its current cost.  A pivot step
    changes only the rows it reduces and the counts of the pivot row's
    columns, so it pushes the reduced rows' entries and, for each of
    those columns whose count fell, its other holders' entries; an entry
    found stale at the top is dropped, or pushed again at its current
    cost.  So the top, once current, is the least entry, and the outputs
    equal those of a full rescan per pivot.  The Gauss-Jordan clear
    visits only the finished rows that hold the pivot column.
    """
    add, mul, neg, is_zero, one = F.add, F.mul, F.neg, F.is_zero, F.one
    live: Dict[int, Row] = {}
    held: Dict[int, Set[int]] = {}
    for i, r in enumerate(rows):
        if r:
            live[i] = r
            for j in r:
                if j < ncols:
                    if j in held:
                        held[j].add(i)
                    else:
                        held[j] = {i}
    heap = [((len(r) - 1) * (len(held[j]) - 1), j, i)
            for i, r in live.items() for j in r if j < ncols]
    heapify(heap)
    done: List[Row] = []
    done_held: Dict[int, Set[int]] = defaultdict(set)
    pivots: List[int] = []
    while heap and live:
        cost, pj, pi = heappop(heap)
        r = live.get(pi)
        if r is None or pj not in r:
            continue
        now = (len(r) - 1) * (len(held[pj]) - 1)
        if now != cost:
            heappush(heap, (now, pj, pi))
            continue
        del live[pi]
        reduced = held.pop(pj)
        reduced.discard(pi)
        if r[pj] == one:  # scaled already: no inverse, no products
            prow = dict(r)
        else:
            pinv = F.inv(r[pj])
            prow = {j: mul(pinv, v) for j, v in r.items()}
        rest = [(j, v) for j, v in prow.items() if j != pj]
        counts = []  # (column, holders, count) once the pivot row left
        for j, _ in rest:
            if j < ncols:
                h = held[j]
                h.discard(pi)
                if h:
                    counts.append((j, h, len(h)))

        def reduce(r: Row, i: int, holders) -> Row:
            f = neg(r[pj])
            terms = rest if f == one else [(j, mul(f, v)) for j, v in rest]
            new = dict(r)
            del new[pj]
            for j, v in terms:
                old = new.get(j)
                if old is None:
                    new[j] = v
                    if j < ncols:
                        holders[j].add(i)
                    continue
                s = add(old, v)
                if is_zero(s):
                    del new[j]
                    if j < ncols:
                        holders[j].discard(i)
                else:
                    new[j] = s
            return new

        for i in reduced:
            new = reduce(live[i], i, held)
            if new:
                live[i] = new
            else:
                del live[i]
        # push at the counts the whole step leaves
        for i in reduced:
            new = live.get(i)
            if new:
                n = len(new) - 1
                for j in new:
                    if j < ncols:
                        heappush(heap, (n * (len(held[j]) - 1), j, i))
        for j, h, count in counts:
            if len(h) <= count:  # fell: cheaper now for the rows not reduced
                n = len(h) - 1
                for i in h:
                    if i not in reduced:
                        heappush(heap, ((len(live[i]) - 1) * n, j, i))
        # clear the pivot column from the finished rows too
        for k in done_held.pop(pj, ()):
            done[k] = reduce(done[k], k, done_held)
        k = len(done)
        for j, _ in rest:
            if j < ncols:
                done_held[j].add(k)
        done.append(prow)
        pivots.append(pj)
    return done, pivots, list(live.values())


def _solution_space(F: Field, rows: Sequence[Row], ncols: int
                    ) -> Tuple[Optional[Row], List[Row]]:
    """(one solution of A x = b or None, right-kernel basis of A) for the
    augmented rows [A | b]: A in the columns below ``ncols``, b in column
    ``ncols``.  One elimination, pivoting in A only, serves both: with
    b = 0 it is the rref of A."""
    done, pivots, stuck = _eliminate(F, rows, ncols)
    # free column fj: x_fj = 1 and x_pj = -R[i, fj] on each pivot row i
    pivot_set = set(pivots)
    kernel = {j: {j: F.one} for j in range(ncols) if j not in pivot_set}
    for row, pj in zip(done, pivots):
        for j, v in row.items():
            if j in kernel:
                kernel[j][pj] = F.neg(v)
    sol = None if stuck else {  # a leftover row reads 0 = nonzero b
        pj: row[ncols] for row, pj in zip(done, pivots) if ncols in row}
    return sol, list(kernel.values())


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

    # -- basics --------------------------------------------------------------

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
                s = acc.get(key)
                s = F.mul(v, w) if s is None else F.add(s, F.mul(v, w))
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

    def _rows_as_dicts(self) -> List[Row]:
        rows: List[Row] = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def rank(self) -> int:
        return len(_eliminate(self.field, self._rows_as_dicts(), self.ncols)[1])

    def rref(self) -> Tuple["SparseMatrix", List[int]]:
        """Reduced row echelon form; returns (R, pivot column list), the
        pivot rows of ``_eliminate`` in pivot order."""
        done, pivots, _ = _eliminate(self.field, self._rows_as_dicts(),
                                     self.ncols)
        R = SparseMatrix(self.field, len(done), self.ncols)
        R.entries = {(i, j): v for i, r in enumerate(done) for j, v in r.items()}
        return R, pivots

    def kernel_basis(self, labels: Optional[Sequence] = None) -> List[Vec]:
        """Basis of the right kernel, one sparse dict per basis vector.

        With ``labels`` (len == ncols) the dicts are keyed by label instead of
        column index, so named bases survive end to end.
        """
        if labels is not None and len(labels) != self.ncols:
            raise ValueError(f"{len(labels)} labels for {self.ncols} columns")
        basis = _solution_space(self.field, self._rows_as_dicts(), self.ncols)[1]
        if labels is not None:
            basis = [{labels[j]: c for j, c in v.items()} for v in basis]
        return basis

    def solve(self, rhs: Dict[int, object]) -> Optional[Dict[int, object]]:
        """One solution of self * x = rhs (sparse dicts), or None."""
        return self.solution_space(rhs)[0]

    def solution_space(self, rhs: Dict[int, object]
                       ) -> Tuple[Optional[Dict[int, object]], List[Vec]]:
        """(one solution of self * x = rhs or None, right-kernel basis)."""
        F = self.field
        rows = self._rows_as_dicts()
        for i, v in rhs.items():
            if not 0 <= i < self.nrows:
                raise IndexError(f"right-hand side entry {i} outside "
                                 f"{self.nrows}x{self.ncols}")
            v = F.coerce(v)
            if not F.is_zero(v):
                rows[i][self.ncols] = v
        return _solution_space(F, rows, self.ncols)


def _rref_rows(field: Field, keys: Sequence, vecs: Sequence[Vec]
               ) -> Dict[object, Vec]:
    """Pivot key -> rref row of span(vecs), one column per key in
    ``keys``: 1 at its pivot and 0 at the other pivots."""
    kpos = {k: i for i, k in enumerate(keys)}
    done, pivots, _ = _eliminate(field, [
        {kpos[k]: c for k, c in v.items()} for v in vecs], len(keys))
    return {keys[p]: {keys[j]: c for j, c in row.items()}
            for row, p in zip(done, pivots)}


def _coordinates(field: Field, keys: Sequence,
                 basis: Sequence[Tuple[object, Vec]]) -> Optional[Dict[object, Vec]]:
    """Each key on ``basis`` (name, vector) as name -> coefficient, or
    None when the basis does not span the keys.  One elimination of
    [basis | I], pivots in the basis block, leaves the inverse of the
    basis in the identity block: one column per key, its entries in
    pivot order."""
    kpos = {k: i for i, k in enumerate(keys)}
    n = len(basis)
    rows: List[Row] = [dict() for _ in keys]
    for j, (_name, v) in enumerate(basis):
        for k, c in v.items():
            rows[kpos[k]][j] = c
    for i, row in enumerate(rows):
        row[n + i] = field.one
    done, pivots, _ = _eliminate(field, rows, n)
    if len(pivots) < len(keys):
        return None
    coords: Dict[object, Vec] = {k: {} for k in keys}
    for row, pj in zip(done, pivots):
        for j, c in row.items():
            if j >= n:
                coords[keys[j - n]][basis[pj][0]] = c
    return coords
