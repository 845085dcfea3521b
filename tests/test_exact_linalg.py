"""Exact linear algebra layer: fields, sparse elimination, complexes.

The fixed expected values below were frozen from the brute-force oracles in
this file (row-space counting over small prime fields, full vector
enumeration for kernels), not from the implementation under test.
"""

from fractions import Fraction
from itertools import combinations, product
import random

import pytest
from hypothesis import given, settings, strategies as st

from koszulcat.barcobar import Splitting
from koszulcat.convmc import counit_data
from koszulcat.field import QQ, GF, vec_add, vec_bump, vec_scale
from koszulcat.samples import CATEGORY_LIBRARY, truncated_polynomial
from koszulcat.matrix import SparseMatrix, _eliminate
from koszulcat.complexes import BoundedComplex


# ---------------------------------------------------------------------------
# oracles

def rank_by_rowspace_count(field, rows):
    """|row space| = q^rank, by enumerating all row combinations."""
    q = field.size
    span = set()
    n = len(rows[0]) if rows else 0
    for coeffs in product(range(q), repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % field.char
            for j in range(n)
        )
        span.add(v)
    size = len(span)
    rank = 0
    while q**rank < size:
        rank += 1
    assert q**rank == size
    return rank


def kernel_by_enumeration(field, rows, ncols):
    q = field.size
    out = []
    for v in product(range(q), repeat=ncols):
        if all(sum(c * x for c, x in zip(r, v)) % field.char == 0 for r in rows):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# fields

def test_rational_arithmetic():
    a = QQ.coerce("2/3")
    assert QQ.add(a, QQ.coerce(Fraction(1, 3))) == 1
    assert QQ.mul(a, QQ.inv(a)) == QQ.one


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_axioms(p):
    F = GF(p)
    els = list(F.elements())
    assert len(els) == p
    for a in els:
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    for a in els[:4]:
        for b in els[:4]:
            for c in els[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


# QQ keeps each value in one canonical form: an int when it is integral,
# a Fraction otherwise (never a float, never an integral Fraction)

def is_canonical_q(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def as_q(x):
    """The canonical form of a Fraction, built without the field."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


q_values = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
).map(as_q)


@settings(max_examples=400, deadline=None)
@given(q_values, q_values, st.one_of(st.integers(), st.fractions()),
       st.integers(0, 10**9))
def test_rationals_match_fraction_arithmetic(a, b, raw, seed):
    A, B = Fraction(a), Fraction(b)
    got = [
        (QQ.add(a, b), A + B), (QQ.sub(a, b), A - B), (QQ.mul(a, b), A * B),
        (QQ.neg(a), -A),
        (QQ.coerce(raw), Fraction(raw)), (QQ.coerce(str(raw)), Fraction(raw)),
        (QQ.coerce(A), A), (QQ.zero, 0), (QQ.one, 1),
    ]
    if B:
        got += [(QQ.inv(b), 1 / B), (QQ.div(a, b), A / B)]
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    # random keeps its draws: a small Fraction, made canonical
    for nonzero in (False, True):
        rng, twin = random.Random(seed), random.Random(seed)
        while True:
            want = Fraction(twin.randint(-3, 3), twin.choice((1, 1, 1, 2, 3)))
            if want or not nonzero:
                break
        got.append((QQ.random(rng, nonzero), want))
        assert rng.random() == twin.random()
    for value, want in got:
        assert value == want and is_canonical_q(value), (value, want)


@settings(max_examples=200, deadline=None)
@given(q_values)
def test_prime_fields_read_canonical_rationals_as_before(a):
    A = Fraction(a)
    for p in (2, 3, 5, 7):
        F = GF(p)
        if A.denominator % p == 0:
            for x in (a, A):
                with pytest.raises(ZeroDivisionError):
                    F.coerce(x)
            continue
        want = A.numerator * pow(A.denominator, -1, p) % p
        assert F.coerce(a) == F.coerce(A) == want


def test_fraction_into_prime_field():
    F = GF(5)
    assert F.coerce(Fraction(1, 2)) == 3  # 2*3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        F.coerce(Fraction(1, 5))
    with pytest.raises(ValueError, match="not prime"):
        GF(4)


def test_vec_helpers_drop_zeros():
    F = GF(3)
    a = {"x": 1, "y": 2}
    b = {"x": 2, "z": 1}
    s = vec_add(F, a, b)
    assert s == {"y": 2, "z": 1}
    assert vec_scale(F, 0, a) == {}


def test_vec_bump_stores_field_elements():
    # a fresh key stores s as a field element in canonical form: an int
    # when integral, a Fraction otherwise
    out = {}
    vec_bump(QQ, out, "x", 2)
    vec_bump(QQ, out, "y", 0)
    assert out == {"x": 2} and type(out["x"]) is int
    vec_bump(QQ, out, "x", -2)
    assert out == {}
    vec_bump(QQ, out, "x", "1/2")
    assert out == {"x": Fraction(1, 2)} and type(out["x"]) is Fraction
    F = GF(3)
    for s, want in [(4, {"x": 1}), (-1, {"x": 2}), (3, {})]:
        out = {}
        vec_bump(F, out, "x", s)
        assert out == want
    vec_bump(F, out, "x", 2)
    vec_bump(F, out, "x", 2)
    assert out == {"x": 1}


# ---------------------------------------------------------------------------
# matrices: frozen examples

def test_rank_all_ones_f2():
    # oracle: row space of [[1,1],[1,1]] over F2 is {00, 11}, so rank 1
    rows = [[1, 1], [1, 1]]
    assert rank_by_rowspace_count(GF(2), rows) == 1
    m = SparseMatrix.from_rows(GF(2), rows)
    assert m.rank() == 1


def test_rank_sparse_full_rank_q():
    # fraction-free elimination must rescale rows that miss the pivot
    # column too; this invertible matrix (det 1) came out rank 3 when
    # such rows were passed through untouched
    rows = [
        [-3, -1, 0, -1],
        [0, 1, -3, -3],
        [2, 0, 0, 1],
        [0, -3, -2, 0],
    ]
    m = SparseMatrix.from_rows(QQ, rows)
    assert m.rank() == 4
    assert len(m.rref()[1]) == 4


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_rank_agrees_with_rref_pivots_q(seed):
    # rank() is the pivot count of the one elimination, rref
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    entries = {}
    for i in range(nr):
        for j in range(nc):
            if rng.random() < 0.55:
                entries[(i, j)] = QQ.coerce(rng.choice([1, -1, 2, -2, 3, 5, -3]))
    m = SparseMatrix(QQ, nr, nc, entries)
    assert m.rank() == len(m.rref()[1])


def _det_by_cofactors(rows):
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * a * _det_by_cofactors([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _largest_nonzero_minor(rows):
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), size):
            for ci in combinations(range(nc), size):
                if _det_by_cofactors([[rows[i][j] for j in ci] for i in ri]):
                    return size
    return 0


@pytest.mark.parametrize("seed", range(200))
def test_rank_is_largest_nonzero_minor_q(seed):
    # oracle independent of elimination: cofactor minors over Fraction
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    density = rng.choice([0.3, 0.55, 0.8])
    values = [Fraction(v) for v in (1, -1, 2, -3, 5, "1/2", "-2/3", "5/7")]
    rows = [[rng.choice(values) if rng.random() < density else Fraction(0)
             for _ in range(nc)] for _ in range(nr)]
    if seed % 4 == 0 and nr > 1:
        # force a dependent row, so low ranks occur too
        a, b = rng.sample(range(nr), 2)
        rows[a] = [Fraction(3, 4) * v for v in rows[b]]
    m = SparseMatrix.from_rows(QQ, rows)
    assert m.rank() == _largest_nonzero_minor(rows)
    assert m.rank() == len(m.rref()[1])


def test_kernel_sum_map_f2():
    rows = [[1, 1]]
    ker = kernel_by_enumeration(GF(2), rows, 2)
    assert set(ker) == {(0, 0), (1, 1)}  # spanned by (1,1)
    m = SparseMatrix.from_rows(GF(2), rows)
    basis = m.kernel_basis(labels=("a", "b"))
    assert basis == [{"a": 1, "b": 1}]


def test_kernel_labels_carried():
    m = SparseMatrix.from_rows(GF(3), [[1, 2, 0], [0, 0, 1]])
    (v,) = m.kernel_basis(labels=("u", "v", "w"))
    # 1*u + 2*v = 0 -> u = -2v = v ; w = 0
    vv = {k: c for k, c in v.items()}
    assert vv.get("w", 0) == 0
    assert GF(3).add(vv["u"], GF(3).mul(2, vv["v"])) == 0


def test_two_step_complex_over_q():
    # 0 -> k^2 -d-> k^2 -> 0 with d = [[0,0],[1,0]]: ker d = span(e2),
    # im d = span(e2), so H^0 = 1 and H^1 = 2 - 1 = 1.
    d = SparseMatrix.from_rows(QQ, [[0, 0], [1, 0]])
    c = BoundedComplex(QQ, {0: 2, 1: 2}, {0: d})
    assert c.validate() == []
    assert c.homology_dims() == {0: 1, 1: 1}


def test_complex_detects_bad_square():
    d0 = SparseMatrix.from_rows(QQ, [[1]])
    d1 = SparseMatrix.from_rows(QQ, [[1]])
    c = BoundedComplex(QQ, {0: 1, 1: 1, 2: 1}, {0: d0, 1: d1})
    assert c.validate() != []


def test_complex_shape_check():
    d = SparseMatrix.from_rows(QQ, [[1, 0]])
    with pytest.raises(ValueError):
        BoundedComplex(QQ, {0: 2, 1: 2}, {0: d})


# ---------------------------------------------------------------------------
# randomized agreement with the oracles

@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_rowspace_oracle(p, seed):
    rng = random.Random(1000 * p + seed)
    F = GF(p)
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    rows = [[F.random(rng) for _ in range(nc)] for _ in range(nr)]
    m = SparseMatrix.from_rows(F, rows)
    assert m.rank() == rank_by_rowspace_count(F, rows)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_enumeration_f3(seed):
    rng = random.Random(seed)
    F = GF(3)
    nr, nc = rng.randint(1, 3), rng.randint(1, 4)
    rows = [[F.random(rng) for _ in range(nc)] for _ in range(nr)]
    m = SparseMatrix.from_rows(F, rows)
    basis = m.kernel_basis()
    assert len(kernel_by_enumeration(F, rows, nc)) == 3 ** len(basis)
    for v in basis:
        col = {j: c for j, c in v.items()}
        assert m.apply(col) == {}


small_q = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_rank_nullity_over_q(nr, nc, data):
    rows = [
        [data.draw(small_q) for _ in range(nc)]
        for _ in range(nr)
    ]
    m = SparseMatrix.from_rows(QQ, rows)
    r = m.rank()
    assert r <= min(nr, nc)
    assert r + len(m.kernel_basis()) == nc
    assert m.transpose().rank() == r
    # rref preserves rank and kernel (pivot choice itself is not canonical)
    R, piv = m.rref()
    assert len(piv) == r == R.rank()
    for v in m.kernel_basis():
        assert R.apply(v) == {}
    assert len(R.kernel_basis()) == nc - r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_solve_then_apply(seed, nr, nc):
    rng = random.Random(seed)
    F = GF(5)
    m = SparseMatrix(
        F, nr, nc,
        {(i, j): F.random(rng) for i in range(nr) for j in range(nc) if rng.random() < 0.7},
    )
    x = {j: F.random(rng) for j in range(nc)}
    rhs = m.apply(x)
    sol = m.solve(rhs)
    assert sol is not None
    assert m.apply(sol) == rhs


def test_solve_inconsistent():
    m = SparseMatrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert m.solve({0: 1, 1: 2}) is None
    assert m.solve({0: 1, 1: 1}) is not None


def test_matmul_rank_bound():
    rng = random.Random(7)
    F = GF(3)
    a = SparseMatrix(F, 3, 4, {(i, j): F.random(rng) for i in range(3) for j in range(4)})
    b = SparseMatrix(F, 4, 3, {(i, j): F.random(rng) for i in range(4) for j in range(3)})
    ab = a.matmul(b)
    assert ab.rank() <= min(a.rank(), b.rank())


def test_euler_characteristic_matches_homology():
    rng = random.Random(11)
    F = GF(3)
    # random three-term complex built to satisfy d^2 = 0: take d1 arbitrary
    # and d0 with image inside ker d1 (columns = kernel vectors).
    d1 = SparseMatrix(F, 2, 3, {(i, j): F.random(rng) for i in range(2) for j in range(3)})
    kb = d1.kernel_basis()
    cols = []
    for _ in range(2):
        v = {}
        for b in kb:
            v = vec_add(F, v, vec_scale(F, F.random(rng), b))
        cols.append(v)
    d0 = SparseMatrix(F, 3, 2, {(i, j): v for j, col in enumerate(cols) for i, v in col.items()})
    c = BoundedComplex(F, {0: 2, 1: 3, 2: 2}, {0: d0, 1: d1})
    assert c.validate() == []
    h = c.homology_dims()
    euler_dims = sum((-1) ** n * c.dim(n) for n in range(0, 3))
    euler_h = sum((-1) ** n * h[n] for n in h)
    assert euler_dims == euler_h


# ---------------------------------------------------------------------------
# the pivot sequence: matrix._eliminate keeps Markowitz's rule up
# incrementally; a full rescan per pivot is its oracle


def rescan_eliminate(F, rows, ncols):
    """Markowitz elimination with a full rescan per pivot: every step
    recounts the columns over the live rows and takes the least
    ((len(r) - 1)(count(j) - 1), j, position of r among the live rows),
    j below ``ncols``; returns (pivot rows, pivot columns, leftover rows)."""
    done, stuck, pivots = [], [], []
    live = [r for r in rows if r]
    while live:
        col_count = {}
        for r in live:
            for j in r:
                col_count[j] = col_count.get(j, 0) + 1
        best = None
        for idx, r in enumerate(live):
            for j in r:
                if j < ncols:
                    key = ((len(r) - 1) * (col_count[j] - 1), j, idx)
                    if best is None or key < best:
                        best = key
        if best is None:
            stuck.extend(live)
            break
        _, pj, ri = best
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

        live = [e for e in (eliminate(r) if pj in r else r for r in live) if e]
        done = [eliminate(r) if pj in r else r for r in done] + [prow]
        pivots.append(pj)
    return done, pivots, stuck


def assert_same_pivots(F, rows, ncols):
    before = [dict(r) for r in rows]
    got = _eliminate(F, rows, ncols)
    assert rows == before  # the input rows are left as they are
    assert got == rescan_eliminate(F, rows, ncols), (F, rows, ncols)


def random_rows(F, rng):
    """Rows over F with zero rows, repeated rows and columns past ncols."""
    nr, ncols, extra = rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 3)
    density = rng.choice([0.15, 0.35, 0.6, 0.9])
    rows = []
    for _ in range(nr):
        roll = rng.random()
        if roll < 0.1:
            rows.append({})
        elif roll < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            rows.append({j: F.random(rng, nonzero=True)
                         for j in range(ncols + extra) if rng.random() < density})
    return rows, ncols


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_eliminate_matches_the_rescan_oracle(F):
    rng = random.Random(f"pivots:{F}")
    for _ in range(400):
        assert_same_pivots(F, *random_rows(F, rng))


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=str)
def test_eliminate_matches_the_rescan_oracle_on_empty_shapes(F):
    one = F.one
    for rows, ncols in [([], 0), ([], 3), ([{}], 0), ([{}, {}], 2),
                        ([{0: one}], 0), ([{2: one}, {3: one}], 2),
                        ([{0: one}, {}, {0: one}], 1)]:
        assert_same_pivots(F, rows, ncols)


@pytest.mark.parametrize("name, cap", [("trunc_poly3", 5),
                                       ("contractible_pair", 4),
                                       ("odd_pair_diff", 3)])
def test_eliminate_matches_the_rescan_oracle_on_counits(name, cap):
    # every hom-complex differential of the resolve workload's counits
    # (the cobar side of its homology windows), its transpose, and both
    # with a right-hand side column past ncols
    d = CATEGORY_LIBRARY[name](QQ)
    cobar = counit_data(d, cap).cobar.category
    lo, hi = d.quiver.degree_support()
    seen = 0
    for x in cobar.quiver.objects:
        for y in cobar.quiver.objects:
            for m in cobar.hom_complex(x, y, lo - 2, hi + 2).d.values():
                for a in (m, m.transpose()):
                    rows = a._rows_as_dicts()
                    assert_same_pivots(QQ, rows, a.ncols)
                    for r in rows[::3]:
                        r[a.ncols] = QQ.one
                    assert_same_pivots(QQ, rows, a.ncols)
                seen += len(m.entries)
    assert seen > 90


def test_solve_refuses_a_right_hand_side_outside_the_rows():
    m = SparseMatrix.from_rows(QQ, [[1, 0], [0, 1]])
    for rhs in ({-1: 5}, {2: 5}):
        with pytest.raises(IndexError, match="outside 2x2"):
            m.solve(rhs)
        with pytest.raises(IndexError, match="outside 2x2"):
            m.solution_space(rhs)
    assert m.solve({1: 5}) == {1: 5}


def test_kernel_basis_refuses_labels_of_another_length():
    m = SparseMatrix.from_rows(GF(3), [[1, 2, 0]])
    for labels in (("u", "v"), ("u", "v", "w", "x")):
        with pytest.raises(ValueError, match="labels for 3 columns"):
            m.kernel_basis(labels)
    assert len(m.kernel_basis(("u", "v", "w"))) == 2


# ---------------------------------------------------------------------------
# canonical form of what the library stores over Q: a path that bypasses the
# field (a raw sum or division) would leave an integral Fraction or a float


def _table_scalars(table):
    for v in table.values():
        if isinstance(v, dict):
            yield from _table_scalars(v)
        else:
            yield v


def _q_cases():
    """The QQ matrices of the tests above, frozen and seeded."""
    yield [[-3, -1, 0, -1], [0, 1, -3, -3], [2, 0, 0, 1], [0, -3, -2, 0]]
    yield [[0, 0], [1, 0]]
    yield [[1, 1], [1, 1]]
    for seed in range(60):
        rng = random.Random(seed)
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        values = [Fraction(v) for v in (1, -1, 2, -3, 5, "1/2", "-2/3", "5/7")]
        yield [[rng.choice(values) if rng.random() < 0.55 else 0
                for _ in range(nc)] for _ in range(nr)]
    for seed in range(60):
        rng = random.Random(seed)
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.choice([0, 1, -1, 2, -2, 3, 5, -3]) for _ in range(nc)]
               for _ in range(nr)]


def test_elimination_outputs_are_canonical_q():
    for rows in _q_cases():
        m = SparseMatrix.from_rows(QQ, rows)
        R, _ = m.rref()
        rhs = {i: Fraction(i + 1, 2) for i in range(m.nrows)}
        sol, kernel = m.solution_space(rhs)
        scalars = list(m.entries.values()) + list(R.entries.values())
        scalars += [c for v in kernel + [sol or {}] for c in v.values()]
        assert scalars and all(is_canonical_q(c) for c in scalars), rows


@pytest.mark.parametrize("name, cap", [("trunc_poly3", 5),
                                       ("contractible_pair", 3),
                                       ("odd_pair_diff", 2)])
def test_library_tables_are_canonical_q(name, cap):
    # the counit of the resolve workload, and two with a differential
    data = counit_data(CATEGORY_LIBRARY[name](QQ), cap)
    cobar = data.cobar.category
    tables = [data.bar.comult, data.bar.diff, data.bar.curv,
              cobar.unit, cobar.comp, cobar.diff, cobar.curvature,
              data.mc.xi, data.functor.action]
    scalars = [c for t in tables for c in _table_scalars(t)]
    assert len(scalars) > 100
    assert all(is_canonical_q(c) for c in scalars)


def test_splitting_coordinates_are_canonical_q():
    # a complement with fractional vectors gives fractional coordinates
    cat = truncated_polynomial(QQ, 3)
    keys = [("*", "*", 0, a) for a in cat.quiver.slot("*", "*", 0)]
    half = Fraction(1, 2)
    complement = [{keys[0]: half, keys[1]: 1}, {keys[1]: half, keys[2]: 2}]
    for sp in (Splitting(cat), Splitting(cat, {"*": complement})):
        scalars = []
        for k in keys:
            units, red = sp.split({k: QQ.one})
            scalars += list(units.values()) + list(red.values())
        for k in sp.letters:
            scalars += list(sp.letter_vec(k).values())
        assert all(is_canonical_q(c) for c in scalars), scalars
    assert any(type(c) is Fraction for c in scalars)
