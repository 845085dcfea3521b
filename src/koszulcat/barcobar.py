"""Bar and cobar constructions between dg categories and pointed coalgebras.

bar(D) is the tensor coalgebra on a unit complement of D with every
letter shifted down one degree.  Words are composable paths of reduced
arrows, comultiplication is deconcatenation, and the differential
repackages d and composition of D; whatever of those lands back on the
unit line cannot be a letter and becomes curvature instead (weight one
from d, weight two from composition).  At letter position i the internal
term carries -(-1)^{kappa_i} and the merge with the next letter carries
(-1)^{kappa_i + |v_i| |s v_{i+1}|}; the curvature functional is +(unit
part of dv) on single letters and -(unit part of v_2 o v_1) on pairs.
These are the unique signs (up to global equivalence) for which the
square of the differential is the curvature coaction; the mismatch only
shows up when odd letters compose nontrivially or a merge has both a
unit and a reduced part, so a test corpus needs such samples on purpose.
The differential never raises weight, so a weight cap always yields an
honest subcoalgebra and materialization is exact per weight.

Words and deconcatenation come from ``coalgebra._deconcatenation``
(shared with ``cotensor_coalgebra``; the twin of ``_path_category``
below), which keys each word once; every term of d is looked up there,
so it is the word's own key.  d of each letter and the merge of each
two-letter word are split once, and d grows one letter at a time:

    d(w'.a) = d(w').a + (merge of w'[-1], a) + (d a at the last position)

The terms of d(w') keep their signs in d(w'.a) because kappa_i counts
only the letters left of position i, and appending a changes none.

cobar(C) is the path category (``dgcat._path_category``) on the reduced
arrows of C shifted up one degree.  On a single letter

    d(c) = (-1)^{|c|+1} (internal d of c)
         + sum (-1)^{|c''|} (c', c'') - h(c) . unit

over rDelta(c) = sum c' (x) c'', extended to words as a derivation for
composition.  Because the Leibniz rule here reads
d(g of) = dg of + (-1)^{|g|} g o df, differentiating a letter passes the
sign of the letters applied later; squaring to zero then forces the
quadratic sign onto the SECOND cofactor and the degree-dependent sign on
the internal term (the classical first-cofactor convention belongs to
the opposite Leibniz bookkeeping and fails d^2 = 0 here at length 4).
d^2 = 0 on the nose: the square of the comultiplication term cancels
against coassociativity, and the curvature term against d^2 of C.  A length cap truncates d near the cap
and composition across it, so the result records which region is exact;
capping by letter weight instead (available when letters carry weights
that d cannot increase, as bar words do) keeps the differential complete
at every cap.

The zero category (objects whose units are zero) has no letters and no
unit functionals either, so its bar is the formal final coalgebra and
the cobar of that sentinel is the zero category again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .coalgebra import (FinalCoalgebra, PointedCoalgebra, _deconcatenation,
                        zero_coalgebra)
from .dgcat import DgCategory, _path_category, empty_category, zero_category
from .field import Field, Vec, vec_bump
from .matrix import SparseMatrix
from .quiver import Key, Word


class Splitting:
    """Choice of a unit complement in each degree-0 endomorphism slot.

    Away from those slots the basis arrows themselves are the letters of
    the bar construction; on a degree-0 endo slot the letters are the
    supplied complement vectors.  The default complement keeps every
    basis arrow except the one carrying the unit's pivot coordinate.

    ``split`` writes a vector as unit coefficients plus a letter part,
    which is all the bar construction ever needs.
    """

    def __init__(
        self,
        cat: DgCategory,
        complement: Optional[Dict[object, List[Vec]]] = None,
    ):
        self.cat = cat
        F = cat.field
        self.letters: List[Key] = []
        self._vecs: Dict[Key, Vec] = {}
        # x -> (slot keys, [unit | complement] matrix, letter keys) for the
        # degree-0 endo slot at x; objects with zero unit get no entry.
        self._endo: Dict[object, Tuple[List[Key], SparseMatrix, List[Key]]] = {}
        self._pivot: Dict[object, Key] = {}

        for x in cat.quiver.objects:
            u = cat.unit_vec(x)
            if not u:
                continue
            slot_keys = [(x, x, 0, a) for a in cat.quiver.slot(x, x, 0)]
            given = (complement or {}).get(x)
            if given is None:
                pivot = min((k for k in u), key=repr)
                self._pivot[x] = pivot
                letter_keys = [k for k in slot_keys if k != pivot]
                vecs = [{k: F.one} for k in letter_keys]
            else:
                if len(given) != len(slot_keys) - 1:
                    raise ValueError(
                        f"complement at {x!r} must have {len(slot_keys) - 1} vectors"
                    )
                letter_keys = [(x, x, 0, ("split", i)) for i in range(len(given))]
                vecs = [dict(v) for v in given]
            index = {k: i for i, k in enumerate(slot_keys)}
            cols = [u] + vecs
            entries = {}
            for j, v in enumerate(cols):
                for k, c in v.items():
                    if k not in index:
                        raise ValueError(f"complement vector at {x!r} leaves slot")
                    entries[(index[k], j)] = F.coerce(c)
            m = SparseMatrix(F, len(slot_keys), len(cols), entries)
            if m.rank() != len(slot_keys):
                raise ValueError(f"unit and complement do not span the slot at {x!r}")
            self._endo[x] = (slot_keys, m, letter_keys)
            for k, v in zip(letter_keys, vecs):
                self._vecs[k] = v

        endo_slots = {(x, x, 0) for x in self._endo}
        for (sx, sy, sn), names in cat.quiver.slots.items():
            if (sx, sy, sn) in endo_slots:
                continue
            for a in names:
                k = (sx, sy, sn, a)
                self.letters.append(k)
                self._vecs[k] = {k: F.one}
        for x in self._endo:
            self.letters.extend(self._endo[x][2])

    def letter_vec(self, k: Key) -> Vec:
        return dict(self._vecs[k])

    def split(self, v: Vec) -> Tuple[Dict[object, object], Vec]:
        """Unit coefficients by object, plus the letter-coordinate rest."""
        F = self.cat.field
        units: Dict[object, object] = {}
        red: Vec = {}
        by_endo: Dict[object, Vec] = {}
        for k, c in v.items():
            x = k[0]
            if k[1] == x and k[2] == 0 and x in self._endo:
                by_endo.setdefault(x, {})[k] = c
            else:
                vec_bump(F, red, k, c)
        for x, part in by_endo.items():
            slot_keys, m, letter_keys = self._endo[x]
            pivot = self._pivot.get(x)
            if pivot is not None:
                # default splitting: peel the unit off by its pivot coordinate
                u = self.cat.unit_vec(x)
                coeff = F.mul(part.get(pivot, F.zero), F.inv(u[pivot]))
                if not F.is_zero(coeff):
                    units[x] = coeff
                for k, c in part.items():
                    if k == pivot:
                        continue
                    vec_bump(F, red, k, F.sub(c, F.mul(coeff, u.get(k, F.zero))))
            else:
                index = {k: i for i, k in enumerate(slot_keys)}
                sol = m.solve({index[k]: c for k, c in part.items()})
                if sol is None:
                    raise ValueError("split: vector outside the slot span")
                if 0 in sol and not F.is_zero(sol[0]):
                    units[x] = sol[0]
                for j, lk in enumerate(letter_keys):
                    c = sol.get(j + 1, F.zero)
                    if not F.is_zero(c):
                        vec_bump(F, red, lk, c)
        return units, red


def bar_construction(
    cat: DgCategory,
    weight_cap: int,
    splitting: Optional[Splitting] = None,
):
    """Materialize the bar coalgebra of an uncurved dg category.

    Exact per weight: every word of weight <= weight_cap carries its full
    differential, comultiplication, and curvature.
    """
    F = cat.field
    if weight_cap < 0:
        raise ValueError(f"weight_cap={weight_cap} is negative; "
                         "pass weight_cap=0 or more")
    if cat.is_curved():
        raise ValueError("bar construction needs an uncurved dg category")
    if not cat.quiver.objects:
        return zero_coalgebra(F)
    if all(not cat.unit_vec(x) for x in cat.quiver.objects):
        if cat.quiver.total_dim():
            raise ValueError("bar construction needs units (or the zero category)")
        return FinalCoalgebra(F)
    if any(not cat.unit_vec(x) for x in cat.quiver.objects):
        raise ValueError("bar construction needs a unit at every object")

    sp = splitting if splitting is not None else Splitting(cat)
    quiver, comult, key_of = _deconcatenation(
        F, cat.quiver.objects, [(k[0], k[1], k[2] - 1, k) for k in sp.letters],
        weight_cap)
    d_split = {k: sp.split(cat.apply_d(sp.letter_vec(k))) for k in sp.letters}
    merge_split = {w: sp.split(cat.compose(sp.letter_vec(w[1]), sp.letter_vec(w[0])))
                   for w in key_of if len(w) == 2}
    diff = {}
    curv = {}
    minus_one = F.neg(F.one)

    # d(w'.a) = d(w').a + merge(w'[-1], a) + d(a) at the last position
    for w, wk in key_of.items():
        x, _, n, _ = wk
        head, a = w[:-1], w[-1]
        kappa = n - a[2] + 1  # shifted degree of head
        dvec: Vec = {}
        if head:
            for hk, c in diff.get(key_of[head], {}).items():
                dvec[key_of[hk[3] + (a,)]] = c
            b = head[-1]
            # (-1)^{kappa_b + |b| |s a|}, kappa_b = kappa - |s b|
            mexp = kappa - b[2] + 1 + b[2] * (a[2] - 1)
            msgn = F.one if mexp % 2 == 0 else minus_one
            munits, mred = merge_split[w[-2:]]
            for k2, c in mred.items():
                vec_bump(F, dvec, key_of[head[:-1] + (k2,)], F.mul(msgn, c))
            if len(w) == 2 and munits:
                # weight-2 curvature is minus the unit part, no parity
                curv[wk] = F.neg(munits[x])
        # internal differential: -(-1)^kappa at the last letter
        sgn = minus_one if kappa % 2 == 0 else F.one
        units, red = d_split[a]
        for k2, c in red.items():
            vec_bump(F, dvec, key_of[head + (k2,)], F.mul(sgn, c))
        if not head and units:
            curv[wk] = units[x]
        if dvec:
            diff[wk] = dvec

    return PointedCoalgebra(F, cat.quiver.objects, quiver, comult, diff=diff, curv=curv)


@dataclass
class CobarResult:
    """A materialized cobar category plus the region where it is exact.

    ``exact`` means no composition pair and no differential term was
    dropped: the category is the whole cobar construction and validates
    outright.  Otherwise ``trunc_min_len`` is the shortest word whose
    differential lost a term, so d is complete below it and d^2 = 0 is
    guaranteed on words of length <= trunc_min_len - 2 (d of such a word
    only reaches words one letter longer).
    """

    category: DgCategory
    length_cap: Optional[int]
    weight_cap: Optional[int] = None
    exact: bool = True
    trunc_min_len: Optional[int] = None
    comp_truncated: bool = False

    @property
    def d_squared_len(self) -> Optional[int]:
        if self.trunc_min_len is None:
            return None  # d complete everywhere
        return self.trunc_min_len - 2

    def word_keys(self, max_len: Optional[int] = None):
        for k in self.category.quiver.keys():
            if max_len is None or len(k[3]) <= max_len:
                yield k

    def d_squared_problems(self, max_problems: int = 25) -> List[str]:
        """d(d(word)) for every word in the guaranteed-exact region."""
        cat = self.category
        problems = []
        for k in self.word_keys(self.d_squared_len):
            dd = cat.apply_d(cat.diff.get(k, {}))
            if dd:
                problems.append(f"d^2 != 0 at {k}")
                if len(problems) >= max_problems:
                    break
        return problems


def _letter_weight(k: Key) -> int:
    # cobar weight of a reduced key: bar-word length for tuple names, else 1
    return len(k[3]) if isinstance(k[3], tuple) else 1


def cobar_construction(
    coa,
    length_cap: Optional[int] = None,
    weight_cap: Optional[int] = None,
) -> CobarResult:
    """Materialize the cobar category of a pointed curved coalgebra.

    ``length_cap`` bounds the number of letters per word; ``weight_cap``
    bounds the total letter weight (bar-word length for tuple-named
    letters, else 1).  Weight capping alone keeps d complete because no
    differential term of the cobar raises total weight; at least one cap
    must make the word set finite.
    """
    for name, cap in (("length_cap", length_cap), ("weight_cap", weight_cap)):
        if cap is not None and cap < 0:
            raise ValueError(f"{name}={cap} is negative; pass {name}=0 or more")
    if isinstance(coa, FinalCoalgebra):
        return CobarResult(zero_category(coa.field), length_cap, weight_cap)
    F = coa.field
    if not coa.objects:
        return CobarResult(empty_category(F), length_cap, weight_cap)
    if length_cap is None and weight_cap is None:
        raise ValueError("cobar needs a length cap or a weight cap")

    # letters are the reduced keys shifted up one degree, named by the key
    def shift(k: Key) -> Key:
        return (k[0], k[1], k[2] + 1, k)

    wt = {shift(k): _letter_weight(k) for k in coa.reduced.keys()}
    letters = list(wt)
    if weight_cap is not None and any(w < 1 for w in wt.values()):
        raise ValueError("letter weights must be >= 1 to cap by weight")

    def keep(w: Word) -> bool:
        if length_cap is not None and len(w) > length_cap:
            return False
        if weight_cap is not None and sum(wt[a] for a in w) > weight_cap:
            return False
        return True

    # d on one letter: the internal term with the shifted degree of the
    # letter itself, (-1)^{|c''|} (c', c'') from the comultiplication, and
    # -h(c) on the empty word (endo slot, so paths stay glued); the
    # composition-side Leibniz rule forces the first two signs (d^2 pins
    # them)
    d_letter: Dict[Key, List[Tuple[Word, object]]] = {}
    for a in letters:
        k = a[3]
        terms = [((shift(k2),), c if a[2] % 2 == 0 else F.neg(c))
                 for k2, c in coa.diff.get(k, {}).items()]
        terms += [((shift(ka), shift(kb)), c if kb[2] % 2 == 0 else F.neg(c))
                  for (ka, kb), c in coa.comult.get(k, {}).items()]
        h = coa.curv.get(k)
        if h is not None:
            terms.append(((), F.neg(h)))
        d_letter[a] = terms

    catout, comp_truncated, trunc_min_len = _path_category(
        F, coa.objects, letters, d_letter, keep)
    return CobarResult(
        catout,
        length_cap,
        weight_cap,
        exact=not (comp_truncated or trunc_min_len is not None),
        trunc_min_len=trunc_min_len,
        comp_truncated=comp_truncated,
    )


# ---------------------------------------------------------------------------
# word growth analysis: when is a degree window exact under a length cap?


def _simple_cycles_and_paths(objects, edges):
    """All simple cycles and simple paths of an object digraph.

    edges: dict (x, y) -> (min weight, max weight).  Returns (cycles,
    paths) as lists of [(x, y), ...] edge sequences; paths include the
    empty path implicitly via their weight handling at the caller.
    """
    adj: Dict[object, List[object]] = {}
    for (x, y) in edges:
        adj.setdefault(x, []).append(y)
    cycles = []
    paths = []
    order = {x: i for i, x in enumerate(objects)}

    def dfs(start, node, visited, trail):
        for y in adj.get(node, ()):
            if y == start:
                cycles.append(list(trail) + [(node, y)])
                continue
            if order.get(y, -1) <= order[start]:
                continue  # canonical start = smallest node on the cycle
            if y in visited:
                continue
            dfs(start, y, visited | {y}, trail + [(node, y)])

    def dfs_path(node, visited, trail):
        if trail:
            paths.append(list(trail))
        for y in adj.get(node, ()):
            if y in visited:
                continue
            dfs_path(y, visited | {y}, trail + [(node, y)])

    for x in objects:
        dfs(x, x, {x}, [])
        dfs_path(x, {x}, [])
    return cycles, paths


def cobar_length_bound(coa, deg_lo: int, deg_hi: int) -> Optional[int]:
    """A word-length cap outside which no cobar word lands in the window.

    Analyzes cycle weights of the letter graph (letter weight = shifted
    degree).  Returns None when it cannot certify a bound: cycles of both
    signs, or a zero-weight cycle, can in principle pile up words of
    bounded degree at unbounded length, and the caller is expected to
    refuse or fall back to stabilization heuristics.
    """
    if isinstance(coa, FinalCoalgebra) or not coa.objects:
        return 0
    objects = list(coa.objects)
    if len(objects) > 8:
        return None
    edges: Dict[Tuple[object, object], Tuple[int, int]] = {}
    for k in coa.reduced.keys():
        w = k[2] + 1
        cur = edges.get((k[0], k[1]))
        edges[(k[0], k[1])] = (
            (w, w) if cur is None else (min(cur[0], w), max(cur[1], w))
        )
    if not edges:
        return 0
    cycles, paths = _simple_cycles_and_paths(objects, edges)
    nv = len(objects)
    if not cycles:
        longest = 0
        # longest path by edge count in a DAG of <= 8 nodes: reuse the
        # enumerated simple paths
        for p in paths:
            longest = max(longest, len(p))
        return longest

    def weight(seq, lo_side) -> int:
        return sum(edges[e][0 if lo_side else 1] for e in seq)

    min_cycle = min(weight(c, True) for c in cycles)
    max_cycle = max(weight(c, False) for c in cycles)
    min_path = min([0] + [weight(p, True) for p in paths])
    max_path = max([0] + [weight(p, False) for p in paths])
    if min_cycle >= 1:
        if deg_hi < min_path:
            return nv - 1
        return nv - 1 + (nv * (deg_hi - min_path)) // min_cycle
    if max_cycle <= -1:
        if max_path < deg_lo:
            return nv - 1
        return nv - 1 + (nv * (max_path - deg_lo)) // (-max_cycle)
    return None
