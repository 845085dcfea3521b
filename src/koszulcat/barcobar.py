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

Words are ranked, not listed (``quiver.Words``): a word's id is
counted, its key built on its first read, h.a is ``first[h] + rank[a]``,
and the bar's quiver counts its slot dimensions (``quiver.WordQuiver``),
so building a bar lists no word.  rDelta is not stored: the coalgebra
keeps the words, which read a word's splits key by key.
d is derived on read (``quiver.WordMap``): a row is computed on word
ids when first read and kept, so a row no reader asks for is never
computed.  ``d`` names one row by word keys, ``diff`` every row.  d of
each letter and the merge of each two-letter word are split once, with
the curvature they alone carry, and row w'.a is read off the row of its
parent w', whose id is smaller (so a row read computes at most one row
per letter of its word):

    d(w'.a) = d(w').a + (merge of w'[-1], a) + (d a at the last position)

The terms of d(w') keep their signs in d(w'.a) because kappa_i counts
only the letters left of position i, and appending a changes none.

cobar(C) is the path category (``dgcat._path_category``) on the reduced
arrows of C shifted up one degree, each letter named by its reduced key.
Its words are listed on the word trie ``quiver.WordTrie``, which
extends a word only by the letters that fit its remaining length and
weight budget.
On a single letter

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
against coassociativity, and the curvature term against d^2 of C.
A length cap truncates d near the cap and composition across it, so the
result records which region is exact.  A letter named by a tuple weighs
its length (a bar word's length), any other letter 1.  That weight is
additive under rDelta only for word-named keys (bar and cotensor
letters), and there a weight cap keeps the differential complete at
every cap; on other keys, such as tensor keys (named by pairs, so of
weight 2), ``trunc_min_len`` reports what d lost.

The zero category (objects whose units are zero) has no letters and no
unit functionals either, so its bar is the formal final coalgebra and
the cobar of that sentinel is the zero category again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .coalgebra import FinalCoalgebra, PointedCoalgebra
from .dgcat import DgCategory, _path_category, empty_category, zero_category
from .field import Vec, _normalize, vec_bump
from .matrix import _coordinates
from .quiver import Key, WordMap, WordQuiver, Words


class Splitting:
    """Choice of a unit complement in each degree-0 endomorphism slot.

    Away from those slots the basis arrows themselves are the letters of
    the bar construction; on a degree-0 endo slot the letters are the
    supplied complement vectors.  The default complement is every basis
    arrow of the slot except the unit's first key (by repr); it takes the
    same path as a supplied one.

    At construction one elimination per such slot gives each basis key's
    coordinates in the basis [unit | complement] (``matrix._coordinates``).
    ``split`` sums those coordinates to write a vector as unit
    coefficients plus a letter part, which is all the bar construction
    ever needs.  A complement on an object that has no nonzero unit is
    refused.
    """

    def __init__(
        self,
        cat: DgCategory,
        complement: Optional[Dict[object, List[Vec]]] = None,
    ):
        self.cat = cat
        F = cat.field
        complement = {} if complement is None else complement
        for x in complement:
            if x not in cat.quiver.objects or not cat.unit_vec(x):
                raise ValueError(f"complement at {x!r}, which is not an "
                                 "object with a nonzero unit")
        self.letters: List[Key] = []
        self._vecs: Dict[Key, Vec] = {}
        # degree-0 endo basis key at x -> (its unit coefficient, its letter
        # part); objects with zero unit get no entries
        self._coords: Dict[Key, Tuple[object, Vec]] = {}
        endo_letters: List[Key] = []

        for x in cat.quiver.objects:
            u = cat.unit_vec(x)
            if not u:
                continue
            slot_keys = [(x, x, 0, a) for a in cat.quiver.slot(x, x, 0)]
            given = complement.get(x)
            if given is None:
                pivot = min(u, key=repr)
                letter_keys = [k for k in slot_keys if k != pivot]
                given = [{k: F.one} for k in letter_keys]
            else:
                if len(given) != len(slot_keys) - 1:
                    raise ValueError(
                        f"complement at {x!r} must have {len(slot_keys) - 1} vectors"
                    )
                letter_keys = [(x, x, 0, ("split", i)) for i in range(len(given))]
            if any(k not in slot_keys for v in given for k in v):
                raise ValueError(f"complement vector at {x!r} is off its slot")
            for lk, v in zip(letter_keys, given):
                self._vecs[lk] = _normalize({k: F.coerce(c) for k, c in v.items()})
            # the unit is named None, the letters by their keys
            coords = _coordinates(F, slot_keys, [(None, u)] + [
                (lk, self._vecs[lk]) for lk in letter_keys])
            if coords is None:
                raise ValueError(f"unit and complement do not span the slot at {x!r}")
            for k, cs in coords.items():
                self._coords[k] = (cs.pop(None, F.zero), cs)
            endo_letters.extend(letter_keys)

        for (sx, sy, sn), names in cat.quiver.slots.items():
            for a in names:
                k = (sx, sy, sn, a)
                if k not in self._coords:
                    self.letters.append(k)
                    self._vecs[k] = {k: F.one}
        self.letters.extend(endo_letters)

    def letter_vec(self, k: Key) -> Vec:
        return dict(self._vecs[k])

    def split(self, v: Vec) -> Tuple[Dict[object, object], Vec]:
        """Unit coefficients by object, plus the letter-coordinate rest."""
        F = self.cat.field
        units: Dict[object, object] = {}
        red: Vec = {}
        by_endo: Dict[object, Vec] = {}
        for k, c in v.items():
            if k in self._coords:
                by_endo.setdefault(k[0], {})[k] = c
            else:
                vec_bump(F, red, k, c)
        for x, part in by_endo.items():
            for k, c in part.items():
                u, letters = self._coords[k]
                if not F.is_zero(u):
                    vec_bump(F, units, x, F.mul(c, u))
                for lk, a in letters.items():
                    vec_bump(F, red, lk, F.mul(c, a))
        return units, red


def _bar_word(ks: Sequence[Key]) -> Key:
    """The bar's key of the word on D's reduced keys ``ks``, composable in
    order: each letter shifts down one degree, and the word is keyed
    (source, target, summed shifted degree, letters), as ``quiver.Words``
    keys it; ``_bar_word((k,))[:3]`` is the slot of k's one-letter word."""
    return (ks[0][0], ks[-1][1], sum(k[2] - 1 for k in ks), tuple(ks))


def bar_construction(
    cat: DgCategory,
    weight_cap: int,
    splitting: Optional[Splitting] = None,
):
    """Materialize the bar coalgebra of an uncurved dg category.

    Exact per weight: every word of weight <= weight_cap carries its full
    differential, comultiplication, and curvature.  The bar records its
    ``Splitting`` (whose ``.cat`` is D) as ``.splitting``.  The empty
    category takes the same path, to a bar with no objects; only the
    zero category (at least one object, every unit zero) has the final
    coalgebra as its bar, which records none.  A ``splitting`` of another
    category is refused.
    """
    F = cat.field
    if weight_cap < 0:
        raise ValueError(f"weight_cap={weight_cap} is negative; "
                         "pass weight_cap=0 or more")
    if cat.is_curved():
        raise ValueError("bar construction needs an uncurved dg category")
    if splitting is not None and splitting.cat is not cat:
        raise ValueError("the splitting is of another category than the one "
                         "being barred")
    objects = cat.quiver.objects
    if objects and all(not cat.unit_vec(x) for x in objects):
        if cat.quiver.total_dim():
            raise ValueError("bar construction needs units (or the zero category)")
        return FinalCoalgebra(F)
    if any(not cat.unit_vec(x) for x in objects):
        raise ValueError("bar construction needs a unit at every object")

    sp = splitting if splitting is not None else Splitting(cat)
    letters = sp.letters
    words = Words(objects,
                  [_bar_word((k,))[:3] + (k,) for k in letters], weight_cap)
    keys, first, out, rank, parent = (words.keys, words.first, words.out,
                                      words.rank, words.parent)
    ids = {k: i for i, k in enumerate(letters)}

    def split(v: Vec):  # units, and the letter part as (id, rank, coefficient)
        units, red = sp.split(v)
        return units, [(ids[k], rank[ids[k]], c) for k, c in red.items()]

    d_split = [split(cat.apply_d(sp.letter_vec(k))) for k in letters]
    merge_split = {f + r: split(cat.compose(sp.letter_vec(letters[a]),  # b.a
                                             sp.letter_vec(letters[b])))
                   for b, f in enumerate(islice(first, len(letters)))
                   if f >= 0 for r, a in enumerate(out[letters[b][1]])}
    # curvature: units of d on letters, minus units of merges on pairs
    curv = {keys[a]: units[letters[a][0]]
            for a, (units, _) in enumerate(d_split[:len(keys)]) if units}
    curv.update((keys[w], F.neg(units[keys[w][0]]))
                for w, (units, _) in merge_split.items() if units)
    minus_one = F.neg(F.one)

    def rule(w: int, row) -> Dict[int, object]:
        # d(h.a) = d(h).a + merge(h[-1], a) + d(a) at the last position
        h = parent[w]
        if h < 0:  # -(d a), kappa = 0
            return {i: F.neg(c) for i, _, c in d_split[w][1]}
        f = first[h]
        r = w - f
        _, y, kappa, _ = keys[h]  # kappa: shifted degree of h
        a = out[y][r]
        p = parent[h]
        base = first[p] if p >= 0 else None  # h[:-1].k is base + rank[k]
        b = h if base is None else out[keys[p][1]][h - base]  # h's last letter
        dvec = {first[i] + r: c for i, c in row(h).items()}
        # (-1)^{kappa_b + |b| |s a|}, kappa_b = kappa - |s b|, is
        # (-1)^{kappa + 1 + |b| |a|}
        mexp = kappa + 1 + letters[b][2] * letters[a][2]
        msgn = F.one if mexp % 2 == 0 else minus_one
        for i, ri, c in merge_split[first[b] + r][1]:
            vec_bump(F, dvec, i if base is None else base + ri,
                     F.mul(msgn, c))
        # internal differential: -(-1)^kappa at the last letter
        sgn = minus_one if kappa % 2 == 0 else F.one
        for _, ri, c in d_split[a][1]:
            vec_bump(F, dvec, f + ri, F.mul(sgn, c))
        return dvec

    bar = PointedCoalgebra(F, objects, WordQuiver(words), words,
                           WordMap(words, rule), curv)
    bar.splitting = sp
    return bar


@dataclass
class CobarResult:
    """A materialized cobar category plus the region where it is exact.

    ``exact`` (neither ``comp_truncated`` nor a ``trunc_min_len``) means
    no letter, no composition pair and no differential term was dropped:
    the category is the whole cobar construction and validates outright.
    Otherwise ``trunc_min_len`` is the shortest word whose differential
    lost a term, so d is complete below it and d^2 = 0 is guaranteed on
    words of length <= trunc_min_len - 2 (d of such a word only reaches
    words one letter longer).  ``category.coalgebra`` is the input coalgebra.
    """

    category: DgCategory
    length_cap: Optional[int]
    weight_cap: Optional[int] = None
    trunc_min_len: Optional[int] = None
    comp_truncated: bool = False

    @property
    def exact(self) -> bool:
        return not (self.comp_truncated or self.trunc_min_len is not None)

    def d_squared_problems(self, max_problems: int = 25) -> List[str]:
        """d(d(word)) != 0 in the guaranteed-exact region, words of length
        <= trunc_min_len - 2 (every word when d is complete), by the
        curvature check of ``DgCategory._d2_problems`` (a cobar has none)."""
        cut = self.trunc_min_len
        keys = (k for k in self.category.quiver.keys()
                if cut is None or len(k[3]) <= cut - 2)
        return list(islice(self.category._d2_problems(keys, "d^2 != 0 at {}"),
                           max_problems))


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
    letters, else 1).  At least one cap must make the word set finite.
    The weight is additive under rDelta only for word-named keys (bar and
    cotensor coalgebras), so there a weight cap alone keeps d complete.
    On other keys, such as the pair-named tensor keys of
    ``tensor_coalgebras``, a weight cap can drop terms of d, and
    ``trunc_min_len`` reports that.
    A cap that drops a letter makes the result not ``exact``.
    """
    for name, cap in (("length_cap", length_cap), ("weight_cap", weight_cap)):
        if cap is not None and cap < 0:
            raise ValueError(f"{name}={cap} is negative; pass {name}=0 or more")
    if isinstance(coa, FinalCoalgebra):
        return _cobar_of(coa, zero_category(coa.field), length_cap, weight_cap)
    F = coa.field
    if not coa.objects:
        return _cobar_of(coa, empty_category(F), length_cap, weight_cap)
    if length_cap is None and weight_cap is None:
        raise ValueError("cobar needs a length cap or a weight cap")

    # letters are the reduced keys shifted up one degree, named by the key
    letters = [(k[0], k[1], k[2] + 1, k) for k in coa.reduced.keys()]
    wt = {a: _letter_weight(a[3]) for a in letters}
    if weight_cap is not None and any(w < 1 for w in wt.values()):
        raise ValueError("letter weights must be >= 1 to cap by weight")

    # d on one letter: the internal term with the shifted degree of the
    # letter itself, (-1)^{|c''|} (c', c'') from the comultiplication, and
    # -h(c) on the empty word (endo slot, so paths stay glued); the
    # composition-side Leibniz rule forces the first two signs (d^2 pins
    # them)
    d_letter: Dict[Key, List[Tuple[Tuple[Key, ...], object]]] = {}
    for a in letters:
        k = a[3]
        terms = [((k2,), c if a[2] % 2 == 0 else F.neg(c))
                 for k2, c in coa.d(k).items()]
        terms += [((ka, kb), c if kb[2] % 2 == 0 else F.neg(c))
                  for (ka, kb), c in coa.delta(k).items()]
        h = coa.curv.get(k)
        if h is not None:
            terms.append(((), F.neg(h)))
        d_letter[k] = terms

    catout, comp_truncated, trunc_min_len = _path_category(
        F, coa.objects, letters, d_letter, length_cap, wt, weight_cap)
    return _cobar_of(coa, catout, length_cap, weight_cap, trunc_min_len,
                     comp_truncated)


def _cobar_of(coa, cat: DgCategory, *caps) -> CobarResult:
    """``CobarResult(cat, *caps)``, its category recording ``coa``."""
    cat.coalgebra = coa
    return CobarResult(cat, *caps)
