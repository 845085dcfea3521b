"""Dg categories with finitely many objects and finite-dimensional homs.

A category is a graded quiver plus structure tables: a unit vector per
object, a sparse composition table on basis arrows, a differential of
degree +1, and optionally a curvature endomorphism of degree 2 per object.
Missing table entries mean zero; every stored entry must sit on a known
key and each term of its value in the slot that key dictates (the one
slot rule, ``quiver._slot_problems``), and ``validate`` re-derives all
axioms from the stored tables:

    1_y o f = f = f o 1_x            d(1_x) = 0
    (h o g) o f = h o (g o f)        d(g o f) = dg o f + (-1)^|g| g o df
    d(d(f)) = h_y o f - f o h_x      h_x in degree 2, d(h_x) = 0

Each identity is linear in every argument and a missing entry is zero, so
a case that no stored entry feeds reads 0 = 0; ``validate`` checks the
other cases only, each read off stored entries, none composed from basis
vectors: associativity and Leibniz as sparse joins of the composition
and differential tables on integer key ids, the unit laws and
d^2 = [h, -] by ``_products``, which composes a per-object element (the
unit, the curvature) with every basis arrow.  d^2 has one pass,
``_d2_problems``, which the reduced convolution and a cobar's
``d_squared_problems`` run too.  Every validator, here and in
``coalgebra``, yields its problems from ``_problems`` in a fixed order and
``validate(n)`` keeps the first n, by one ``islice``.

The uncurved case is h = 0.  A zero unit vector is rejected except in the
one-object category with no morphisms at all (0 = 1 forces everything to
vanish, so that is the only model).

Composition is written ``compose(g, f)`` = "g after f" throughout; no
Koszul sign lives here.  Signs enter in ``tensor_dg`` (interchanging a
morphism past a morphism) and ``opposite`` (reversal).

Path categories have one builder, ``_path_category``: the words of a
``quiver.WordTrie`` (the one word lister; bar and cotensor words are
ranked instead), composition by the transpose of their deconcatenation
(``splits``), and the letter differential extended as a derivation, one
letter at a time (``steps`` and ``ext``).  ``free_category`` calls it on
a generator quiver and ``barcobar.cobar_construction`` on the shifted
reduced part of a coalgebra, under its length and weight caps.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .complexes import BoundedComplex
from .field import (Field, Vec, _apply, _compose, _normalize, _same_field,
                    vec_add, vec_bump, vec_neg, vec_sub)
from .matrix import SparseMatrix
from .quiver import (GradedQuiver, Key, WordTrie, _endo_slot, _key_slot,
                     _object_map_problems, _pair_slot, _slot_problems,
                     pair_key, quiver_tensor)


class DgCategory:
    def __init__(
        self,
        field: Field,
        quiver: GradedQuiver,
        unit: Dict[object, Vec],
        comp: Dict[Tuple[Key, Key], Vec],
        diff: Optional[Dict[Key, Vec]] = None,
        curvature: Optional[Dict[object, Vec]] = None,
    ):
        """Takes ownership of the table dicts and normalizes them in place
        (see ``field``); the caller edits them no further."""
        self.field = field
        self.quiver = quiver
        self.unit = _normalize(unit)
        self.comp = _normalize(comp)
        self.diff = _normalize({} if diff is None else diff)
        self.curvature = _normalize({} if curvature is None else curvature)

    # -- evaluation ---------------------------------------------------------

    def unit_vec(self, x) -> Vec:
        return dict(self.unit.get(x, {}))

    def curvature_vec(self, x) -> Vec:
        return dict(self.curvature.get(x, {}))

    def is_curved(self) -> bool:
        return any(self.curvature.values())

    def apply_d(self, vec: Vec) -> Vec:
        return _apply(self.field, self.diff, vec)

    def compose(self, g: Vec, f: Vec) -> Vec:
        """Bilinear extension of the basis composition table; g after f."""
        return _compose(self.field, self.comp, g, f)

    def basis_vec(self, key: Key) -> Vec:
        return {key: self.field.one}

    # -- validation ---------------------------------------------------------

    def validate(self, max_problems: int = 25) -> List[str]:
        return list(islice(self._problems(), max_problems))

    def _problems(self) -> Iterator[str]:
        """Zero units, and unclosed units and curvature, per object; table
        hygiene, the slot rule on the units (each in its object's degree-0
        endomorphisms), d (one degree up), the composition (an entry
        (g, f) in the slot of f followed by g) and the curvature (degree
        2); the unit laws; associativity and Leibniz; d^2."""
        F = self.field
        Q = self.quiver

        # units nonzero in a nonzero category; units and curvature closed
        for x in Q.objects:
            u = self.unit.get(x, {})
            if not u:
                if Q.total_dim() > 0:
                    yield f"unit at {x!r} is zero in a nonzero category"
            elif self.apply_d(u):
                yield f"unit at {x!r} is not closed"
            if self.apply_d(self.curvature.get(x, {})):
                yield f"curvature at {x!r} is not closed"

        # table hygiene
        term = _key_slot(Q)
        for table, slot_of, what in (
                (self.unit, _endo_slot(Q.objects, 0), "unit"),
                (self.diff, _key_slot(Q, shift=1), "differential"),
                (self.comp, _pair_slot(Q, first=1), "composition"),
                (self.curvature, _endo_slot(Q.objects, 2), "curvature")):
            yield from _slot_problems(table, slot_of, term, what)

        # unit laws
        post, pre = _products(F, self.comp, self.unit)
        for k in Q.keys():
            v = {k: F.one}
            if post.get(k, {}) != v:
                yield f"1 o {k} != {k}"
            if pre.get(k, {}) != v:
                yield f"{k} o 1 != {k}"

        yield from self._composition_problems()
        yield from self._d2_problems(
            Q.keys(), "d^2 on {} does not match curvature bracket")

    def _d2_problems(self, keys, message: str, outer=None) -> Iterator[str]:
        """``message`` on each of ``keys`` where d(d f) is not
        h_y o f - f o h_x (+ ``outer(f)``), read off ``_products``."""
        F = self.field
        post, pre = _products(F, self.comp, self.curvature)
        for f in keys:
            want = vec_sub(F, post.get(f, {}), pre.get(f, {}))
            if outer is not None:
                want = vec_add(F, want, outer(f))
            if self.apply_d(self.diff.get(f, {})) != want:
                yield message.format(f)

    def _composition_problems(self) -> Iterator[str]:
        """Associativity, then Leibniz failures.

        Each identity is summed as left side minus right side per case, by
        sparse joins over the stored entries on the integer ids of
        ``pos``: h o (g o f) from (g, f) stored, a term k of it, and (h, k)
        stored; (h o g) o f from (h, g) stored, a term k, and (k, f)
        stored; the Leibniz terms likewise through the stored d.  A case
        fails where its sum is nonzero; a case no join reaches reads 0 = 0
        (see the module docstring).  Associativity sums the cases of one
        middle key g at a time and keeps the failing ones only.  Failures
        are reported in the order of a scan over the basis.  Neither pass
        reads a unit, so the unitless reduced convolution uses them too.
        """
        F = self.field
        pos = {k: i for i, k in enumerate(self.quiver.keys())}

        def ids(v: Vec) -> List[Tuple[int, object]]:  # one id per key
            return [(pos.setdefault(k, ~len(pos)), c) for k, c in v.items()]

        comp = [(pos.setdefault(g, ~len(pos)), pos.setdefault(f, ~len(pos)),
                 ids(gf)) for (g, f), gf in self.comp.items()]
        diff = {pos.setdefault(a, ~len(pos)): ids(da)
                for a, da in self.diff.items()}
        # a case on a key outside the basis is never reported, so its
        # sign need not be known
        odd = {i: k[2] % 2 for k, i in pos.items() if i >= 0}
        before: Dict[int, list] = {}  # k -> (f, k o f) for each stored (k, f)
        after: Dict[int, list] = {}  # k -> (h, h o k) for each stored (h, k)
        for h, k, hk in comp:
            after.setdefault(k, []).append((h, hk))
            before.setdefault(h, []).append((k, hk))

        def bump(sums: Dict[tuple, Vec], case: tuple, c, terms) -> None:
            out = sums.setdefault(case, {})
            for t, c2 in terms:
                vec_bump(F, out, t, F.mul(c, c2))

        assoc: Dict[tuple, Vec] = {}  # failing (f, g, h) -> h(gf) - (hg)f
        for g in before.keys() | after.keys():  # one middle key at a time
            sums: Dict[tuple, Vec] = {}  # (f, h) -> the case (f, g, h)
            for f, gf in before.get(g, ()):
                for k, c in gf:
                    for h, hk in after.get(k, ()):
                        bump(sums, (f, h), c, hk)
            for h, hg in after.get(g, ()):
                for k, c in hg:
                    for f, kf in before.get(k, ()):
                        bump(sums, (f, h), F.neg(c), kf)
            assoc.update(((f, g, h), v) for (f, h), v in sums.items() if v)
        leibniz: Dict[tuple, Vec] = {}  # (f, g) -> d(gf) - dg f - ±g df
        for g, f, gf in comp:
            for k, c in gf:
                bump(leibniz, (f, g), c, diff.get(k, ()))
        for a, da in diff.items():
            for k, c in da:
                for f, kf in before.get(k, ()):
                    bump(leibniz, (f, a), F.neg(c), kf)
                for g, gk in after.get(k, ()):  # the sign is (-1)^|g|
                    bump(leibniz, (a, g), c if odd.get(g) else F.neg(c), gk)

        for sums, message in ((assoc, "associativity fails on ({2}, {1}, {0})"),
                              (leibniz, "Leibniz fails on ({1}, {0})")):
            for case in _in_scan_order([c for c, v in sums.items() if v], pos):
                yield message.format(*case)

    # -- hom complexes ------------------------------------------------------

    def hom_complex(self, x, y, lo: int, hi: int) -> BoundedComplex:
        """Hom(x, y) as a complex on [lo, hi]; refuses if d^2 != 0 there,
        or if x or y is not an object."""
        for z in (x, y):
            if z not in self.quiver.objects:
                raise ValueError(f"{z!r} is not an object of this category")
        F = self.field
        dims, labels = {}, {}
        for n in range(lo, hi + 1):
            names = self.quiver.slot(x, y, n)
            dims[n] = len(names)
            labels[n] = [(x, y, n, a) for a in names]
        diffs = {}
        for n in range(lo, hi):
            src, tgt = labels[n], labels[n + 1]
            if not src or not tgt:
                continue
            pos = {k: i for i, k in enumerate(tgt)}
            entries = {}
            for j, key in enumerate(src):
                for k2, c in self.diff.get(key, {}).items():
                    if k2 in pos:
                        entries[(pos[k2], j)] = c
            diffs[n] = SparseMatrix(F, len(tgt), len(src), entries)
        cx = BoundedComplex(F, dims, diffs)
        bad = cx.validate()
        if bad:
            raise ValueError(f"hom({x!r}, {y!r}) is not a complex: {bad[0]}")
        return cx

    def hom_homology(self, x, y, lo: int, hi: int) -> Dict[int, int]:
        """dim H^n for n strictly inside the window, where edges are unsafe."""
        cx = self.hom_complex(x, y, lo - 1, hi + 1)
        return cx.homology_dims(lo, hi)

    def __repr__(self) -> str:
        kind = "curved dg" if self.is_curved() else "dg"
        return (
            f"DgCategory({kind}, {len(self.quiver.objects)} objects, "
            f"dim {self.quiver.total_dim()})"
        )


def _products(field: Field, comp: Dict, v: Mapping[object, Vec]
              ) -> Tuple[Dict[Key, Vec], Dict[Key, Vec]]:
    """The tables f -> v[y] o f and f -> f o v[x] over f: x -> y, for an
    element v[x] per object, summed from the stored entries of ``comp``;
    a key missing from a table composes to 0 on that side."""
    post: Dict[Key, Vec] = {}
    pre: Dict[Key, Vec] = {}
    if not any(v.values()):
        return post, pre
    for (g, f), gf in comp.items():
        for out, k, c in ((post, f, v.get(f[1], {}).get(g)),
                          (pre, g, v.get(g[0], {}).get(f))):
            if c is not None:
                vk = out.setdefault(k, {})
                for k2, c2 in gf.items():
                    vec_bump(field, vk, k2, field.mul(c, c2))
    return post, pre


def _in_scan_order(cases, pos: Dict[Key, int]) -> List[tuple]:
    """The cases (f, g[, h]) on known keys, each composable with the next.

    Cases come as ``pos`` ids (the basis from 0, any other key below 0),
    sorted f first: the order of nested loops over the basis, so a
    validator that visits only some cases reports its failures in the
    order of a full scan.  A case on a key outside the basis, or on keys
    that do not compose, is left to the table hygiene checks.
    """
    keys = list(pos)
    cases = (tuple(keys[i] for i in c) for c in sorted(cases) if min(c) >= 0)
    return [c for c in cases if all(a[1] == b[0] for a, b in zip(c, c[1:]))]


# ---------------------------------------------------------------------------
# constructions


def empty_category(field: Field) -> DgCategory:
    return DgCategory(field, GradedQuiver((), {}), {}, {})


def zero_category(field: Field) -> DgCategory:
    """One object, no morphisms at all; the only category with 1 = 0."""
    return DgCategory(field, GradedQuiver(("*",), {}), {"*": {}}, {})


def _path_category(
    field: Field,
    objects: Sequence,
    letters: Sequence[Key],
    d_letter: Mapping[object, Sequence[Tuple[tuple, object]]],
    max_len: Optional[int] = None,
    weights: Optional[Mapping[Key, int]] = None,
    max_weight: Optional[int] = None,
) -> Tuple[DgCategory, bool, Optional[int]]:
    """Path category on ``letters``, with the words within both caps.

    Basis: the empty word at each object (its unit) and every composable
    word (a_1, ..., a_n), a_1 applied first, of at most ``max_len``
    letters and at most ``max_weight`` summed letter ``weights``, keyed
    (src, tgt, sum of letter degrees, tuple of letter names); the
    listing is ``quiver.WordTrie``, which builds no word past a cap.
    Words compose by concatenation, so the table holds the two unit ends
    of each stored word and, transposed, each of its ``splits``, read
    off the trie by id.
    ``d_letter`` sends a letter name to its (replacement name tuple,
    coefficient) terms; d extends it as a derivation

        d(a_1 .. a_n) = sum_i (-1)^{|a_{i+1}| + .. + |a_n|} a_1 .. d(a_i) .. a_n

    matching d(g o f) = dg o f + (-1)^|g| g o df, and drops every term
    whose word is not stored, or whose replacement is no word from the
    letter's source to its target.

    Returns the category, whether a cap dropped a letter or a composite
    of stored words, and the shortest word whose differential dropped a
    term (None if none did).
    """
    F = field
    trie = WordTrie(objects, letters, max_len, weights, max_weight)
    words, ext = trie.keys, trie.ext
    units = {x: (x, x, 0, ()) for x in objects}
    slots = {(x, x, 0): [()] for x in objects}
    unit = {x: {u: F.one} for x, u in units.items()}
    comp = {(u, u): {u: F.one} for u in units.values()}
    for w, k in enumerate(words):
        slots.setdefault(k[:3], []).append(k[3])
        # comp[(g, f)] = g after f
        comp[(k, units[k[0]])] = {k: F.one}
        for f, g in trie.splits(w):
            comp[(words[g], words[f])] = {k: F.one}
        comp[(units[k[1]], k)] = {k: F.one}

    # d on word ids, -1 for the unit: d(p.a) is d(p).a, signed by
    # (-1)^{|a|}, plus p.d(a).  Extending by a keeps distinct words
    # distinct, so only the p.d(a) terms are summed.
    pos = {a[3]: i for i, a in enumerate(letters)}

    def letter_ids(x, y, repl) -> Optional[List[int]]:
        """The letter ids of ``repl`` if it is a word from x to y."""
        ids = [pos.get(name) for name in repl]
        if None in ids or ([x] + [letters[i][1] for i in ids]
                           != [letters[i][0] for i in ids] + [y]):
            return None
        return ids

    d_ids = [[(letter_ids(x, y, repl), c) for repl, c in d_letter.get(name, ())]
             for x, y, _, name in letters]
    rows: List[Dict[int, object]] = []  # d of each word below the length cap
    diff: Dict[Key, Vec] = {}
    trunc_min_len: Optional[int] = None
    for w, p, a in trie.steps():  # word w = p.a, in id order
        # whether a term of d(w) is lost; where d(p) lost one too,
        # trunc_min_len is already at most len(p)
        dropped = False
        odd = letters[a][2] % 2
        new: Dict[int, object] = {}
        for v, c in rows[p].items() if p >= 0 else ():
            u = ext(v, a)
            if u is None:
                dropped = True
            else:
                new[u] = F.neg(c) if odd else c
        for ids, c in d_ids[a]:
            u = p
            for b in ids or ():
                u = ext(u, b)
                if u is None:
                    break
            if ids is None or u is None:
                dropped = True
            else:
                vec_bump(F, new, u, c)
        k = words[w]
        if len(k[3]) != max_len:
            rows.append(new)
        if dropped and trunc_min_len is None:
            trunc_min_len = len(k[3])  # words come shortest first
        if new:
            diff[k] = {words[v] if v >= 0 else units[k[0]]: c
                       for v, c in new.items()}
    cat = DgCategory(F, GradedQuiver(objects, slots), unit, comp, diff=diff)
    return cat, trie.cut, trunc_min_len


def free_category(
    field: Field,
    generators: GradedQuiver,
    d_gen: Optional[Dict[Key, Vec]] = None,
) -> DgCategory:
    """Path category on an object-acyclic generator quiver.

    Built by ``_path_category`` on the generators: the basis is the
    composable generator words, named by their tuples of generator names,
    so names must be globally unique (the word trie refuses a cycle and
    a repeated name).  ``d_gen`` sends generator keys to word vectors
    and extends as a derivation; a word key of a value is read by its
    tuple of names, which must compose between the generator's objects.
    d^2 = 0 is the caller's obligation; ``validate`` checks.
    """
    d_letter = {}
    for k, v in (d_gen or {}).items():
        if not generators.has_key(k):
            raise ValueError(f"d_gen has an entry on {k!r}, not a generator")
        d_letter[k[3]] = [(wk[3], c) for wk, c in v.items()]
    cat, _, dropped = _path_category(
        field, generators.objects, list(generators.keys()), d_letter)
    if dropped is not None:
        raise ValueError("d_gen has a value outside the word basis")
    return cat


def _stored_products(c: DgCategory) -> List[Tuple]:
    """c's stored composable entries (i, j, g, f, g o f), with i and j the
    positions of g and f in ``c.quiver.keys()``, sorted: the order of a
    scan over g, then f."""
    pos = {k: i for i, k in enumerate(c.quiver.keys())}
    return sorted((pos[g], pos[f], g, f, v) for (g, f), v in c.comp.items()
                  if g in pos and f in pos and f[1] == g[0])


def tensor_dg(c: DgCategory, d: DgCategory) -> DgCategory:
    """C (x) D: pairwise objects, Koszul sign when a morphism crosses one.

    (g (x) g') o (f (x) f') = (-1)^{|g'| |f|} (g o f) (x) (g' o f')
    d(f (x) f') = df (x) f' + (-1)^|f| f (x) df'
    h_(x,x') = h_x (x) 1 + 1 (x) h_x'
    """
    _same_field(c, d, "tensor")
    F = c.field
    quiver = quiver_tensor(c.quiver, d.quiver)
    dkeys = list(d.quiver.keys())
    # each pair key built once: pk[k1][k2] is k1 (x) k2
    pk = {k1: {k2: pair_key(k1, k2) for k2 in dkeys} for k1 in c.quiver.keys()}

    def pair_vec(v1: Vec, v2: Vec) -> Vec:
        # distinct key pairs name distinct keys: there is nothing to sum
        return {pk[k1][k2]: F.mul(a, b)
                for k1, a in v1.items() for k2, b in v2.items()}

    unit: Dict[object, Vec] = {}
    curvature: Dict[object, Vec] = {}
    for x in c.quiver.objects:
        for xp in d.quiver.objects:
            ux, uxp = c.unit_vec(x), d.unit_vec(xp)
            unit[(x, xp)] = pair_vec(ux, uxp)
            curvature[(x, xp)] = vec_add(
                F, pair_vec(c.curvature_vec(x), uxp),
                pair_vec(ux, d.curvature_vec(xp)))

    comp: Dict[Tuple[Key, Key], Vec] = {}
    dcomp = _stored_products(d)
    for _, _, g1, f1, base in _stored_products(c):
        g, f = pk[g1], pk[f1]
        for _, _, g2, f2, base2 in dcomp:
            v = pair_vec(base, base2)
            comp[(g[g2], f[f2])] = (
                vec_neg(F, v) if (g2[2] * f1[2]) % 2 else v)

    diff: Dict[Key, Vec] = {}
    for k1, row1 in pk.items():
        d1 = c.diff.get(k1, {})
        odd = k1[2] % 2
        for k2 in dkeys:
            row = {pk[a][k2]: ca for a, ca in d1.items()}
            row.update({row1[b]: F.neg(cb) if odd else cb
                        for b, cb in d.diff.get(k2, {}).items()})
            diff[row1[k2]] = row
    return DgCategory(F, quiver, unit, comp, diff=diff, curvature=curvature)


def opposite(c: DgCategory) -> DgCategory:
    """Reverse arrows: g op f = (-1)^{|f||g|} f o g, h^op = -h, same d."""
    F = c.field

    def flip(k: Key) -> Key:
        return (k[1], k[0], k[2], k[3])

    quiver = GradedQuiver(
        c.quiver.objects,
        {(y, x, n): names for (x, y, n), names in c.quiver.slots.items()},
    )
    unit = {x: {flip(k): v for k, v in u.items()} for x, u in c.unit.items()}
    diff = {
        flip(k): {flip(k2): v for k2, v in img.items()}
        for k, img in c.diff.items()
    }
    comp = {}
    for (gk, fk), img in c.comp.items():
        sgn = F.coerce(-1) if (gk[2] * fk[2]) % 2 else F.one
        comp[(flip(fk), flip(gk))] = {
            flip(k2): F.mul(sgn, v) for k2, v in img.items()
        }
    curvature = {
        x: {flip(k): F.neg(v) for k, v in h.items()}
        for x, h in c.curvature.items()
    }
    return DgCategory(F, quiver, unit, comp, diff=diff, curvature=curvature)


# ---------------------------------------------------------------------------
# functors


class DgFunctor:
    """Strict functor: object map plus degree-0 action on basis arrows.

    ``validate`` checks the object map, the action by the slot rule
    (``quiver._slot_problems``: each key's image in the slot of its
    ends' images), F(1) = 1, F(h) = h, F(df) = d(F f) and
    F(g o f) = F(g) o F(f).
    Composition is checked from the tables: on every stored composite,
    and on every composable pair of live keys (nonzero action); on any
    other pair both sides are 0.  The cases are checked in any order and
    only the failures sorted into the order of a scan over the basis.
    """

    def __init__(
        self,
        source: DgCategory,
        target: DgCategory,
        object_map: Dict[object, object],
        action: Dict[Key, Vec],
    ):
        """Takes ownership of ``action`` and normalizes it in place."""
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.action = _normalize(action)

    def apply(self, vec: Vec) -> Vec:
        return _apply(self.target.field, self.action, vec)

    def validate(self, max_problems: int = 25) -> List[str]:
        return list(islice(self._problems(), max_problems))

    def _problems(self) -> Iterator[str]:
        src, tgt = self.source, self.target
        om = self.object_map
        bad = list(_object_map_problems(om, src.quiver.objects,
                                        tgt.quiver.objects))
        yield from bad
        if bad:
            return
        yield from _slot_problems(self.action, _key_slot(src.quiver, om),
                                  _key_slot(tgt.quiver), "action")
        for x in src.quiver.objects:
            if self.apply(src.unit.get(x, {})) != tgt.unit.get(om[x], {}):
                yield f"unit at {x!r} not preserved"
            hx = self.apply(src.curvature.get(x, {}))
            if hx != tgt.curvature.get(om[x], {}):
                yield f"curvature at {x!r} not preserved"
        pos = {f: i for i, f in enumerate(src.quiver.keys())}
        for f in pos:
            if (self.apply(src.diff.get(f, {}))
                    != tgt.apply_d(self.action.get(f, {}))):
                yield f"differential not preserved on {f}"
        # F(g o f) = F(g) o F(f) is bilinear and a missing entry is zero:
        # the left side needs (g, f) stored, the right side two live keys
        live: Dict[object, List[Key]] = {}
        for k in self.action:
            live.setdefault(k[0], []).append(k)
        pairs = set(src.comp)
        for f in self.action:
            pairs.update((g, f) for g in live.get(f[1], ()))
        act = self.action
        failed = [(pos.get(f, -1), pos.get(g, -1)) for g, f in pairs
                  if self.apply(src.comp.get((g, f), {}))
                  != tgt.compose(act.get(g, {}), act.get(f, {}))]
        for f, g in _in_scan_order(failed, pos):
            yield f"composition not preserved on ({g}, {f})"


def identity_functor(c: DgCategory) -> DgFunctor:
    return DgFunctor(
        c,
        c,
        {x: x for x in c.quiver.objects},
        {k: {k: c.field.one} for k in c.quiver.keys()},
    )


def compose_functors(g: DgFunctor, f: DgFunctor) -> DgFunctor:
    if f.target is not g.source:
        raise ValueError("f's target is not g's source")
    return DgFunctor(
        f.source,
        g.target,
        {x: g.object_map[y] for x, y in f.object_map.items()},
        {k: g.apply(v) for k, v in f.action.items()},
    )
