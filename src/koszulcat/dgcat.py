"""Dg categories with finitely many objects and finite-dimensional homs.

A category is a graded quiver plus structure tables: a unit vector per
object, a sparse composition table on basis arrows, a differential of
degree +1, and optionally a curvature endomorphism of degree 2 per object.
Missing table entries mean zero; every stored vector must land in the slot
its degrees dictate, and ``validate`` re-derives all axioms from the
stored tables:

    1_y o f = f = f o 1_x            d(1_x) = 0
    (h o g) o f = h o (g o f)        d(g o f) = dg o f + (-1)^|g| g o df
    d(d(f)) = h_y o f - f o h_x      h_x in degree 2, d(h_x) = 0

Each identity is linear in every argument and a missing entry is zero, so
a case that no stored entry feeds reads 0 = 0; ``validate`` checks the
other cases only.

The uncurved case is h = 0.  A zero unit vector is rejected except in the
one-object category with no morphisms at all (0 = 1 forces everything to
vanish, so that is the only model).

Composition is written ``compose(g, f)`` = "g after f" throughout; no
Koszul sign lives here.  Signs enter in ``tensor_dg`` (interchanging a
morphism past a morphism) and ``opposite`` (reversal).

Path categories have one builder, ``_path_category``: words of letters,
composition by splitting each stored word, and the letter differential
extended as a derivation.  ``free_category`` calls it on a generator
quiver and ``barcobar.cobar_construction`` on the shifted reduced part of
a coalgebra, under its length and weight caps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .complexes import BoundedComplex
from .field import (Field, Vec, _apply, _compose, _normalize, vec_add, vec_bump,
                    vec_scale, vec_sub)
from .matrix import SparseMatrix
from .quiver import (GradedQuiver, Key, Word, composable_words, has_cycle,
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

    def _vec_ok(self, vec: Vec, slot, problems: List[str], what: str) -> None:
        for k in vec:
            if (k[0], k[1], k[2]) != slot or not self.quiver.has_key(k):
                problems.append(f"{what}: component {k} outside slot {slot}")

    def validate(self, max_problems: int = 25) -> List[str]:
        problems: List[str] = []
        F = self.field
        Q = self.quiver

        def done():
            return len(problems) >= max_problems

        # units exist, sit in degree-0 endo slots, are closed
        for x in Q.objects:
            u = self.unit.get(x, {})
            if not u:
                if Q.total_dim() > 0:
                    problems.append(
                        f"unit at {x!r} is zero in a nonzero category"
                    )
                continue
            self._vec_ok(u, (x, x, 0), problems, f"unit at {x!r}")
            if self.apply_d(u):
                problems.append(f"unit at {x!r} is not closed")
        if done():
            return problems

        # table hygiene: domains exist, images land in forced slots
        for key, img in self.diff.items():
            if not Q.has_key(key):
                problems.append(f"differential of unknown key {key}")
                continue
            x, y, n, _ = key
            self._vec_ok(img, (x, y, n + 1), problems, f"d{key}")
        for (gk, fk), img in self.comp.items():
            if not Q.has_key(gk) or not Q.has_key(fk):
                problems.append(f"composition entry on unknown keys {gk}, {fk}")
                continue
            fx, fy, fn, _ = fk
            gx, gy, gn, _ = gk
            if fy != gx:
                problems.append(f"composition of non-composable pair {gk} o {fk}")
                continue
            self._vec_ok(img, (fx, gy, fn + gn), problems, f"{gk} o {fk}")
        for x, h in self.curvature.items():
            if x not in Q.objects:
                problems.append(f"curvature at unknown object {x!r}")
                continue
            self._vec_ok(h, (x, x, 2), problems, f"curvature at {x!r}")
            if self.apply_d(h):
                problems.append(f"curvature at {x!r} is not closed")
        if done():
            return problems

        keys = list(Q.keys())

        # unit laws
        for k in keys:
            x, y, _, _ = k
            v = self.basis_vec(k)
            if self.compose(self.unit.get(y, {}), v) != v:
                problems.append(f"1 o {k} != {k}")
            if self.compose(v, self.unit.get(x, {})) != v:
                problems.append(f"{k} o 1 != {k}")
            if done():
                return problems

        if self._composition_problems(problems, max_problems):
            return problems

        # d^2 = [h, -]
        for f in keys:
            x, y, _, _ = f
            fv = self.basis_vec(f)
            dd = self.apply_d(self.diff.get(f, {}))
            want = vec_sub(F, self.compose(self.curvature.get(y, {}), fv),
                           self.compose(fv, self.curvature.get(x, {})))
            if dd != want:
                problems.append(f"d^2 on {f} does not match curvature bracket")
                if done():
                    return problems

        return problems

    def _composition_problems(self, problems: List[str],
                              max_problems: int) -> bool:
        """Append associativity, then Leibniz failures to ``problems``;
        True once they reach ``max_problems``.

        Only the cases some stored entry feeds are visited (see the module
        docstring), in the order of a scan over the basis.  Neither pass
        reads a unit, so the unitless reduced convolution uses them too.
        """
        F = self.field
        pos = {k: i for i, k in enumerate(self.quiver.keys())}
        before: Dict[Key, List[Key]] = {}  # k -> every f with (k, f) stored
        after: Dict[Key, List[Key]] = {}  # k -> every h with (h, k) stored
        for h, k in self.comp:
            after.setdefault(k, []).append(h)
            before.setdefault(h, []).append(k)

        # h o (b o a) needs (h, k) stored for a term k of b o a, and
        # (b o a) o f needs (k, f) stored for a term k of b o a
        triples = set()
        for (b, a), ba in self.comp.items():
            for k in ba:
                triples.update((a, b, h) for h in after.get(k, ()))
                triples.update((f, a, b) for f in before.get(k, ()))
        for f, g, h in _in_scan_order(triples, pos):
            hv, fv = self.basis_vec(h), self.basis_vec(f)
            lhs = self.compose(hv, self.comp.get((g, f), {}))
            rhs = self.compose(self.comp.get((h, g), {}), fv)
            if lhs != rhs:
                problems.append(f"associativity fails on ({h}, {g}, {f})")
                if len(problems) >= max_problems:
                    return True

        # d(g o f) needs (g, f) stored, dg o f needs (k, f) stored for a
        # term k of dg, and g o df needs (g, k) stored for a term k of df
        pairs = {(f, g) for g, f in self.comp}
        for a, da in self.diff.items():
            for k in da:
                pairs.update((f, a) for f in before.get(k, ()))
                pairs.update((a, g) for g in after.get(k, ()))
        for f, g in _in_scan_order(pairs, pos):
            fv, gv = self.basis_vec(f), self.basis_vec(g)
            lhs = self.apply_d(self.comp.get((g, f), {}))
            rhs = vec_add(F, self.compose(self.diff.get(g, {}), fv),
                          vec_scale(F, F.coerce(-1) if g[2] % 2 else F.one,
                                    self.compose(gv, self.diff.get(f, {}))))
            if lhs != rhs:
                problems.append(f"Leibniz fails on ({g}, {f})")
                if len(problems) >= max_problems:
                    return True
        return False

    # -- hom complexes ------------------------------------------------------

    def hom_complex(self, x, y, lo: int, hi: int) -> BoundedComplex:
        """Hom(x, y) as a complex on [lo, hi]; refuses if d^2 != 0 there."""
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
        cx = BoundedComplex(F, dims, diffs, labels=labels)
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


def _in_scan_order(cases, pos: Dict[Key, int]) -> List[tuple]:
    """The cases (f, g[, h]) on known keys, each composable with the next.

    Sorted by key position, f first: the order of nested loops over the
    basis, so a validator that visits only some cases reports its
    failures in the order of a full scan.  Entries on unknown keys or
    non-composable pairs are left to the table hygiene checks.
    """
    return sorted(
        (c for c in cases if all(k in pos for k in c)
         and all(a[1] == b[0] for a, b in zip(c, c[1:]))),
        key=lambda c: tuple(pos[k] for k in c))


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
    d_letter: Mapping[Key, Sequence[Tuple[Word, object]]],
    keep: Optional[Callable[[Word], bool]] = None,
) -> Tuple[DgCategory, bool, Optional[int]]:
    """Path category on ``letters``, with the words ``keep`` admits.

    Basis: the empty word at each object (its unit) and every composable
    word (a_1, ..., a_n), a_1 applied first, keyed (src, tgt, sum of
    letter degrees, tuple of letter names).  ``keep`` must hold on every
    subword of a word it holds on, as length and weight caps do.  Words
    compose by concatenation, so the table holds one entry per split of
    each stored word.  ``d_letter`` sends a letter to its (replacement
    word, coefficient) terms; d extends it as a derivation

        d(a_1 .. a_n) = sum_i (-1)^{|a_{i+1}| + .. + |a_n|} a_1 .. d(a_i) .. a_n

    matching d(g o f) = dg o f + (-1)^|g| g o df, and drops every term
    whose word is not stored.

    Returns the category, whether a composite of stored words was
    dropped, and the shortest word whose differential dropped a term
    (None if none did).  Because ``keep`` is closed under subwords, a
    composite is dropped exactly when some stored word extended by a
    composable stored letter fails ``keep``.
    """
    F = field
    words = composable_words(letters, None, keep)
    slots: Dict[Tuple[object, object, int], List] = {
        (x, x, 0): [()] for x in objects}
    key_of: Dict[Word, Key] = {}
    for w in words:
        k = (w[0][0], w[-1][1], sum(a[2] for a in w), tuple(a[3] for a in w))
        key_of[w] = k
        slots.setdefault(k[:3], []).append(k[3])

    def key(w: Word, at) -> Key:
        return key_of[w] if w else (at, at, 0, ())

    unit: Dict[object, Vec] = {}
    comp: Dict[Tuple[Key, Key], Vec] = {}
    for x in objects:
        u = key((), x)
        unit[x] = {u: F.one}
        comp[(u, u)] = {u: F.one}
    for w, k in key_of.items():
        for i in range(len(w) + 1):
            at = w[i - 1][1] if i else w[0][0]
            # comp[(g, f)] = g after f: f = w[:i] runs first
            comp[(key(w[i:], at), key(w[:i], at))] = {k: F.one}
    comp_truncated = False
    if keep is not None:
        by_src: Dict[object, List[Key]] = {}
        for w in words:
            if len(w) == 1:
                by_src.setdefault(w[0][0], []).append(w[0])
        # the longest words are the likeliest to hit the cap
        comp_truncated = any(not keep(w + (a,)) for w in reversed(words)
                             for a in by_src.get(w[-1][1], ()))

    diff: Dict[Key, Vec] = {}
    trunc_min_len: Optional[int] = None
    minus_one = F.coerce(-1)
    for w, k in key_of.items():
        out: Vec = {}
        dropped = False
        tail = k[2]  # degree of the letters after position i
        for i, a in enumerate(w):
            tail -= a[2]
            sign = minus_one if tail % 2 else F.one
            for repl, c in d_letter.get(a, ()):
                new = w[:i] + repl + w[i + 1:]
                nk = key_of.get(new) if new else key(new, w[0][0])
                if nk is None:
                    dropped = True
                    continue
                vec_bump(F, out, nk, F.mul(sign, c))
        if dropped and trunc_min_len is None:
            trunc_min_len = len(w)  # words come shortest first
        if out:
            diff[k] = out
    cat = DgCategory(F, GradedQuiver(objects, slots), unit, comp, diff=diff)
    return cat, comp_truncated, trunc_min_len


def free_category(
    field: Field,
    generators: GradedQuiver,
    d_gen: Optional[Dict[Key, Vec]] = None,
) -> DgCategory:
    """Path category on an object-acyclic generator quiver.

    Built by ``_path_category`` on the generators: the basis is the
    composable generator words, named by their tuples of generator names,
    so names must be globally unique.  ``d_gen`` sends generator keys to
    word vectors and extends as a derivation.  d^2 = 0 is the caller's
    obligation; ``validate`` checks.
    """
    by_name = {k[3]: k for k in generators.keys()}
    if len(by_name) != generators.total_dim():
        raise ValueError("free_category needs globally unique generator names")

    # object-level acyclicity so the word basis is finite
    succ: Dict[object, set] = {x: set() for x in generators.objects}
    for x, y, _ in generators.slots:
        if x == y:
            raise ValueError(f"generator loop at {x!r}: word basis is infinite")
        succ[x].add(y)
    if has_cycle(succ):
        raise ValueError("generator quiver has a directed cycle")

    d_letter = {
        k: [(tuple(by_name[a] for a in wk[3]), c) for wk, c in v.items()]
        for k, v in (d_gen or {}).items()
    }
    cat, _, dropped = _path_category(
        field, generators.objects, list(generators.keys()), d_letter)
    if dropped is not None:
        raise ValueError("d_gen has a value outside the word basis")
    return cat


def tensor_dg(c: DgCategory, d: DgCategory) -> DgCategory:
    """C (x) D: pairwise objects, Koszul sign when a morphism crosses one.

    (g (x) g') o (f (x) f') = (-1)^{|g'| |f|} (g o f) (x) (g' o f')
    d(f (x) f') = df (x) f' + (-1)^|f| f (x) df'
    h_(x,x') = h_x (x) 1 + 1 (x) h_x'
    """
    if c.field is not d.field:
        raise ValueError("tensor needs a common ground field")
    F = c.field
    quiver = quiver_tensor(c.quiver, d.quiver)

    def pair_vec(v1: Vec, v2: Vec, sign=None) -> Vec:
        out: Vec = {}
        for k1, a in v1.items():
            for k2, b in v2.items():
                coeff = F.mul(a, b)
                if sign is not None:
                    coeff = F.mul(coeff, sign(k1, k2))
                vec_bump(F, out, pair_key(k1, k2), coeff)
        return out

    unit = {}
    for x in c.quiver.objects:
        for xp in d.quiver.objects:
            unit[(x, xp)] = pair_vec(c.unit_vec(x), d.unit_vec(xp))

    comp: Dict[Tuple[Key, Key], Vec] = {}
    ckeys = list(c.quiver.keys())
    dkeys = list(d.quiver.keys())
    for g1 in ckeys:
        for f1 in ckeys:
            if f1[1] != g1[0]:
                continue
            base = c.comp.get((g1, f1))
            if not base:
                continue
            for g2 in dkeys:
                for f2 in dkeys:
                    if f2[1] != g2[0]:
                        continue
                    base2 = d.comp.get((g2, f2))
                    if not base2:
                        continue
                    sgn = F.coerce(-1) if (g2[2] * f1[2]) % 2 else F.one
                    comp[(pair_key(g1, g2), pair_key(f1, f2))] = vec_scale(
                        F, sgn, pair_vec(base, base2)
                    )

    diff: Dict[Key, Vec] = {}
    for k1 in ckeys:
        d1 = c.diff.get(k1, {})
        for k2 in dkeys:
            d2 = d.diff.get(k2, {})
            out: Vec = {}
            for kk, cc in pair_vec(d1, {k2: F.one}).items():
                vec_bump(F, out, kk, cc)
            sgn = F.coerce(-1) if k1[2] % 2 else F.one
            for kk, cc in pair_vec({k1: F.one}, d2).items():
                vec_bump(F, out, kk, F.mul(sgn, cc))
            if out:
                diff[pair_key(k1, k2)] = out

    curvature: Dict[object, Vec] = {}
    for x in c.quiver.objects:
        for xp in d.quiver.objects:
            h = vec_add(
                F,
                pair_vec(c.curvature_vec(x), d.unit_vec(xp)),
                pair_vec(c.unit_vec(x), d.curvature_vec(xp)),
            )
            if h:
                curvature[(x, xp)] = h
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

    ``validate`` checks slot discipline, F(1) = 1, F(g o f) = F(g) o F(f),
    F(df) = d(F f), and F-image of curvature equals target curvature.
    Composition is checked from the tables: on every stored composite,
    and on every composable pair of live keys (nonzero action); on any
    other pair both sides are 0.
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
        problems: List[str] = []
        src, tgt = self.source, self.target
        om = self.object_map
        for x in src.quiver.objects:
            if om.get(x) not in tgt.quiver.objects:
                problems.append(f"object {x!r} has no valid image")
        if problems:
            return problems
        for k, img in self.action.items():
            if not src.quiver.has_key(k):
                problems.append(f"action on unknown key {k}")
                continue
            x, y, n, _ = k
            for k2 in img:
                if (k2[0], k2[1], k2[2]) != (om[x], om[y], n) or not tgt.quiver.has_key(k2):
                    problems.append(f"image of {k} leaves its slot")
        for x in src.quiver.objects:
            if self.apply(src.unit.get(x, {})) != tgt.unit.get(om[x], {}):
                problems.append(f"unit at {x!r} not preserved")
            hx = self.apply(src.curvature.get(x, {}))
            if hx != tgt.curvature.get(om[x], {}):
                problems.append(f"curvature at {x!r} not preserved")
        keys = list(src.quiver.keys())
        for f in keys:
            if (self.apply(src.diff.get(f, {}))
                    != tgt.apply_d(self.action.get(f, {}))):
                problems.append(f"differential not preserved on {f}")
            if len(problems) >= max_problems:
                return problems
        # F(g o f) = F(g) o F(f) is bilinear and a missing entry is zero:
        # the left side needs (g, f) stored, the right side two live keys
        live: Dict[object, List[Key]] = {}
        for k in self.action:
            live.setdefault(k[0], []).append(k)
        pairs = {(f, g) for g, f in src.comp}
        for f in self.action:
            pairs.update((f, g) for g in live.get(f[1], ()))
        pos = {k: i for i, k in enumerate(keys)}
        for f, g in _in_scan_order(pairs, pos):
            lhs = self.apply(src.comp.get((g, f), {}))
            rhs = tgt.compose(self.action.get(g, {}), self.action.get(f, {}))
            if lhs != rhs:
                problems.append(f"composition not preserved on ({g}, {f})")
                if len(problems) >= max_problems:
                    return problems
        return problems


def identity_functor(c: DgCategory) -> DgFunctor:
    return DgFunctor(
        c,
        c,
        {x: x for x in c.quiver.objects},
        {k: {k: c.field.one} for k in c.quiver.keys()},
    )


def compose_functors(g: DgFunctor, f: DgFunctor) -> DgFunctor:
    if f.target is not g.source:
        raise ValueError("functors not composable")
    return DgFunctor(
        f.source,
        g.target,
        {x: g.object_map[y] for x, y in f.object_map.items()},
        {k: g.apply(v) for k, v in f.action.items()},
    )
