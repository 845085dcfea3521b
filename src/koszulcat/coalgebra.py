"""Pointed curved coalgebras over a fixed set of grouplike points.

The stored data is the *reduced* part only: a graded quiver over the
points, a reduced comultiplication, a differential on the reduced part,
and a curvature functional.  The full coalgebra is k[Ob] (+) reduced with

    Delta(x) = x (x) x
    Delta(c) = x (x) c + c (x) y + rDelta(c)      for c in slot (x, y)

so counit axioms hold by construction and everything checkable lives in
the reduced tables.  Degrees are cohomological; d has degree +1 and the
curvature h is a functional on degree -2 endomorphism slots satisfying

    d(d(c)) = (h (x) id - id (x) h) rDelta(c)        h o d = 0.

Conilpotence (iterated rDelta vanishes) is part of validation: a
grouplike hiding inside the "reduced" part would otherwise poison every
word construction built on top.  The factor graph (c -> its cofactors)
being acyclic certifies it cheaply; the cyclic case falls back to the
coradical filtration, which is also what the associated graded uses.

Morphisms are pairs (F, a): F a pointed graded coalgebra map, a a
degree-+1 functional (supported on degree -1 elements whose endpoint
objects F identifies) twisting the compatibility with d and h:

    rDelta_D(F c) = (F (x) F) rDelta_C(c)
    d_D(F c) = F(d_C c) + sum a(c')F(c'') - sum (-1)^{|c'|} F(c')a(c'')
    h_D(F c) = h_C(c) + a(d_C c) + sum a(c')a(c'')

with sums over rDelta(c) = sum c' (x) c''.  The support condition on a is
exactly what makes the grouplike terms of the full-Delta sums cancel.
These signs are forced twice over: once by closure under the composition
rule (G, b)(F, a) = (GF, bF + a) -- the cross terms of (bF + a)^2 only
cancel this way -- and once by the requirement that morphisms into a bar
coalgebra correspond to twisting cochains (the convolution-side check
lives in the bar/cobar test suite).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .field import Field, Vec, _apply, _evaluate, _normalize, vec_bump
from .matrix import SparseMatrix
from .quiver import (GradedQuiver, Key, composable_words, has_cycle, lkey,
                     pair_key, rkey)

PairVec = Dict[Tuple[Key, Key], object]


class PointedCoalgebra:
    def __init__(
        self,
        field: Field,
        objects: Iterable,
        reduced: GradedQuiver,
        comult: Dict[Key, PairVec],
        diff: Optional[Dict[Key, Vec]] = None,
        curv: Optional[Dict[Key, object]] = None,
    ):
        """Takes ownership of the table dicts and normalizes them in place
        (see ``field``); the caller edits them no further."""
        self.field = field
        self.objects = tuple(objects)
        if reduced.objects != self.objects:
            raise ValueError("reduced quiver must live on the stated objects")
        self.reduced = reduced
        self.comult = _normalize(comult)
        self.diff = _normalize({} if diff is None else diff)
        self.curv = _normalize({} if curv is None else curv)

    # -- evaluation ---------------------------------------------------------

    def is_curved(self) -> bool:
        return bool(self.curv)

    def apply_d(self, vec: Vec) -> Vec:
        return _apply(self.field, self.diff, vec)

    def curvature_value(self, vec: Vec):
        return _evaluate(self.field, self.curv, vec)

    def reduced_comult(self, vec: Vec) -> PairVec:
        return _apply(self.field, self.comult, vec)

    def deconcat(self, vec: Vec, parts: int) -> Dict[Tuple[Key, ...], object]:
        """Iterated reduced comultiplication into ``parts`` cofactors.

        parts = 1 is the identity; coassociativity (validated) makes the
        bracketing irrelevant.
        """
        F = self.field
        if parts < 1:
            raise ValueError("parts must be >= 1")
        cur: Dict[Tuple[Key, ...], object] = {(k,): c for k, c in vec.items()}
        for _ in range(parts - 1):
            nxt: Dict[Tuple[Key, ...], object] = {}
            for word, c in cur.items():
                # expand the last factor; any bracketing gives the same map
                head, last = word[:-1], word[-1]
                for (a, b), c2 in self.comult.get(last, {}).items():
                    vec_bump(F, nxt, head + (a, b), F.mul(c, c2))
            cur = nxt
        return cur

    # -- validation ---------------------------------------------------------

    def validate(self, max_problems: int = 25) -> List[str]:
        problems: List[str] = []
        F = self.field
        Q = self.reduced

        def done():
            return len(problems) >= max_problems

        # table hygiene and degree bookkeeping
        for key, pairs in self.comult.items():
            if not Q.has_key(key):
                problems.append(f"comultiplication of unknown key {key}")
                continue
            x, y, n, _ = key
            for (a, b) in pairs:
                if not Q.has_key(a) or not Q.has_key(b):
                    problems.append(f"cofactor of {key} is unknown: ({a}, {b})")
                    continue
                if a[0] != x or b[1] != y or a[1] != b[0]:
                    problems.append(f"cofactors of {key} not composable: ({a}, {b})")
                elif a[2] + b[2] != n:
                    problems.append(f"cofactors of {key} have wrong total degree")
        for key, img in self.diff.items():
            if not Q.has_key(key):
                problems.append(f"differential of unknown key {key}")
                continue
            x, y, n, _ = key
            for k2 in img:
                if (k2[0], k2[1], k2[2]) != (x, y, n + 1) or not Q.has_key(k2):
                    problems.append(f"d{key} leaves slot ({x}, {y}, {n + 1})")
        for key, c in self.curv.items():
            if not Q.has_key(key):
                problems.append(f"curvature on unknown key {key}")
                continue
            x, y, n, _ = key
            if x != y or n != -2:
                problems.append(
                    f"curvature supported outside degree -2 endomorphisms: {key}"
                )
        if done():
            return problems

        keys = list(Q.keys())

        # coassociativity of the reduced comultiplication
        for k in keys:
            delta = self.comult.get(k, {})
            lhs: Dict[Tuple[Key, ...], object] = {}
            for (a, b), c in delta.items():
                for (a1, a2), c2 in self.comult.get(a, {}).items():
                    vec_bump(F, lhs, (a1, a2, b), F.mul(c, c2))
            rhs: Dict[Tuple[Key, ...], object] = {}
            for (a, b), c in delta.items():
                for (b1, b2), c2 in self.comult.get(b, {}).items():
                    vec_bump(F, rhs, (a, b1, b2), F.mul(c, c2))
            if lhs != rhs:
                problems.append(f"reduced comultiplication not coassociative at {k}")
                if done():
                    return problems

        # conilpotence
        if not self._conilpotent():
            problems.append("reduced part is not conilpotent")

        # co-Leibniz
        for k in keys:
            lhs = self.reduced_comult(self.diff.get(k, {}))
            rhs: PairVec = {}
            for (a, b), c in self.comult.get(k, {}).items():
                for a2, c2 in self.diff.get(a, {}).items():
                    vec_bump(F, rhs, (a2, b), F.mul(c, c2))
                sgn = F.coerce(-1) if a[2] % 2 else F.one
                for b2, c2 in self.diff.get(b, {}).items():
                    vec_bump(F, rhs, (a, b2), F.mul(F.mul(sgn, c), c2))
            if lhs != rhs:
                problems.append(f"co-Leibniz fails at {k}")
                if done():
                    return problems

        # d^2 = (h (x) id - id (x) h) rDelta ; h o d = 0
        for k in keys:
            dd = self.apply_d(self.diff.get(k, {}))
            want: Vec = {}
            for (a, b), c in self.comult.get(k, {}).items():
                ha = self.curv.get(a)
                if ha is not None:
                    vec_bump(F, want, b, F.mul(c, ha))
                hb = self.curv.get(b)
                if hb is not None:
                    vec_bump(F, want, a, F.neg(F.mul(c, hb)))
            if dd != want:
                problems.append(f"d^2 does not match the curvature coaction at {k}")
                if done():
                    return problems
            hd = self.curvature_value(self.diff.get(k, {}))
            if not F.is_zero(hd):
                problems.append(f"h o d is nonzero at {k}")
                if done():
                    return problems

        return problems

    def _factor_graph_acyclic(self) -> bool:
        return not has_cycle({key: {k for pair in pairs for k in pair}
                              for key, pairs in self.comult.items()})

    def _conilpotent(self) -> bool:
        if self._factor_graph_acyclic():
            return True
        filt = self.coradical_filtration()
        return sum(len(stage) for stage in filt) == self.reduced.total_dim()

    # -- coradical filtration and associated graded -------------------------

    def coradical_filtration(self) -> List[List[Tuple[object, Vec]]]:
        """Adapted basis per stage: stage i spans F_{i+1}/F_i (F_0 = 0),
        F_1 = ker rDelta, F_{k+1} = preimage of C (x) F_k.  (The symmetric
        wedge gives the same filtration; one side is enough.)

        Returns a list of stages, each a list of (name, vector); the
        concatenation is a basis of the largest conilpotent subcoalgebra
        (all of C when conilpotent).  Stops when the filtration stalls.
        """
        F = self.field
        keys = sorted(self.reduced.keys(), key=repr)
        if not keys:
            return []
        kpos = {k: i for i, k in enumerate(keys)}

        # ambient pair coordinates: everything rDelta or F (x) C can touch
        pairs = set()
        for ps in self.comult.values():
            pairs.update(ps)

        stages: List[List[Tuple[object, Vec]]] = []
        flat: List[Vec] = []  # accumulated adapted basis
        prev_dim = -1
        while len(flat) > prev_dim:
            prev_dim = len(flat)
            # W = span(b (x) v) for v in F_k, b a basis key; generators
            # with support outside the rDelta-reachable pairs still
            # constrain correctly because the ambient includes them.
            gens: List[Dict[Tuple[Key, Key], object]] = []
            for v in flat:
                for b in keys:
                    gens.append({(b, a): c for a, c in v.items()})
            ambient = set(pairs)
            for g in gens:
                ambient.update(g)
            arow = {p: i for i, p in enumerate(sorted(ambient, key=repr))}
            ncols = len(keys) + len(gens)
            entries = {}
            for k in keys:
                for p, c in self.comult.get(k, {}).items():
                    entries[(arow[p], kpos[k])] = c
            for j, g in enumerate(gens):
                for p, c in g.items():
                    entries[(arow[p], len(keys) + j)] = F.neg(c)
            big = SparseMatrix(F, len(arow), ncols, entries)
            stage_vecs: List[Vec] = []
            for kv in big.kernel_basis():
                v: Vec = {}
                for j, c in kv.items():
                    if j < len(keys):
                        vec_bump(F, v, keys[j], c)
                if v:
                    stage_vecs.append(v)
            # reduce stage_vecs modulo flat to get the new stage
            new_stage = _complement_basis(F, keys, flat, stage_vecs)
            if not new_stage:
                break
            stages.append(
                [(f"f{len(stages)}_{i}", v) for i, v in enumerate(new_stage)]
            )
            flat.extend(new_stage)
        return stages


def _complement_basis(
    field: Field, keys: List[Key], have: List[Vec], new: List[Vec]
) -> List[Vec]:
    """Extend span(have) by vectors from new; returns the added ones,
    reduced against everything already present."""
    kpos = {k: i for i, k in enumerate(keys)}
    rows: List[Vec] = []
    added: List[Vec] = []

    def reduce(v: Vec) -> Vec:
        v = dict(v)
        for r in rows:
            # r's leading coordinate
            lead = min(kpos[k] for k in r)
            lk = keys[lead]
            if lk in v:
                f = field.div(v[lk], r[lk])
                for k2, c2 in r.items():
                    vec_bump(field, v, k2, field.neg(field.mul(f, c2)))
        return v

    def insert(v: Vec, record: bool):
        v = reduce(v)
        if not v:
            return
        rows.append(v)
        rows.sort(key=lambda r: min(kpos[k] for k in r))
        if record:
            added.append(v)

    for v in have:
        insert(v, record=False)
    for v in new:
        insert(v, record=True)
    return added


def associated_graded(c: PointedCoalgebra) -> PointedCoalgebra:
    """Associated graded along the coradical filtration, on an adapted
    basis.  Comultiplication keeps only the weight-additive part (stage
    k -> stages i + j = k) and d the stage-preserving part.  The result
    carries *no* curvature: h eats at least one filtration weight, so
    its induced component on gr vanishes -- which is exactly why d_gr
    squares to zero even when c is curved.
    """
    F = c.field
    stages = c.coradical_filtration()
    if sum(len(s) for s in stages) != c.reduced.total_dim():
        raise ValueError("associated graded needs a conilpotent coalgebra")

    # new basis: key -> (stage, name, vector); express old vectors in it
    slots: Dict[tuple, List] = {}
    new_keys: List[Tuple[Key, int, Vec]] = []
    for si, stage in enumerate(stages):
        for name, v in stage:
            k0 = next(iter(v))
            slot = (k0[0], k0[1], k0[2])
            nm = (si, name)
            slots.setdefault(slot, []).append(nm)
            new_keys.append(((slot[0], slot[1], slot[2], nm), si, v))
    quiver = GradedQuiver(c.objects, {s: tuple(v) for s, v in slots.items()})

    keys = sorted(c.reduced.keys(), key=repr)
    kpos = {k: i for i, k in enumerate(keys)}
    cols = {}
    for j, (nk, _si, v) in enumerate(new_keys):
        for k, cc in v.items():
            cols[(kpos[k], j)] = cc
    base = SparseMatrix(F, len(keys), len(new_keys), cols)

    def to_new(vec: Vec) -> Optional[Vec]:
        rhs = {kpos[k]: cc for k, cc in vec.items()}
        sol = base.solve(rhs)
        if sol is None:
            return None
        return {new_keys[j][0]: cc for j, cc in sol.items()}

    stage_of = {nk: si for (nk, si, _v) in new_keys}

    comult: Dict[Key, PairVec] = {}
    diff: Dict[Key, Vec] = {}
    for nk, si, v in new_keys:
        dm = c.reduced_comult(v)
        pv: PairVec = {}
        for (a, b), cc in dm.items():
            na = to_new({a: F.one})
            nb = to_new({b: F.one})
            for ka, ca in na.items():
                for kb, cb in nb.items():
                    if stage_of[ka] + stage_of[kb] + 2 == si + 1:
                        # stages are 0-indexed; filtration degrees are +1
                        vec_bump(F, pv, (ka, kb), F.mul(cc, F.mul(ca, cb)))
        if pv:
            comult[nk] = pv
        dv = to_new(c.apply_d(v))
        dv = {k2: cc for k2, cc in dv.items() if stage_of[k2] == si}
        if dv:
            diff[nk] = dv
    return PointedCoalgebra(F, c.objects, quiver, comult, diff=diff)


# ---------------------------------------------------------------------------
# stock constructions


class FinalCoalgebra:
    """Formal final object of the pointed coalgebra category.

    Not a vector-space-level coalgebra: it exists so that the zero
    category (objects with zero units, hence no unit complement to
    generate letters from) has a bar construction, and its cobar is the
    zero category again.  Every coalgebra admits exactly one morphism to
    it, which is what hom-counting code special-cases.
    """

    def __init__(self, field: Field):
        self.field = field

    def is_curved(self) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, FinalCoalgebra) and other.field == self.field

    def __hash__(self) -> int:
        return hash(("FinalCoalgebra", self.field.char))

    def __repr__(self) -> str:
        return "FinalCoalgebra(*)"


def zero_coalgebra(field: Field) -> PointedCoalgebra:
    return PointedCoalgebra(field, (), GradedQuiver((), {}), {})


def point_coalgebra(field: Field, name="pt") -> PointedCoalgebra:
    """k[pt]: one grouplike, nothing else (the terminal object)."""
    return PointedCoalgebra(field, (name,), GradedQuiver((name,), {}), {})


def tensor_coalgebras(
    c: PointedCoalgebra, d: PointedCoalgebra
) -> PointedCoalgebra:
    """C (x) D on pairwise points; the reduced part has three blocks
    (g (x) red, red (x) g, red (x) red) and the comultiplication carries
    the Koszul sign (-1)^{|d'| |c''|} for Delta(c (x) d) = sum
    (c' (x) d') (x) (c'' (x) d'').
    """
    F = c.field
    objects = [(x, y) for x in c.objects for y in d.objects]

    slots: Dict[tuple, List] = {}

    def reg(key: Key):
        slots.setdefault((key[0], key[1], key[2]), []).append(key[3])

    ckeys = list(c.reduced.keys())
    dkeys = list(d.reduced.keys())
    for ck in ckeys:
        for y in d.objects:
            reg(lkey(ck, y))
    for x in c.objects:
        for dk in dkeys:
            reg(rkey(x, dk))
    for ck in ckeys:
        for dk in dkeys:
            reg(pair_key(ck, dk))
    quiver = GradedQuiver(objects, {s: tuple(v) for s, v in slots.items()})

    def is_g(f) -> bool:
        # a grouplike leg ("G", x) next to the reduced keys of C and D
        return len(f) == 2 and f[0] == "G"

    # full Delta on a leg: g (x) g for a grouplike, else the grouplike
    # ends plus the reduced middle
    def full_delta(coa: PointedCoalgebra, f):
        if is_g(f):
            return [(f, f, F.one)]
        x, y, _, _ = f
        return [(("G", x), f, F.one), (f, ("G", y), F.one)] + [
            (a, b, cc) for (a, b), cc in coa.comult.get(f, {}).items()]

    def pair_or_none(cf, df) -> Optional[Key]:
        # cf: reduced key of C or ("G", x); df likewise for D
        if is_g(cf) and is_g(df):
            return None  # grouplike (x) grouplike drops out of the reduced part
        if is_g(cf):
            return rkey(cf[1], df)
        if is_g(df):
            return lkey(cf, df[1])
        return pair_key(cf, df)

    def deg(f) -> int:
        return 0 if is_g(f) else f[2]

    comult: Dict[Key, PairVec] = {}
    diff: Dict[Key, Vec] = {}
    curv: Dict[Key, object] = {}

    def install(ck, dk, key: Key):
        pv: PairVec = {}
        for (c1, c2, cc) in full_delta(c, ck):
            for (d1, d2, dd) in full_delta(d, dk):
                left = pair_or_none(c1, d1)
                right = pair_or_none(c2, d2)
                if left is None or right is None:
                    continue  # a grouplike (x) grouplike leg: primitive part
                sgn = F.coerce(-1) if (deg(d1) * deg(c2)) % 2 else F.one
                vec_bump(F, pv, (left, right), F.mul(sgn, F.mul(cc, dd)))
        if pv:
            comult[key] = pv
        # differential: d (x) 1 + (-1)^{|c|} 1 (x) d
        dv: Vec = {}
        if not is_g(ck):
            for k2, cc in c.diff.get(ck, {}).items():
                k3 = pair_or_none(k2, dk)
                vec_bump(F, dv, k3, cc)
        if not is_g(dk):
            sgn = F.coerce(-1) if deg(ck) % 2 else F.one
            for k2, cc in d.diff.get(dk, {}).items():
                k3 = pair_or_none(ck, k2)
                vec_bump(F, dv, k3, F.mul(sgn, cc))
        if dv:
            diff[key] = dv
        # curvature: h (x) eps + eps (x) h: only one leg can be reduced
        if is_g(dk) and not is_g(ck):
            hv = c.curv.get(ck)
            if hv is not None:
                curv[key] = hv
        if is_g(ck) and not is_g(dk):
            hv = d.curv.get(dk)
            if hv is not None:
                curv[key] = hv
        return key

    for ck in ckeys:
        for y in d.objects:
            install(ck, ("G", y), lkey(ck, y))
    for x in c.objects:
        for dk in dkeys:
            install(("G", x), dk, rkey(x, dk))
    for ck in ckeys:
        for dk in dkeys:
            install(ck, dk, pair_key(ck, dk))

    return PointedCoalgebra(F, objects, quiver, comult, diff=diff, curv=curv)


def cotensor_coalgebra(
    field: Field,
    generators: GradedQuiver,
    max_weight: Optional[int] = None,
) -> PointedCoalgebra:
    """Deconcatenation coalgebra on composable generator words.

    Words are tuples of generator keys, composable end to end; rDelta
    splits a word at interior positions.  With a weight cap the span of
    words of length <= max_weight is a subcoalgebra, so the cap loses
    nothing structurally.  Without a cap the generator graph must be
    acyclic (else the word basis is infinite).
    """
    if max_weight is not None and max_weight < 0:
        raise ValueError(f"max_weight={max_weight} is negative; "
                         "pass max_weight=0 or more")
    if max_weight is None:
        succ: Dict[object, set] = {x: set() for x in generators.objects}
        for (x, y, _n) in generators.slots:
            succ[x].add(y)
        if has_cycle(succ):
            raise ValueError("cyclic generator graph needs a weight cap")

    gen_keys = list(generators.keys())
    names = [k[3] for k in gen_keys]
    if len(set(names)) != len(names):
        raise ValueError("cotensor generators need globally unique names")
    quiver, comult, _ = _deconcatenation(
        field, generators.objects, gen_keys, max_weight)
    return PointedCoalgebra(field, generators.objects, quiver, comult)


def _deconcatenation(field: Field, objects: Sequence, letters: Sequence[Key],
                     max_len: Optional[int]):
    """Composable words of at most ``max_len`` letters (src, tgt, degree,
    name), shortest first, keyed (src, tgt, degree sum, tuple of names).
    Letter names must tell letters apart.  Returns their quiver, rDelta (a
    split at each interior position) and ``key_of``, names -> word key in
    word order.

    Each word has one key object, and the cofactors of rDelta are the word
    keys themselves: the prefixes of w are those of w[:-1] and w[:-1], the
    suffixes of w are w[1:] and the suffixes of w[1:].
    """
    slots: Dict[tuple, List] = {}
    comult: Dict[Key, PairVec] = {}
    key_of: Dict[tuple, Key] = {}
    for w in composable_words(letters, max_len):
        names = tuple(a[3] for a in w)
        if len(w) == 1:
            key = w[0][:3] + (names,)
        else:
            head, tail = key_of[names[:-1]], key_of[names[1:]]
            key = (head[0], tail[1], head[2] + w[-1][2], names)
            comult[key] = dict.fromkeys(zip(
                [p for p, _ in comult.get(head, ())] + [head],
                [tail] + [s for _, s in comult.get(tail, ())]), field.one)
        slots.setdefault(key[:3], []).append(names)
        key_of[names] = key
    quiver = GradedQuiver(objects, {s: tuple(v) for s, v in slots.items()})
    return quiver, comult, key_of


# ---------------------------------------------------------------------------
# morphisms


class CoalgebraMorphism:
    """(F, a): pointed coalgebra map plus MC twist functional."""

    def __init__(
        self,
        source: PointedCoalgebra,
        target: PointedCoalgebra,
        object_map: Dict[object, object],
        action: Dict[Key, Vec],
        twist: Optional[Dict[Key, object]] = None,
    ):
        """Takes ownership of ``action`` and ``twist`` and normalizes them
        in place."""
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.action = _normalize(action)
        self.twist = _normalize({} if twist is None else twist)

    def apply(self, vec: Vec) -> Vec:
        return _apply(self.target.field, self.action, vec)

    def twist_value(self, vec: Vec):
        return _evaluate(self.source.field, self.twist, vec)

    def validate(self, max_problems: int = 25) -> List[str]:
        problems: List[str] = []
        src, tgt = self.source, self.target
        F = src.field
        om = self.object_map
        for x in src.objects:
            if om.get(x) not in tgt.objects:
                problems.append(f"object {x!r} has no valid image")
        if problems:
            return problems
        for k, img in self.action.items():
            if not src.reduced.has_key(k):
                problems.append(f"action on unknown key {k}")
                continue
            x, y, n, _ = k
            for k2 in img:
                if (k2[0], k2[1], k2[2]) != (om[x], om[y], n) or not tgt.reduced.has_key(k2):
                    problems.append(f"image of {k} leaves its slot")
        for k, c in self.twist.items():
            if not src.reduced.has_key(k):
                problems.append(f"twist on unknown key {k}")
                continue
            x, y, n, _ = k
            if n != -1:
                problems.append(f"twist supported off degree -1: {k}")
            if om[x] != om[y]:
                problems.append(f"twist at {k} where F separates the endpoints")
        if len(problems) >= max_problems:
            return problems

        act, twist = self.action, self.twist
        for k in src.reduced.keys():
            delta = src.comult.get(k, {})
            # comultiplicativity
            lhs = tgt.reduced_comult(act.get(k, {}))
            rhs: PairVec = {}
            for (a, b), c in delta.items():
                for ka, ca in act.get(a, {}).items():
                    for kb, cb in act.get(b, {}).items():
                        vec_bump(F, rhs, (ka, kb), F.mul(c, F.mul(ca, cb)))
            if lhs != rhs:
                problems.append(f"comultiplication not respected at {k}")
                if len(problems) >= max_problems:
                    return problems
            # differential with twist
            left = tgt.apply_d(act.get(k, {}))
            right = self.apply(src.diff.get(k, {}))
            for (a, b), c in delta.items():
                ta = twist.get(a, F.zero)
                if not F.is_zero(ta):
                    for kb, cb in act.get(b, {}).items():
                        vec_bump(F, right, kb, F.mul(c, F.mul(ta, cb)))
                tb = twist.get(b, F.zero)
                if not F.is_zero(tb):
                    sgn = F.one if a[2] % 2 else F.coerce(-1)
                    for ka, ca in act.get(a, {}).items():
                        vec_bump(
                            F, right, ka, F.mul(sgn, F.mul(c, F.mul(ca, tb)))
                        )
            if left != right:
                problems.append(f"differential not respected at {k}")
                if len(problems) >= max_problems:
                    return problems
            # curvature with twist
            hl = tgt.curvature_value(act.get(k, {}))
            hr = F.add(src.curv.get(k, F.zero),
                       self.twist_value(src.diff.get(k, {})))
            for (a, b), c in delta.items():
                q = F.mul(twist.get(a, F.zero), twist.get(b, F.zero))
                hr = F.add(hr, F.mul(c, q))
            if hl != hr:
                problems.append(f"curvature not respected at {k}")
                if len(problems) >= max_problems:
                    return problems
        return problems

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoalgebraMorphism)
            and self.object_map == other.object_map
            and self.action == other.action
            and self.twist == other.twist
        )

    def __repr__(self) -> str:
        t = "twisted" if self.twist else "strict"
        return f"CoalgebraMorphism({t}, {len(self.action)} action entries)"


def identity_morphism(c: PointedCoalgebra) -> CoalgebraMorphism:
    return CoalgebraMorphism(
        c,
        c,
        {x: x for x in c.objects},
        {k: {k: c.field.one} for k in c.reduced.keys()},
    )


def compose_morphisms(
    g: CoalgebraMorphism, f: CoalgebraMorphism
) -> CoalgebraMorphism:
    """(G, b) o (F, a) = (G o F, b o F + a)."""
    if f.target is not g.source:
        raise ValueError("morphisms not composable")
    F = f.source.field
    action = {k: g.apply(v) for k, v in f.action.items()}
    twist: Dict[Key, object] = {}
    for k in f.source.reduced.keys():
        val = F.add(f.twist.get(k, F.zero),
                    g.twist_value(f.action.get(k, {})))
        if not F.is_zero(val):
            twist[k] = val
    return CoalgebraMorphism(
        f.source,
        g.target,
        {x: g.object_map[y] for x, y in f.object_map.items()},
        action,
        twist,
    )
