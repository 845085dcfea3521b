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
coradical filtration, which is also what the associated graded uses:
F_1 = ker rDelta and F_{k+1} = ker((id (x) pi_k) rDelta), pi_k the
residue modulo F_k, which equals rDelta^{-1}(C (x) F_k).  Each stage is
one kernel with one column per basis key.

Every identity checked here is (T (x) id) rDelta or (id (x) T) rDelta
for a table T, and goes through ``field._on_leg``, as do the
filtration's columns and gr's coordinates.  ``deconcat`` keeps its own
loop: it splits a key into any number of parts as flat tuples, for the
morphism search, where repeated legs would nest pairs.

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

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .field import (Field, Vec, _apply, _evaluate, _normalize, _on_leg,
                    _same_field, vec_bump)
from .matrix import _coordinates, _rref_rows, _solution_space
from .quiver import (GradedQuiver, Key, WordMap, WordQuiver, Words,
                     _key_slot, _object_map_problems, _pair_slot,
                     _slot_problems, has_cycle, lkey, pair_key, rkey)

PairVec = Dict[Tuple[Key, Key], object]


class PointedCoalgebra:
    def __init__(
        self,
        field: Field,
        objects: Iterable,
        reduced: GradedQuiver,
        comult: Dict[Key, PairVec] | Words,
        diff: Optional[Dict[Key, Vec] | WordMap] = None,
        curv: Optional[Dict[Key, object]] = None,
    ):
        """Takes ownership of the table dicts and normalizes them in place
        (see ``field``); the caller edits them no further.  A word
        coalgebra (bar, cotensor) hands over its ``Words`` as ``comult``:
        every rDelta entry is ``one`` by construction, so there is no zero
        scan, and rDelta is read key by key off the words (``Words.get``).
        A bar hands over d the same way, as a ``WordMap`` beside them: a
        row is computed on word ids when first read and named then
        (``WordMap.get``), and holds no zero either (each term was summed
        by ``vec_bump`` or copied from one that was)."""
        self.field = field
        self.objects = tuple(objects)
        if reduced.objects != self.objects:
            raise ValueError("reduced quiver must live on the stated objects")
        self.reduced = reduced
        self._rdelta = (comult if isinstance(comult, Words)
                        else _normalize(comult))
        self._diff = (diff if isinstance(diff, WordMap)
                      else _normalize({} if diff is None else diff))
        self.curv = _normalize({} if curv is None else curv)

    @property
    def comult(self) -> Dict[Key, PairVec]:
        """rDelta as one table; a word coalgebra builds it off its words
        on the first read, in word-id order."""
        if isinstance(self._rdelta, Words):
            self._rdelta = self._rdelta.table()
        return self._rdelta

    @property
    def diff(self) -> Dict[Key, Vec]:
        """d as one table; a bar computes it off its ``WordMap`` on the
        first read, in word-id order."""
        if isinstance(self._diff, WordMap):
            self._diff = self._diff.table()
        return self._diff

    def delta(self, key: Key) -> PairVec:
        """rDelta of one basis key, empty for a primitive; read only."""
        return self._rdelta.get(key, {})

    def d(self, key: Key) -> Vec:
        """d of one basis key, empty for a cycle; read only."""
        return self._diff.get(key, {})

    # -- evaluation ---------------------------------------------------------

    def is_curved(self) -> bool:
        return bool(self.curv)

    def apply_d(self, vec: Vec) -> Vec:
        return _apply(self.field, self._diff, vec)

    def curvature_value(self, vec: Vec):
        return _evaluate(self.field, self.curv, vec)

    def reduced_comult(self, vec: Vec) -> PairVec:
        return _apply(self.field, self._rdelta, vec)

    def deconcat(self, key: Key, parts: int) -> Dict[Tuple[Key, ...], object]:
        """Iterated reduced comultiplication of a basis key into ``parts``
        cofactors.

        parts = 1 is the identity; coassociativity (validated) makes the
        bracketing irrelevant.
        """
        F = self.field
        if parts < 1:
            raise ValueError("parts must be >= 1")
        cur: Dict[Tuple[Key, ...], object] = {(key,): F.one}
        for _ in range(parts - 1):
            nxt: Dict[Tuple[Key, ...], object] = {}
            for word, c in cur.items():
                # expand the last factor; any bracketing gives the same map
                head, last = word[:-1], word[-1]
                for (a, b), c2 in self.delta(last).items():
                    vec_bump(F, nxt, head + (a, b), F.mul(c, c2))
            cur = nxt
        return cur

    # -- validation ---------------------------------------------------------

    def validate(self, max_problems: int = 25) -> List[str]:
        return list(islice(self._problems(), max_problems))

    def _problems(self) -> Iterator[str]:
        """Table hygiene, the slot rule on rDelta (each cofactor pair a
        composable path in its key's slot) and d (one degree up), then
        h on degree -2 endomorphisms; coassociativity; conilpotence;
        co-Leibniz; d^2 against the curvature coaction, and h o d = 0."""
        F = self.field
        Q = self.reduced

        # table hygiene
        yield from _slot_problems(self.comult, _key_slot(Q), _pair_slot(Q),
                                  "comultiplication")
        yield from _slot_problems(self.diff, _key_slot(Q, shift=1),
                                  _key_slot(Q), "differential")
        for key, c in self.curv.items():
            if not Q.has_key(key):
                yield f"curvature on unknown key {key}"
                continue
            x, y, n, _ = key
            if x != y or n != -2:
                yield ("curvature supported outside degree -2 "
                       f"endomorphisms: {key}")

        keys = list(Q.keys())
        rdelta, diff, curv = self.comult, self.diff, self.curv

        # coassociativity: (rDelta (x) id) rDelta, reassociated, against
        # (id (x) rDelta) rDelta
        for k in keys:
            pv = self.delta(k)
            lhs = {(a1, (a2, b)): c for ((a1, a2), b), c
                   in _on_leg(F, rdelta, pv, 0).items()}
            if lhs != _on_leg(F, rdelta, pv, 1):
                yield f"reduced comultiplication not coassociative at {k}"

        # conilpotence
        if not self._conilpotent():
            yield "reduced part is not conilpotent"

        # co-Leibniz: rDelta d = (d (x) id + id (x) d) rDelta, d odd
        for k in keys:
            pv = self.delta(k)
            rhs = _on_leg(F, diff, pv, 1, True, _on_leg(F, diff, pv, 0))
            if self.reduced_comult(self.d(k)) != rhs:
                yield f"co-Leibniz fails at {k}"

        # d^2 = (h (x) id - id (x) h) rDelta ; h o d = 0
        for k in keys:
            pv = self.delta(k)
            dd = _on_leg(F, curv, pv, 1, out=self.apply_d(self.d(k)))
            if dd != _on_leg(F, curv, pv, 0):
                yield f"d^2 does not match the curvature coaction at {k}"
            hd = self.curvature_value(self.d(k))
            if not F.is_zero(hd):
                yield f"h o d is nonzero at {k}"

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
        F_{k+1} = ker((id (x) pi_k) rDelta) with pi_k the residue modulo
        F_k, which is rDelta^{-1}(C (x) F_k); F_1 = ker rDelta.  (The
        symmetric wedge gives the same filtration; one side is enough.)

        Three eliminations per stage (``matrix._eliminate``), on rows with
        one column per key: the rref rows of F_k give pi_k, a kernel gives
        F_{k+1}, and the rref rows of pi_k applied to that kernel, whose
        residues span F_{k+1}/F_k, are the stage.  Returns a list of
        stages, each a list of (name, vector); the concatenation is a
        basis of the largest conilpotent subcoalgebra (all of C when
        conilpotent).  Stops when the filtration stalls.
        """
        F = self.field
        keys = sorted(self.reduced.keys(), key=repr)
        stages: List[List[Tuple[object, Vec]]] = []
        flat: List[Vec] = []  # accumulated adapted basis
        while keys:
            # pi_k: a key's residue modulo F_k, which for a pivot of the
            # rref rows of F_k is minus the rest of its row
            pi = {k: {k: F.one} for k in keys}
            for p, row in _rref_rows(F, keys, flat).items():
                pi[p] = {k: F.neg(c) for k, c in row.items() if k != p}
            rows: Dict[Tuple[Key, Key], Dict[int, object]] = {}
            for j, k in enumerate(keys):
                for p, c in _on_leg(F, pi, self.delta(k), 1).items():
                    rows.setdefault(p, {})[j] = c
            kernel = _solution_space(F, list(rows.values()), len(keys))[1]
            new_stage = list(_rref_rows(F, keys, [
                _apply(F, pi, {keys[j]: c for j, c in v.items()})
                for v in kernel]).values())
            if not new_stage:
                break
            stages.append(
                [(f"f{len(stages)}_{i}", v) for i, v in enumerate(new_stage)]
            )
            flat.extend(new_stage)
        return stages


def associated_graded(c: PointedCoalgebra) -> PointedCoalgebra:
    """Associated graded along the coradical filtration (F_{k+1} =
    rDelta^{-1}(C (x) F_k), see ``coradical_filtration``), on an adapted
    basis.  One elimination gives every old key's coordinates on that
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

    # new basis: key -> (stage, name, vector)
    slots: Dict[tuple, List] = {}
    new_keys: List[Tuple[Key, int, Vec]] = []
    for si, stage in enumerate(stages):
        for name, v in stage:
            slot = next(iter(v))[:3]
            slots.setdefault(slot, []).append((si, name))
            new_keys.append((slot + ((si, name),), si, v))
    quiver = GradedQuiver(c.objects, {s: tuple(v) for s, v in slots.items()})

    coords = _coordinates(F, sorted(c.reduced.keys(), key=repr),
                          [(nk, v) for nk, _si, v in new_keys])
    stage_of = {nk: si for (nk, si, _v) in new_keys}

    comult: Dict[Key, PairVec] = {}
    diff: Dict[Key, Vec] = {}
    for nk, si, v in new_keys:
        pv = _on_leg(F, coords, _on_leg(F, coords, c.reduced_comult(v), 0), 1)
        # stages are 0-indexed; filtration degrees are +1
        pv = {(ka, kb): x for (ka, kb), x in pv.items()
              if stage_of[ka] + stage_of[kb] + 2 == si + 1}
        if pv:
            comult[nk] = pv
        dv = _apply(F, coords, c.apply_d(v))
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
    """k[pt]: one grouplike, nothing else; the bar of the one-object
    category k.  Not the terminal object: a morphism C -> k[pt] is a
    Maurer-Cartan element of C in k, and over GF(3) ``neg_primitive``
    has 3, ``curved_chain`` none and ``dag`` 1.  The terminal object is
    the formal ``FinalCoalgebra``."""
    return PointedCoalgebra(field, (name,), GradedQuiver((name,), {}), {})


def tensor_coalgebras(
    c: PointedCoalgebra, d: PointedCoalgebra
) -> PointedCoalgebra:
    """C (x) D on pairwise points, every table built in one pass.

    The reduced keys come in three blocks, in this order: C-reduced (x)
    grouplike, grouplike (x) D-reduced, reduced (x) reduced.  One loop over
    that list of leg pairs registers each key and writes its
    comultiplication, differential and curvature.  The comultiplication
    carries the Koszul sign (-1)^{|d'| |c''|} for Delta(c (x) d) = sum
    (c' (x) d') (x) (c'' (x) d'').
    """
    _same_field(c, d, "tensor")
    F = c.field
    objects = [(x, y) for x in c.objects for y in d.objects]
    ckeys = list(c.reduced.keys())
    dkeys = list(d.reduced.keys())
    legs = ([(ck, ("G", y)) for ck in ckeys for y in d.objects]
            + [(("G", x), dk) for x in c.objects for dk in dkeys]
            + [(ck, dk) for ck in ckeys for dk in dkeys])

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
            (a, b, cc) for (a, b), cc in coa.delta(f).items()]

    def pair_or_none(cf, df) -> Optional[Key]:
        # cf: reduced key of C or ("G", x); df likewise for D; grouplike (x)
        # grouplike drops out of the reduced part
        if is_g(cf):
            return None if is_g(df) else rkey(cf[1], df)
        return lkey(cf, df[1]) if is_g(df) else pair_key(cf, df)

    def deg(f) -> int:
        return 0 if is_g(f) else f[2]

    slots: Dict[tuple, List] = {}
    comult: Dict[Key, PairVec] = {}
    diff: Dict[Key, Vec] = {}
    curv: Dict[Key, object] = {}
    for ck, dk in legs:
        key = pair_or_none(ck, dk)
        slots.setdefault(key[:3], []).append(key[3])
        comult[key] = pv = {}
        for (c1, c2, cc) in full_delta(c, ck):
            for (d1, d2, dd) in full_delta(d, dk):
                left = pair_or_none(c1, d1)
                right = pair_or_none(c2, d2)
                if left is None or right is None:
                    continue  # a grouplike (x) grouplike leg: primitive part
                sgn = F.coerce(-1) if (deg(d1) * deg(c2)) % 2 else F.one
                vec_bump(F, pv, (left, right), F.mul(sgn, F.mul(cc, dd)))
        # differential d (x) 1 + (-1)^{|c|} 1 (x) d; a grouplike leg is
        # no basis key, so its term is empty
        diff[key] = dv = {}
        for k2, cc in c.d(ck).items():
            vec_bump(F, dv, pair_or_none(k2, dk), cc)
        sgn = F.coerce(-1) if deg(ck) % 2 else F.one
        for k2, cc in d.d(dk).items():
            vec_bump(F, dv, pair_or_none(ck, k2), F.mul(sgn, cc))
        # curvature h (x) eps + eps (x) h: only a leg beside a grouplike
        hv = (c.curv.get(ck) if is_g(dk) else
              d.curv.get(dk) if is_g(ck) else None)
        if hv is not None:
            curv[key] = hv
    quiver = GradedQuiver(objects, {s: tuple(v) for s, v in slots.items()})
    return PointedCoalgebra(F, objects, quiver, comult, diff=diff, curv=curv)


def cotensor_coalgebra(
    field: Field,
    generators: GradedQuiver,
    max_weight: Optional[int] = None,
) -> PointedCoalgebra:
    """Deconcatenation coalgebra on composable generator words.

    Words are composable paths of generators, named by their tuples of
    generator names, and ranked, not listed (``quiver.Words``, with the
    counted ``quiver.WordQuiver``); rDelta splits a word at interior
    positions, and is read key by key off the words, not stored.
    With a weight cap the span of words of length <= max_weight is a
    subcoalgebra, so the cap loses nothing structurally.  Without a cap
    the generator graph must be acyclic (else the word basis is infinite),
    and generator names must be globally unique; ``Words`` refuses both.
    """
    if max_weight is not None and max_weight < 0:
        raise ValueError(f"max_weight={max_weight} is negative; "
                         "pass max_weight=0 or more")
    words = Words(generators.objects, list(generators.keys()), max_weight)
    return PointedCoalgebra(field, generators.objects, WordQuiver(words),
                            words)


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
        return list(islice(self._problems(), max_problems))

    def _problems(self) -> Iterator[str]:
        src, tgt = self.source, self.target
        F = src.field
        om = self.object_map
        bad = list(_object_map_problems(om, src.objects, tgt.objects))
        yield from bad
        if bad:
            return
        yield from _slot_problems(self.action, _key_slot(src.reduced, om),
                                  _key_slot(tgt.reduced), "action")
        for k, c in self.twist.items():
            if not src.reduced.has_key(k):
                yield f"twist on unknown key {k}"
                continue
            x, y, n, _ = k
            if n != -1:
                yield f"twist supported off degree -1: {k}"
            if om[x] != om[y]:
                yield f"twist at {k} where F separates the endpoints"

        act, twist = self.action, self.twist
        for k in src.reduced.keys():
            pv = src.delta(k)
            fk = act.get(k, {})
            # comultiplicativity: (F (x) F) rDelta
            fpv = _on_leg(F, act, pv, 0)
            if tgt.reduced_comult(fk) != _on_leg(F, act, fpv, 1):
                yield f"comultiplication not respected at {k}"
            # d and h with twist share u = dc + sum a(c')c''; d moves
            # its odd term, (F (x) a) rDelta, to the left
            u = _on_leg(F, twist, pv, 0, out=dict(src.d(k)))
            left = _on_leg(F, twist, fpv, 1, True, tgt.apply_d(fk))
            if left != self.apply(u):
                yield f"differential not respected at {k}"
            hr = F.add(src.curv.get(k, F.zero), self.twist_value(u))
            if tgt.curvature_value(fk) != hr:
                yield f"curvature not respected at {k}"

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
        raise ValueError("f's target is not g's source")
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
