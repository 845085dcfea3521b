"""Convolution categories, Maurer-Cartan elements, and the closed structure.

For a pointed curved coalgebra C and a dg category D, the convolution
category {C, D} has object maps Ob C -> Ob D as objects and graded maps
from C into D-arrows as morphisms:

    (d phi)(c)   = d_D(phi c) - (-1)^{|phi|} phi(d_C c)
    (psi * phi)(c) = sum (-1)^{(|phi| + |c1|) |c2|} psi(c2) o phi(c1)
    unit at f    = eta o f o eps
    curvature    = eta o f o h_C  (+ h_D o f o eps when C is counital)

The reduced variant {C-bar, D} drops the grouplike rows (and with them all
units).  Its Maurer-Cartan elements -- degree-1 cochains xi with
d xi + xi * xi + h = 0 -- are in bijection with dg functors Omega C -> D
and with coalgebra morphisms C -> BD; both transports live here, together
with the Maurer-Cartan category MC*(C, D), the internal hom
uHom(C, BD) = B MC*(C, D), and the Eilenberg-Zilber comparison functor
Omega(C (x) C') -> Omega C (x) Omega C'.  MC*(C, D) is {C, D} twisted at
its objects: its homs, units and composition are those of {C, D} between
the elements' object maps, and its differential d + xi' * - -
(-1)^| | - * xi is written once, by ``ConvolutionCategory.diff_vec``
(xi = 0 gives the plain d).  A map into BD is read through the splitting
BD was built on, which the bar records; ``_bar_splitting`` is its one
reader, and no function here takes a splitting of its own.

Cochains are spanned by (tag, row, dk), the row sent to the D-arrow dk,
of degree |dk| - |row|.  Rows are grouplikes ("o", x) of degree 0 and
reduced keys ("r", ck), with Delta x = x (x) x and Delta c = x (x) c +
c (x) y + rDelta(c).  Both variants read a ``PointedCoalgebra``'s tables
as they stand, and one materializer, ``ConvolutionCategory.tables`` over
(label, object map, MC cochain) triples, serves the dg category, the
reduced validator, the MC category and the interchange check.  The
kernel tensor C-bar (x) C' of the interchange is a restriction of the
reduced {C (x) C', D}; ``interchange_problems`` says why.  All tables
are finite; the infinite constructions only enter through materialized
bar and cobar output.

The three hom sets MC(C, D) = Hom(Omega C, D) = Hom(C, BD) are found by
one propagation solver, ``_solve``, not by trying every point.  It takes
polynomial rows: each maps monomials (sorted tuples of coordinate
indices, () for the constant term) to vectors, and must vanish.  A
monomial is linear once all of its factors but one are fixed.  Fully
fixed rows are checked, all rows whose monomials are linear are solved
as one linear system, and only where neither applies does the search
branch.  The rows are written once, by ``_mc_solve``: d xi + xi * xi + h
on each reduced row of C, xi spanned by coordinates (row, D-vector) that
each search picks.  ``mc_enumerate`` takes D's basis keys,
``enumerate_dg_functors`` the generator values times the transport sign
(xi = theta F), ``enumerate_coalgebra_morphisms`` minus the letters of
the one-letter components, then the unit for each twist; every solved
morphism is still validated on the bar's own tables.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product
from typing import Dict, List, Optional, Sequence, Tuple

from .field import (Field, Vec, _compose, _normalize, _same_field,
                    vec_addmul, vec_bump, vec_scale, vec_sub)
from .quiver import (GradedQuiver, Key, _key_slot, _object_map_problems,
                     _slot_problems, lkey, object_maps as all_object_maps,
                     pair_key, rkey)
from .dgcat import DgCategory, DgFunctor, _products, tensor_dg
from .matrix import _solution_space
from .coalgebra import (
    CoalgebraMorphism,
    FinalCoalgebra,
    PointedCoalgebra,
    identity_morphism,
    tensor_coalgebras,
    zero_coalgebra,
)
from .barcobar import (
    CobarResult,
    Splitting,
    _bar_word,
    bar_construction,
    cobar_construction,
)


# search budget of every enumerator: branch values plus points of
# solution families, summed over the object maps
SEARCH_BUDGET = 1 << 18
MAX_OBJECTS = 128  # object maps a convolution or MC category may hold


def _om_tuple(objects: Sequence, targets: Sequence, m) -> Tuple:
    """The object map ``m`` (a dict, or values in ``objects`` order) as a
    tuple in ``objects`` order; refuses a map that misses an object,
    names an unknown one or hits an unknown target."""
    if not isinstance(m, dict):
        m = tuple(m)
        if len(m) > len(objects):
            raise ValueError(f"object map gives {len(m)} values for the "
                             f"objects {tuple(objects)!r}")
        m = dict(zip(objects, m))
    bad = next(_object_map_problems(m, objects, targets), None)
    if bad:
        raise ValueError(f"bad object map: {bad}")
    return tuple(m[x] for x in objects)


# ---------------------------------------------------------------------------
# the convolution category


class ConvolutionCategory:
    """{C, D}, or the reduced {C-bar, D}, with the tables exposed per basis
    cochain.

    Objects are object maps, stored as tuples in coalgebra-object order;
    ``max_objects`` bounds only the maps enumerated when no ``object_maps``
    are given.  Every table derives from the row list ``_rows`` and the
    transposed Delta over it; ``reduced`` drops the grouplike rows, and
    with them the units and the h_D terms of the curvature.  ``tables``
    materializes either side; ``to_dg_category`` only the counital one.
    """

    def __init__(self, c: PointedCoalgebra, cat: DgCategory,
                 reduced: bool = False, object_maps: Optional[Sequence] = None,
                 max_objects: int = MAX_OBJECTS):
        _same_field(c, cat, "convolution")
        self.field = c.field
        self.coalgebra = c
        self.reduced = reduced
        self.cat = cat
        self.index = {x: i for i, x in enumerate(c.objects)}
        self._grouplike = () if reduced else c.objects
        if object_maps is None:
            maps = list(all_object_maps(c.objects, cat.quiver.objects,
                                        max_objects))
        else:
            maps = list(dict.fromkeys(
                _om_tuple(c.objects, cat.quiver.objects, m)
                for m in object_maps))
        self.object_maps = maps

    def om_value(self, fk: Tuple, x):
        return fk[self.index[x]]

    # -- rows and the transposed coalgebra tables (d and Delta backwards) --

    @cached_property
    def _rows(self) -> List[Tuple]:
        """(tag, row, (source, target, degree)) in hom-key order: each
        grouplike ("o", x) in degree 0, then each reduced ("r", ck)."""
        return ([("o", x, (x, x, 0)) for x in self._grouplike]
                + [("r", ck, ck[:3]) for ck in self.coalgebra.reduced.keys()])

    @cached_property
    def _diff_transpose(self) -> Dict:
        t: Dict = {}
        for c, dv in self.coalgebra.diff.items():
            for ck2, coeff in dv.items():
                t.setdefault(("r", ck2), []).append((("r", c), coeff))
        return t

    @cached_property
    def _delta_transpose(self) -> Dict:
        """(row of c1) + (row of c2) -> [(row of c, coefficient)] over
        Delta x = x (x) x and Delta c = x (x) c + c (x) y + rDelta(c),
        keeping the terms whose two legs are both rows.  The key is one
        flat (tag1, row1, tag2, row2), the cheapest for comp_vec to hash."""
        one, rows = self.field.one, {r[:2] for r in self._rows}
        t: Dict = {}
        for tag, row, (x, y, _) in self._rows:  # at c = x both are x (x) x
            c = (tag, row)
            for c1, c2 in ((("o", x), c), (c, ("o", y))):
                if c1 in rows and c2 in rows:
                    t[c1 + c2] = [(c, one)]
        for c, terms in self.coalgebra.comult.items():
            for (a, b), coeff in terms.items():
                t.setdefault(("r", a, "r", b), []).append((("r", c), coeff))
        return t

    # -- hom bases ---------------------------------------------------------

    @cached_property
    def _dkeys_by_ends(self) -> Dict:
        """D's keys grouped by (source, target), each group in key order."""
        t: Dict = {}
        for dk in self.cat.quiver.keys():
            t.setdefault(dk[:2], []).append(dk)
        return t

    def hom_keys(self, fk: Tuple, gk: Tuple) -> List[Key]:
        ends, index = self._dkeys_by_ends, self.index
        return [(fk, gk, dk[2] - n, (tag, row, dk))
                for tag, row, (x, y, n) in self._rows
                for dk in ends.get((fk[index[x]], gk[index[y]]), ())]

    # -- structure tables per basis cochain --------------------------------

    def diff_vec(self, key: Key, xi: Optional[Dict[Key, Vec]] = None,
                 xi2: Optional[Dict[Key, Vec]] = None) -> Vec:
        """d phi + xi' * phi - (-1)^{|phi|} phi * xi on the basis cochain
        phi = ``key``: the differential of MC*(C, D), the one place it is
        written.  ``xi`` and ``xi2`` are the MC cochains at phi's source
        and target (row -> D-vector, as ``MCElement.xi``); without them
        this is the plain d of {C, D}, the xi = 0 case.  Each product is
        read off ``comp_vec`` one term of xi or xi' at a time, so no
        composition table is needed.
        """
        fk, gk, n, name = key
        F = self.field
        out: Vec = {}
        dk = name[2]
        for dk2, c in self.cat.diff.get(dk, {}).items():
            vec_bump(F, out, (fk, gk, n + 1, (name[0], name[1], dk2)), c)
        # -(-1)^n phi(dc): rows whose differential hits this one
        s = F.coerce(-1) if n % 2 == 0 else F.one
        for cprev, coeff in self._diff_transpose.get(name[:2], ()):
            vec_bump(F, out, (fk, gk, n + 1, cprev + (dk,)), F.mul(s, coeff))
        if xi or xi2:  # xi' * phi, then -(-1)^n phi * xi, with that sign
            terms = [(self.comp_vec((gk, gk, 1, ("r", ck, d1)), key), c)
                     for ck, v in (xi2 or {}).items() for d1, c in v.items()]
            terms += [(self.comp_vec(key, (fk, fk, 1, ("r", ck, d1))),
                       F.mul(s, c))
                      for ck, v in (xi or {}).items() for d1, c in v.items()]
            for prod, c in terms:
                for k2, e in prod.items():
                    vec_bump(F, out, k2, F.mul(c, e))
        return out

    def comp_vec(self, kpsi: Key, kphi: Key) -> Vec:
        """psi * phi on basis cochains; key order matches comp[(g, f)].

        One sum over the transposed Delta, signed (-1)^{(|phi| + |c1|) |c2|}
        = (-1)^{|d_phi| (|d_psi| - |psi|)}.  Its keys are distinct and its
        coefficients nonzero (D's and Delta's, up to sign): nothing to sum.
        """
        fk, gmid, p, (tphi, rphi, dphi) = kphi
        gmid2, hk, q, (tpsi, rpsi, dpsi) = kpsi
        if gmid2 != gmid:
            return {}
        if dphi[1] != dpsi[0]:
            return {}
        dd = self.cat.comp.get((dpsi, dphi))
        if not dd:
            return {}
        F = self.field
        n = p + q
        neg = (dphi[2] * (dpsi[2] - q)) % 2
        out: Vec = {}
        legs = (tphi, rphi, tpsi, rpsi)
        for crow, lam in self._delta_transpose.get(legs, ()):
            coeff = F.neg(lam) if neg else lam
            for dk2, c in dd.items():
                out[(fk, hk, n, crow + (dk2,))] = F.mul(coeff, c)
        return out

    def unit_vec(self, fk: Tuple) -> Vec:
        if self.reduced:
            raise ValueError("the reduced convolution category has no units")
        F = self.field
        out: Vec = {}
        for i, x in enumerate(self.coalgebra.objects):
            for dk, c in self.cat.unit_vec(fk[i]).items():
                vec_bump(F, out, (fk, fk, 0, ("o", x, dk)), c)
        return out

    def curvature_vec(self, fk: Tuple) -> Vec:
        F = self.field
        out: Vec = {}
        for ck, h in self.coalgebra.curv.items():
            fx = self.om_value(fk, ck[0])
            for dk, c in self.cat.unit_vec(fx).items():
                vec_bump(F, out, (fk, fk, dk[2] - ck[2], ("r", ck, dk)),
                         F.mul(h, c))
        for x in self._grouplike:
            for dk, c in self.cat.curvature_vec(self.om_value(fk, x)).items():
                vec_bump(F, out, (fk, fk, dk[2], ("o", x, dk)), c)
        return out

    # -- materialization and validation ------------------------------------

    def tables(self, objects: Sequence[Tuple[object, Tuple, Dict[Key, Vec]]]):
        """Every structure table over labelled, twisted object maps.

        ``objects`` lists (label, object map, MC cochain) triples, the
        cochain ``{}`` for a plain object map: {C, D} is the case where
        every cochain is zero, MC*(C, D) the case of MC elements.  Every
        basis key starts with the labels of its two ends, so objects with
        equal maps stay apart; comp_vec and diff_vec only compare those
        entries.  Composition is driven by stored entries: comp_vec runs
        only on the pairs that D's composition table and the transpose of
        Delta can make nonzero, in the order of a scan over hom-key pairs.
        The differential is ``diff_vec`` twisted by the cochains at each
        key's two ends.  Returns (quiver, unit, comp, diff, curvature,
        keyed): the tables a ``DgCategory`` takes, and keyed[(lf, lg)] the
        hom keys from lf to lg.  The reduced side has no units.
        """
        keyed: Dict[Tuple, List[Key]] = {}
        slots: Dict = {}
        for lf, fk, _ in objects:
            for lg, gk, _ in objects:
                ks = [(lf, lg) + k[2:] for k in self.hom_keys(fk, gk)]
                keyed[(lf, lg)] = ks
                for k in ks:
                    slots.setdefault((lf, lg, k[2]), []).append(k[3])
        quiver = GradedQuiver([lf for lf, _, _ in objects], slots)

        def at(lf, vec: Vec) -> Vec:
            return {(lf, lf) + k[2:]: c for k, c in vec.items()}

        unit = {} if self.reduced else {lf: at(lf, self.unit_vec(fk))
                                        for lf, fk, _ in objects}
        # psi * phi can be nonzero only if (d_psi, d_phi) is stored in D
        # and Delta has a term (phi's row) (x) (psi's row), a key of the
        # transpose.  Each psi name gets the names of its candidate phis
        # once; comp_vec runs only on those found in the (lf, lg) hom, in
        # hom order, so comp keeps the key-pair scan's order.
        after: Dict[Key, List[Key]] = {}  # d_psi -> each stored d_phi
        for dpsi, dphi in self.cat.comp:
            after.setdefault(dpsi, []).append(dphi)
        rows: Dict[Tuple, List[Tuple]] = {}  # psi's row -> phi's rows
        for k in self._delta_transpose:
            rows.setdefault(k[2:], []).append(k[:2])
        preceding: Dict[Tuple, List[Tuple]] = {}  # psi name -> phi names
        index = {pq: {k[3]: i for i, k in enumerate(ks)}
                 for pq, ks in keyed.items()}
        comp = {}
        for lf, _, _ in objects:
            for lg, _, _ in objects:
                phis, where = keyed[(lf, lg)], index[(lf, lg)]
                for lh, _, _ in objects:
                    for kpsi in keyed[(lg, lh)]:
                        name = kpsi[3]
                        names = preceding.get(name)
                        if names is None:
                            names = preceding[name] = [
                                row + (dphi,) for row in rows.get(name[:2], ())
                                for dphi in after.get(name[2], ())]
                        for i in sorted(i for i in map(where.get, names)
                                        if i is not None):
                            v = self.comp_vec(kpsi, phis[i])
                            if v:
                                comp[(kpsi, phis[i])] = v
        xis = {lf: xi for lf, _, xi in objects}
        diff = {}
        for (lf, lg), ks in keyed.items():
            for k in ks:
                v = self.diff_vec(k, xis[lf], xis[lg])
                if v:
                    diff[k] = v
        curvature = {lf: at(lf, self.curvature_vec(fk))
                     for lf, fk, _ in objects}
        return quiver, unit, comp, diff, curvature, keyed

    def _object_tables(self):
        return self.tables([(fk, fk, {}) for fk in self.object_maps])

    def to_dg_category(self) -> DgCategory:
        if self.reduced:
            raise ValueError("the reduced convolution category has no units; "
                             "keep the wrapper and use its validator")
        quiver, unit, comp, diff, curvature, _ = self._object_tables()
        return DgCategory(self.field, quiver, unit, comp, diff=diff,
                          curvature=curvature)

    def validate(self, max_problems: int = 25) -> List[str]:
        if not self.reduced:
            return self.to_dg_category().validate(max_problems=max_problems)
        return self._validate_reduced(max_problems)

    def _validate_reduced(self, max_problems: int) -> List[str]:
        """Reduced convolution over a possibly curved D is not itself a
        curved category: d^2 phi = [eta f h_C, phi]_* + h_D o phi - phi o h_D
        holds exactly, with the outer terms read off D's own products with
        h_D at the value of phi (they vanish where h_D is central, as when
        D is uncurved).  Checks that identity by the d^2 pass of
        ``DgCategory.validate`` on the materialized tables, then
        associativity and the Leibniz rule by its table-driven passes.
        """
        F = self.field
        quiver, _, comp, diff, curvature, keyed = self._object_tables()
        # no units: only passes that never read one run on these tables
        tabled = DgCategory(F, quiver, {}, comp, diff=diff, curvature=curvature)
        outer = None
        if self.cat.is_curved():
            post, pre = _products(F, self.cat.comp, self.cat.curvature)

            def outer(k: Key) -> Vec:  # h_D o phi - phi o h_D
                fk, gk, n, (tag, row, dk) = k
                return {(fk, gk, n + 2, (tag, row, dk2)): c for dk2, c in
                        vec_sub(F, post.get(dk, {}), pre.get(dk, {})).items()}
        d2 = tabled._d2_problems((k for ks in keyed.values() for k in ks),
                                 "d^2 identity fails on {}", outer)
        return list(islice(chain(d2, tabled._composition_problems()),
                           max_problems))


def convolution_category(c: PointedCoalgebra, d: DgCategory,
                         reduced: bool = False,
                         object_maps: Optional[Sequence] = None,
                         max_objects: int = MAX_OBJECTS) -> ConvolutionCategory:
    """{C, D}, or the reduced {C-bar, D} when ``reduced`` is set."""
    return ConvolutionCategory(c, d, reduced=reduced, object_maps=object_maps,
                               max_objects=max_objects)


# ---------------------------------------------------------------------------
# Maurer-Cartan elements


class MCElement:
    """Object map plus degree-1 twisting cochain on the reduced rows."""

    def __init__(self, object_map: Dict, xi: Dict[Key, Vec]):
        """Takes ownership of ``xi`` and normalizes it in place."""
        self.object_map = dict(object_map)
        self.xi = _normalize(xi)

    def canonical(self) -> Tuple:
        om = tuple(sorted(self.object_map.items(), key=repr))
        xi = tuple(sorted(
            ((k, tuple(sorted(v.items(), key=repr))) for k, v in self.xi.items()),
            key=repr))
        return (om, xi)

    def __eq__(self, other) -> bool:
        return isinstance(other, MCElement) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        support = sorted({k[3] for k in self.xi}, key=repr)
        return f"MCElement({self.object_map!r}, xi on {support!r})"


def _pair_sign(F: Field, lam, a: Key, b: Key):
    # xi(c2) o xi(c1) enters the residual with (-1)^{(1 + |c1|) |c2|}
    return F.neg(lam) if ((1 + a[2]) * b[2]) % 2 else lam


def _mc_residual_row(coa: PointedCoalgebra, d: DgCategory, om: Dict,
                     xi: Dict[Key, Vec], ck: Key) -> Vec:
    """(d xi + xi * xi + h)(ck) in the reduced convolution."""
    F = coa.field
    r = d.apply_d(xi.get(ck, {}))
    for ck2, coeff in coa.d(ck).items():
        # -(-1)^{|xi|} xi(dc) with |xi| = 1
        r = vec_addmul(F, r, coeff, xi.get(ck2, {}))
    for (a, b), lam in coa.delta(ck).items():
        va, vb = xi.get(a), xi.get(b)
        if not va or not vb:
            continue
        term = d.compose(vb, va)
        if term:
            r = vec_addmul(F, r, _pair_sign(F, lam, a, b), term)
    h = coa.curv.get(ck)
    if h is not None:
        r = vec_addmul(F, r, h, d.unit_vec(om[ck[0]]))
    return r


def mc_check(c: PointedCoalgebra, d: DgCategory,
             cand: MCElement) -> Tuple[bool, Dict[Key, Vec]]:
    """Evaluate d xi + xi * xi + h row by row; returns (flag, residual).

    Raises if the candidate is not an honest degree-1 cochain (a row that
    is no reduced key, or a value off the slot its row forces, one degree
    up) -- that is malformed input, not a failed equation.
    """
    _same_field(c, d, "mc_check")
    om = dict(zip(c.objects, _om_tuple(c.objects, d.quiver.objects,
                                       cand.object_map)))
    bad = next(_slot_problems(cand.xi, _key_slot(c.reduced, om, 1),
                              _key_slot(d.quiver), "cochain"), None)
    if bad:
        raise ValueError(f"not a degree-1 cochain: {bad}")
    residual = {}
    for ck in c.reduced.keys():
        r = _mc_residual_row(c, d, om, cand.xi, ck)
        if r:
            residual[ck] = r
    return (not residual), residual


Poly = Dict[Tuple[int, ...], Vec]  # sorted coordinate indices -> vector


def _coordinate_polys(coords: Sequence) -> Dict[Key, Poly]:
    """Per row, its value sum x_i v_i over its coordinates (row, v_i)."""
    out: Dict[Key, Poly] = {}
    for i, (ck, v) in enumerate(coords):
        out.setdefault(ck, {})[(i,)] = v
    return out


def _at_point(coords: Sequence, vals: Sequence) -> Dict[Key, Vec]:
    """Per row, the vector of its coordinates' nonzero values."""
    out: Dict[Key, Vec] = {}
    for (ck, dk), v in zip(coords, vals):
        if v:
            out.setdefault(ck, {})[dk] = v
    return out


def _bump_poly(F: Field, poly: Poly, mono: Tuple[int, ...], vec: Vec, s) -> None:
    """poly += s * vec at the monomial ``mono``, given in any order."""
    entry = poly.setdefault(tuple(sorted(mono)), {})
    for k, c in vec.items():
        vec_bump(F, entry, k, F.mul(s, c))


def _substitute(F: Field, row: Poly, vals: Sequence):
    """``row`` with the fixed coordinates (not None in ``vals``)
    substituted: (constant, linear part per unfixed coordinate), or None
    while a monomial with a nonzero fixed part has two unfixed factors."""
    const: Vec = {}
    lin: Dict[int, Vec] = {}
    for mono, v in row.items():
        c, left = F.one, []
        for i in mono:
            if vals[i] is None:
                left.append(i)
            else:
                c = F.mul(c, vals[i])
        if F.is_zero(c):
            continue
        if len(left) > 1:
            return None
        into = lin.setdefault(left[0], {}) if left else const
        for k, x in v.items():
            vec_bump(F, into, k, F.mul(c, x))
    return const, {i: w for i, w in lin.items() if w}


def _solve(F: Field, n: int, rows: List[Poly], spent: int,
           budget: int) -> Tuple[List[List], int]:
    """Every point of F^n at which all ``rows`` vanish, sorted by
    coordinate tuple (product order), and the budget spent so far.

    Where no row is affine the search branches on the first unfixed
    coordinate; coordinates no row constrains form one free family.
    """
    found: List[List] = []

    def visit(vals, pending):
        nonlocal spent
        # (row, vector key) -> equation; unfixed coordinate -> column
        eqs, cols, rhs, rest = {}, {}, {}, []
        for r in pending:
            got = _substitute(F, rows[r], vals)
            if got is None:
                rest.append(r)  # still quadratic here
                continue
            const, lin = got
            if not lin:
                if const:
                    return  # a checked row fails
                continue
            for k, c in const.items():
                eqs.setdefault((r, k), {})
                rhs[(r, k)] = F.neg(c)
            for i, v in lin.items():
                j = cols.setdefault(i, len(cols))
                for k, c in v.items():
                    eqs.setdefault((r, k), {})[j] = c
        if cols:
            # every affine row at once: x = particular + kernel span
            ids = list(cols)
            for e, c in rhs.items():
                eqs[e][len(ids)] = c
            sol, kernel = _solution_space(F, list(eqs.values()), len(ids))
            if sol is None:
                return
        else:
            ids = [i for i in range(n) if vals[i] is None]
            if not ids:
                found.append(vals)
                return
            if rest:
                ids = ids[:1]  # branch on the first unfixed coordinate
            # else no row constrains the unfixed coordinates at all
            sol, kernel = {}, [{j: F.one} for j in range(len(ids))]
        if kernel and F.size is None:
            raise ValueError("the search has to branch on a free coordinate "
                             "here, which needs a finite field")
        spent += (F.size or 1) ** len(kernel)
        if spent > budget:
            raise ValueError(f"{spent} branch values and family points exceed "
                             f"the search budget {budget}; raise budget=")
        for ts in product(F.elements(), repeat=len(kernel)) if kernel else [()]:
            x = dict(sol)
            for t, kv in zip(ts, kernel):
                for j, c in kv.items():
                    x[j] = F.add(x.get(j, F.zero), F.mul(t, c))
            point = list(vals)
            for j, i in enumerate(ids):
                point[i] = x.get(j, F.zero)
            visit(point, rest)

    visit([None] * n, range(len(rows)))
    found.sort()
    return found, spent


def _mc_solve(c: PointedCoalgebra, d: DgCategory, om: Dict,
              coords: Sequence[Tuple[Key, Vec]], spent: int,
              budget: int) -> Tuple[List[List], int]:
    """``_solve`` on the terms of ``_mc_residual_row`` for xi = sum x_i v_i
    over the coordinates (row, D-vector v_i) on the object map ``om``:
    the points x, sorted, and the budget spent so far."""
    F = c.field
    xi = _coordinate_polys(coords)
    rows = []
    for ck in c.reduced.keys():
        row: Poly = {}
        for mono, v in xi.get(ck, {}).items():
            _bump_poly(F, row, mono, d.apply_d(v), F.one)
        for ck2, x in c.d(ck).items():
            for mono, v in xi.get(ck2, {}).items():
                _bump_poly(F, row, mono, v, x)
        for (a, b), lam in c.delta(ck).items():
            s = _pair_sign(F, lam, a, b)
            for ma, va in xi.get(a, {}).items():
                for mb, vb in xi.get(b, {}).items():
                    _bump_poly(F, row, ma + mb, _compose(F, d.comp, vb, va), s)
        if ck in c.curv:
            _bump_poly(F, row, (), d.unit_vec(om[ck[0]]), c.curv[ck])
        rows.append(_normalize(row))
    return _solve(F, len(coords), rows, spent, budget)


def mc_enumerate(c: PointedCoalgebra, d: DgCategory,
                 object_maps: Optional[Sequence] = None,
                 budget: int = SEARCH_BUDGET) -> List[MCElement]:
    """All Maurer-Cartan elements, by ``_mc_solve``.

    The unknowns are the coordinates of xi on each reduced row, one per
    basis key of D in the row's slot.  Solving weight by weight along the
    coradical filtration would not cut the search: d lowers weight
    through the merge term, so in B(trunc_poly3) the weight-2 row [x|x]
    constrains the weight-1 coordinate xi[x^2].  Over an infinite field
    the forced solutions come back and a branch is refused.  Elements
    come per object map in product order, each map's sorted by coordinate
    tuple; an object map given twice is searched once.
    """
    _same_field(c, d, "mc_enumerate")
    if object_maps is None:
        object_maps = all_object_maps(c.objects, d.quiver.objects)
    one = c.field.one
    out: List[MCElement] = []
    spent = 0
    for key in dict.fromkeys(_om_tuple(c.objects, d.quiver.objects, om)
                             for om in object_maps):
        om = dict(zip(c.objects, key))
        coords = [(ck, (om[ck[0]], om[ck[1]], ck[2] + 1, name))
                  for ck in c.reduced.keys()
                  for name in d.quiver.slot(om[ck[0]], om[ck[1]], ck[2] + 1)]
        sols, spent = _mc_solve(c, d, om, [
            (ck, {dk: one}) for ck, dk in coords], spent, budget)
        out += [MCElement(om, _at_point(coords, vals)) for vals in sols]
    return out


# ---------------------------------------------------------------------------
# the Maurer-Cartan category


class MCCategory:
    """MC elements as objects, unital convolution homs, twisted d."""

    def __init__(self, elements: List[MCElement], category: DgCategory,
                 convolution: ConvolutionCategory, object_maps: List[Tuple]):
        self.elements = elements
        self.category = category
        self.convolution = convolution
        self.object_maps = object_maps


def mc_category(c: PointedCoalgebra, d: DgCategory,
                elements: Optional[List[MCElement]] = None) -> MCCategory:
    """MC*(C, D): {C, D} over the MC elements, twisted at its objects.

    Homs, units and composition are those of {C, D} between the object
    maps of the elements; the differential is d + xi' * - - (-1)^| | - * xi,
    written by ``ConvolutionCategory.diff_vec``.  One ``tables`` call
    builds it all, after the checks: the twisted differential squares to
    zero only when D brings no curvature of its own, so curved targets
    are refused, and supplied elements must solve the MC equation.
    """
    for x in d.quiver.objects:
        if d.curvature_vec(x):
            raise ValueError("Maurer-Cartan category needs an uncurved target")
    if elements is None:
        elements = mc_enumerate(c, d)
    else:
        for m in elements:
            ok, residual = mc_check(c, d, m)
            if not ok:
                bad = sorted(residual, key=repr)[0]
                raise ValueError(
                    f"supplied object fails the Maurer-Cartan equation at {bad}")
        elements = list(elements)
    oms = [tuple(m.object_map[x] for x in c.objects) for m in elements]
    conv = ConvolutionCategory(c, d, object_maps=oms)
    quiver, unit, comp, diff, _, _ = conv.tables([
        (("mc", i), om, m.xi) for i, (om, m) in enumerate(zip(oms, elements))])
    cat = DgCategory(c.field, quiver, unit, comp, diff=diff)
    return MCCategory(elements, cat, conv, oms)


def internal_hom(c, d: DgCategory, weight_cap: int):
    """uHom(C, BD) = B MC*(C, D).

    ``d`` is the dg category whose bar construction is the hom target; the
    final target is the bar of ``zero_category``, the one-object category
    with zero unit.  The empty coalgebra and final/zero sentinels fall out
    of the construction itself: an empty C gives the one-point
    Maurer-Cartan category with zero homs, whose bar is final; an empty D
    gives no objects at all, whose bar is the zero coalgebra.  Only the
    source may be the final coalgebra; a target that is no
    ``DgCategory`` is refused.
    """
    if not isinstance(d, DgCategory):
        raise ValueError(
            f"the target is a dg category D, not a {type(d).__name__}; "
            "for the final target, pass D = zero_category(F)")
    if isinstance(c, FinalCoalgebra):
        # absorbing source: morphisms out of the final coalgebra only reach
        # zero-unit objects, so the hom collapses to a sentinel
        bd_final = bool(d.quiver.objects) and d.quiver.total_dim() == 0 \
            and all(not d.unit_vec(x) for x in d.quiver.objects)
        return FinalCoalgebra(c.field) if bd_final else zero_coalgebra(c.field)
    return bar_construction(mc_category(c, d).category, weight_cap)


# ---------------------------------------------------------------------------
# transports along  Hom(Omega C, D)  =  MC{C, D}  =  Hom(C, BD)


def _theta(field: Field, n: int):
    # suspension dressing of a degree-n row; its square is 1, so both
    # transport directions use the same factor
    return field.coerce(-1) if ((n * (n - 1)) // 2) % 2 == 0 else field.one


def _single_word(ck: Key) -> Key:
    return (ck[0], ck[1], ck[2] + 1, (ck,))


def _word_functor(src: DgCategory, d: DgCategory, om: Dict,
                  images: Dict[Key, Vec]) -> DgFunctor:
    """The generator images composed along src's words in path order;
    the unit on the empty words."""
    F = d.field
    action: Dict[Key, Vec] = {}
    for k in src.quiver.keys():
        v = images.get(k[3][0], {}) if k[3] else d.unit_vec(om[k[0]])
        for ck in k[3][1:]:
            v = _compose(F, d.comp, images.get(ck, {}), v)
        if v:
            action[k] = v
    return DgFunctor(src, d, {x: om[x] for x in src.quiver.objects}, action)


def universal_cochain(c: PointedCoalgebra) -> Tuple[CobarResult, MCElement]:
    """The tautological element of MC{C, Omega C}.

    Each reduced row goes to its own one-letter word, dressed so that the
    Maurer-Cartan equation becomes the cobar differential of the letter.
    Returns the cobar materialization used alongside the element; its
    length cap 2 is just deep enough for ``mc_check`` (residuals never
    reach past two-letter words).
    """
    cobar = cobar_construction(c, length_cap=2)
    F = c.field
    xi: Dict[Key, Vec] = {}
    for ck in c.reduced.keys():
        xi[ck] = {_single_word(ck): _theta(F, ck[2])}
    return cobar, MCElement({x: x for x in c.objects}, xi)


def adjunction_functor_from_mc(cobar, d: DgCategory, m: MCElement) -> DgFunctor:
    """Extend a twisting cochain multiplicatively over cobar words.

    ``cobar`` may be a materialization result or its category.  One-letter
    words get the dressed cochain value, longer words the composite of
    their letters' values in path order, empty words the unit.
    """
    src = cobar.category if isinstance(cobar, CobarResult) else cobar
    F = src.field
    return _word_functor(src, d, m.object_map, {
        ck: vec_scale(F, _theta(F, ck[2]), v) for ck, v in m.xi.items()})


def adjunction_mc_from_functor(fun: DgFunctor, c: PointedCoalgebra) -> MCElement:
    """Read the twisting cochain back off a functor on a cobar category."""
    F = c.field
    xi: Dict[Key, Vec] = {}
    for ck in c.reduced.keys():
        v = fun.action.get(_single_word(ck))
        if v:
            xi[ck] = vec_scale(F, _theta(F, ck[2]), v)
    return MCElement({x: fun.object_map[x] for x in c.objects}, xi)


def _bar_splitting(bar_coa: PointedCoalgebra) -> Splitting:
    """The ``Splitting`` a bar records, the only way a map into BD is read;
    refuses a coalgebra that ``bar_construction`` did not build."""
    sp = getattr(bar_coa, "splitting", None)
    if sp is None:
        raise ValueError("a map into BD is read through the splitting the "
                         "bar records; pass a bar_construction result")
    return sp


def mc_from_morphism(mor: CoalgebraMorphism) -> MCElement:
    """MC element of a morphism into a bar coalgebra.

    The morphism is read through the splitting its target was built on:
    the one-letter component is minus the suspended cochain, and the
    twist functional supplies its unit-direction part, which the letters
    cannot see.  A target that is not a bar is refused.
    """
    sp = _bar_splitting(mor.target)
    cat = sp.cat
    F = cat.field
    om = dict(mor.object_map)
    xi: Dict[Key, Vec] = {}
    for ck in mor.source.reduced.keys():
        v: Vec = {}
        for wk, coeff in mor.action.get(ck, {}).items():
            if len(wk[3]) == 1:
                v = vec_addmul(F, v, F.neg(coeff), sp.letter_vec(wk[3][0]))
        a = mor.twist.get(ck)
        if a is not None:
            v = vec_addmul(F, v, a, cat.unit_vec(om[ck[0]]))
        if v:
            xi[ck] = v
    return MCElement(om, xi)


def _deconcat_chains(c: PointedCoalgebra, limit: Optional[int] = None
                     ) -> Dict:
    """Each reduced row's iterated deconcatenation into 1, 2, ... parts, as
    (chain of cofactors, coefficient) pairs; refuses when a chain of more
    than ``limit`` parts survives.  The default limit, one more than the
    reduced dimension, lets every chain of a conilpotent C through."""
    if limit is None:
        limit = c.reduced.total_dim() + 1
    chains: Dict[Key, List] = {}
    for ck in c.reduced.keys():
        chains[ck] = []
        for w in range(1, limit + 2):
            got = c.deconcat(ck, w)
            if not got:
                break
            if w > limit:
                raise ValueError(
                    f"iterated coproducts go past {limit} parts; rebuild "
                    "the bar and pass a larger weight_cap=")
            chains[ck] += got.items()
    return chains


def _bar_image_polys(bar_coa: PointedCoalgebra, chains: Dict,
                     p1: Dict[Key, Poly]) -> Dict[Key, Poly]:
    """Per row, the comultiplicative extension of the one-letter component
    ``p1`` (polynomials): weight w is p1 tensored w times against the w-fold
    deconcatenation -- sign-free, as the letters carry the degree shifts."""
    F = bar_coa.field
    img: Dict[Key, Poly] = {}
    for ck, parts in chains.items():
        poly = img[ck] = {}
        for chain, lam in parts:
            for combo in product(*(p1.get(k, {}).items() for k in chain)):
                mono = sum((m for m, _ in combo), ())
                for picks in product(*(v.items() for _, v in combo)):
                    wk = _bar_word(tuple(l for l, _ in picks))
                    coeff = lam
                    for _, x in picks:
                        coeff = F.mul(coeff, x)
                    _bump_poly(F, poly, mono, {wk: coeff}, F.one)
        for vec in _normalize(poly).values():
            if not all(map(bar_coa.reduced.has_key, vec)):
                raise ValueError("bar too short to hold the image; rebuild "
                                 "it with a larger weight_cap=")
    return img


def morphism_from_mc(m: MCElement, c: PointedCoalgebra,
                     bar_coa: PointedCoalgebra) -> CoalgebraMorphism:
    """Coalgebra morphism C -> BD of an MC element.

    Splits each value, by the splitting ``bar_coa`` was built on, into
    unit part (the twist) and letter part (minus the one-letter
    component), then extends comultiplicatively.  A target that is not a
    bar is refused.
    """
    split = _bar_splitting(bar_coa).split
    F = c.field
    om = dict(m.object_map)
    twist: Dict[Key, object] = {}
    p1: Dict[Key, Poly] = {}
    for ck in c.reduced.keys():
        units, red = split(m.xi.get(ck, {}))
        twist[ck] = units.get(om[ck[0]], F.zero)
        p1[ck] = {(): vec_scale(F, F.coerce(-1), red)}
    chains = _deconcat_chains(c)
    img = _bar_image_polys(bar_coa, chains, p1)
    return CoalgebraMorphism(c, bar_coa, om, {
        ck: poly.get((), {}) for ck, poly in img.items()}, twist)


# ---------------------------------------------------------------------------
# enumeration of the three hom sets


def enumerate_dg_functors(cobar, d: DgCategory,
                          budget: int = SEARCH_BUDGET) -> List[DgFunctor]:
    """All dg functors out of an exactly materialized cobar category.

    The category is free on its one-letter words, so a functor is any
    generator assignment with d_D F(g) = F(dg); multiplicativity does the
    rest.  Those are the Maurer-Cartan equations of xi = theta F on the
    coalgebra the cobar records, solved with one coordinate per generator
    and D-key in its slot.  F(1) = 1 sends a zero unit (the zero
    category's) to a zero unit only.  A ``CobarResult`` that is not
    exact is refused, and so is a category that ``cobar_construction``
    did not build.  A bare cobar category is taken under a cap (a
    one-object cobar is never exact), but the count needs every
    generator, so one that lacks the one-letter word of a reduced key
    is refused.  Functors come per object map in product order, each
    map's sorted by coordinate tuple.
    """
    if isinstance(cobar, CobarResult) and not cobar.exact:
        raise ValueError(
            "functor enumeration needs an exact cobar materialization")
    src = cobar.category if isinstance(cobar, CobarResult) else cobar
    _same_field(src, d, "functor enumeration")
    F = src.field
    c = getattr(src, "coalgebra", None)
    if c is None:
        raise ValueError("functor enumeration solves on the coalgebra a "
                         "cobar records; pass a cobar_construction result")
    if isinstance(c, FinalCoalgebra):
        c = zero_coalgebra(F)  # its cobar, the zero category, has no rows
    for g in map(_single_word, c.reduced.keys()):
        if not src.quiver.has_key(g):
            raise ValueError(f"the cobar lacks the generator {g!r}; raise "
                             "its length or weight cap")
    gens = [k for k in src.quiver.keys() if len(k[3]) == 1]
    objs = src.quiver.objects
    out: List[DgFunctor] = []
    spent = 0
    for pick in all_object_maps(objs, d.quiver.objects):
        om = dict(zip(objs, pick))
        # the source has zero curvature, so curved image objects are out,
        # and F(1) = 1 sends a zero unit to a zero unit only
        if any(d.curvature_vec(om[x]) or (d.unit_vec(om[x]) and not
                                          src.unit_vec(x)) for x in objs):
            continue
        # keyed by the underlying row, the spelling of the cobar words
        coords = [(g[3][0], (om[g[0]], om[g[1]], g[2], name)) for g in gens
                  for name in d.quiver.slot(om[g[0]], om[g[1]], g[2])]
        sols, spent = _mc_solve(c, d, om, [
            (ck, {dk: _theta(F, ck[2])}) for ck, dk in coords],
            spent, budget)
        out += [_word_functor(src, d, om, _at_point(coords, vals))
                for vals in sols]
    return out


def enumerate_coalgebra_morphisms(c: PointedCoalgebra,
                                  bar_coa: PointedCoalgebra,
                                  weight_cap: Optional[int] = None,
                                  budget: int = SEARCH_BUDGET
                                  ) -> List[CoalgebraMorphism]:
    """All pointed morphisms C -> BD, solving for (one-letter, twist).

    The Maurer-Cartan equations on D, the category of the splitting the
    bar records, are solved as ``mc_from_morphism`` reads a morphism:
    one coordinate per row and one-letter word in its slot, standing for
    minus the letter, then a twist on each degree -1 row whose ends the
    object map identifies, standing for the unit.  Each image is the
    comultiplicative extension of the one-letter part, and each solution
    is validated on the bar's tables.  An image word the bar lacks is
    refused, so a finite bar needs no ``weight_cap``; one that is passed
    also refuses C when a chain of more than ``weight_cap`` parts
    survives its iterated coproduct.  A target that ``bar_construction``
    did not build is refused, a bare ``zero_coalgebra`` too; the bar of
    the empty category takes the one empty morphism from the empty C.
    Morphisms come per object map in product order, each map's sorted by
    coordinate tuple.
    """
    if isinstance(bar_coa, FinalCoalgebra):
        raise ValueError("a CoalgebraMorphism cannot target the final "
                         "coalgebra; every coalgebra has exactly one "
                         "morphism into it")
    _same_field(c, bar_coa, "morphism enumeration")
    sp = _bar_splitting(bar_coa)
    F, d = c.field, sp.cat
    minus = F.coerce(-1)
    slots: Dict[Tuple[object, object, int], List[Tuple[Key, Vec]]] = {}
    # the one-letter words: a bar with any word has every letter k of its
    # splitting as one
    for k in sp.letters if bar_coa.reduced.total_dim() else ():
        slots.setdefault(_bar_word((k,))[:3], []).append(
            (k, vec_scale(F, minus, sp.letter_vec(k))))
    chains = _deconcat_chains(c, weight_cap)
    rows = list(c.reduced.keys())
    out: List[CoalgebraMorphism] = []
    spent = 0
    for pick in all_object_maps(c.objects, bar_coa.objects):
        om = dict(zip(c.objects, pick))
        letters = [(ck, lk, v) for ck in rows
                   for lk, v in slots.get((om[ck[0]], om[ck[1]], ck[2]), [])]
        twisted = [ck for ck in rows if ck[2] == -1 and om[ck[0]] == om[ck[1]]]
        img = _bar_image_polys(bar_coa, chains, _coordinate_polys(
            [(ck, {lk: F.one}) for ck, lk, _ in letters]))
        sols, spent = _mc_solve(c, d, om, [(ck, v) for ck, _, v in letters] + [
            (ck, d.unit_vec(om[ck[0]])) for ck in twisted], spent, budget)
        for vals in sols:
            mor = CoalgebraMorphism(c, bar_coa, om, {
                ck: _substitute(F, poly, vals)[0] for ck, poly in img.items()},
                dict(zip(twisted, vals[len(letters):])))
            bad = mor.validate(max_problems=1)
            if bad:
                raise ValueError(f"solved morphism fails validation: {bad[0]}")
            out.append(mor)
    return out


# ---------------------------------------------------------------------------
# the counit  Omega B D -> D


@dataclass
class CounitData:
    bar: PointedCoalgebra
    cobar: CobarResult
    mc: MCElement
    functor: DgFunctor


def counit_data(d: DgCategory, bar_weight_cap: int) -> CounitData:
    """The identity of BD pushed through the adjunction.

    Its cochain projects one-letter words to minus their letter and kills
    everything longer, so the functor evaluates words of letters-of-words
    by composing in D.  The cobar is weight-capped at ``bar_weight_cap``,
    the same resolution depth both ways; that keeps its differential
    complete, which makes windowed homology trustworthy even on a finite
    materialization.  The zero category is refused: its bar is the
    formal final coalgebra, which has no identity morphism to read.

    Under that weight cap the counit is a functor exactly when
    every product of more than ``bar_weight_cap`` reduced arrows of D
    vanishes: a composite of cobar words past the cap is dropped, while
    the images of the two words still compose in D to such a product.
    ``trunc_poly3`` passes from cap 2 and ``odd_poly5`` from cap 4;
    ``group_like`` (t invertible) fails at every cap.
    """
    bar = bar_construction(d, bar_weight_cap)
    if isinstance(bar, FinalCoalgebra):
        raise ValueError("the zero category's bar is the final coalgebra, "
                         "which has no identity morphism to read; pass a "
                         "category with nonzero units")
    m = mc_from_morphism(identity_morphism(bar))
    cobar = cobar_construction(bar, weight_cap=bar_weight_cap)
    return CounitData(bar, cobar, m,
                      adjunction_functor_from_mc(cobar, d, m))


# ---------------------------------------------------------------------------
# Eilenberg-Zilber comparison  Omega(C (x) C') -> Omega C (x) Omega C'


def _empty_word(x) -> Key:
    return (x, x, 0, ())


def _ez_letter(tk: Key) -> Optional[Key]:
    """The comparison's one-letter rule on a row of C (x) C': c (x) y goes
    to (letter c, empty word at y), x (x) c' to (empty word at x, letter
    c'), and a mixed row to zero (None)."""
    (x, xp), (y, yp), n, (na, nb) = tk
    if nb[0] == "G":
        return pair_key(_single_word((x, y, n, na[1])), _empty_word(yp))
    if na[0] == "G":
        return pair_key(_empty_word(x), _single_word((xp, yp, n, nb[1])))
    return None


@dataclass
class EZData:
    """The comparison Omega(C (x) C') -> Omega C (x) Omega C': the tensor
    coalgebra, its cobar (the source), the target category and the
    functor."""
    tensor: PointedCoalgebra
    source: CobarResult
    target: DgCategory
    functor: DgFunctor


def ez_data(c: PointedCoalgebra, cp: PointedCoalgebra,
            length_cap: int) -> EZData:
    """The comparison cochain on C (x) C' and its functor.

    Rows with a grouplike factor go to the matching one-letter word beside
    an identity; genuinely mixed rows go to zero.  That is a Maurer-Cartan
    element of {C (x) C', Omega C (x) Omega C'}, and its functor is the
    comparison.  ``length_cap`` bounds the cobars of C (x) C' and of both
    factors alike; the factor cobars are built only to tensor them.
    """
    t = tensor_coalgebras(c, cp)
    source, left, right = (cobar_construction(x, length_cap=length_cap)
                           for x in (t, c, cp))
    target = tensor_dg(left.category, right.category)
    F = t.field
    xi: Dict[Key, Vec] = {}
    for tk in t.reduced.keys():
        letter = _ez_letter(tk)
        if letter is not None:
            xi[tk] = {letter: _theta(F, tk[2])}
    m = MCElement({x: x for x in t.objects}, xi)
    return EZData(t, source, target,
                  adjunction_functor_from_mc(source, target, m))


def ez_generator_problems(ez: EZData) -> List[str]:
    """Exactness of the comparison on short words.

    One-letter words over pure rows land on their pair with coefficient
    one and mixed rows die; the two routes around a square of one-letter
    factors agree up to the Koszul sign of the crossing.  Words past the
    source's length cap are not checked.  A two-letter shuffle word of
    stored letters that the cap admits but the quiver lacks is reported
    as missing.
    """
    F = ez.tensor.field
    fun = ez.functor
    problems: List[str] = []
    crows = sorted({(tk[0][0], tk[1][0], tk[2], tk[3][0][1])
                    for tk in ez.tensor.reduced.keys()
                    if tk[3][1][0] == "G"}, key=repr)
    drows = sorted({(tk[0][1], tk[1][1], tk[2], tk[3][1][1])
                    for tk in ez.tensor.reduced.keys()
                    if tk[3][0][0] == "G"}, key=repr)
    quiver = ez.source.category.quiver
    cap = ez.source.length_cap  # a word the cap drops has nothing to check

    for tk in ez.tensor.reduced.keys() if cap >= 1 else ():
        letter = _ez_letter(tk)
        want = {} if letter is None else {letter: F.one}
        if fun.action.get(_single_word(tk), {}) != want:
            problems.append(f"one-letter image off at {tk[3]}")

    for ck in crows:
        for dk in drows:
            want_key = pair_key(_single_word(ck), _single_word(dk))
            slot = ((ck[0], dk[0]), (ck[1], dk[1]), ck[2] + dk[2] + 2)
            cross = F.coerce(-1) if (ck[2] + 1) * (dk[2] + 1) % 2 else F.one
            for word, sign, route in (
                    ((rkey(ck[0], dk), lkey(ck, dk[1])), F.one, "r-then-l"),
                    ((lkey(ck, dk[0]), rkey(ck[1], dk)), cross, "l-then-r")):
                wk = slot + (word,)
                if quiver.has_key(wk):
                    if fun.action.get(wk, {}) != {want_key: sign}:
                        problems.append(f"{route} shuffle off at {(ck, dk)}")
                elif all(quiver.has_key(_single_word(k)) for k in word) \
                        and cap >= 2:
                    problems.append(f"shuffle word missing at {(ck, dk)}")
    return problems


@dataclass
class EZReport:
    window: Tuple[int, int]
    cap: int
    pairs: List[Tuple]
    equal: bool


def ez_compare(c: PointedCoalgebra, cp: PointedCoalgebra,
               window: Tuple[int, int]) -> EZReport:
    """Hom homology on a window, both sides of the comparison.

    Certifies finiteness first: with every cobar letter in degree >= 1 a
    word's length is at most its degree, with every letter in degree <= -1
    at most minus its degree; either bound turns the window into a length
    cap under which the materialized differential is the true one.  Mixed
    signs or degree-0 letters leave infinitely many words in the window,
    so the comparison refuses.  Curved inputs only make sense through the
    associated graded: pass ``associated_graded(c)`` and
    ``associated_graded(cp)``.
    """
    if c.curv or cp.curv:
        raise ValueError("curved comparison only settles the associated "
                         "graded; pass the associated graded coalgebras")
    lo, hi = window
    if lo > hi:
        raise ValueError(f"window {window} is empty; pass lo <= hi")
    degs = [k[2] for k in c.reduced.keys()] + [k[2] for k in cp.reduced.keys()]
    if all(n >= 0 for n in degs):
        cap = max(0, hi + 1)
    elif all(n <= -2 for n in degs):
        cap = max(0, 1 - lo)
    else:
        raise ValueError(
            "cobar letters of mixed sign; no finite cap certifies the window")
    data = ez_data(c, cp, length_cap=cap)
    probs = ez_generator_problems(data)
    if probs:
        raise ValueError(f"comparison functor is off: {probs[0]}")
    src = data.source.category
    tgt = data.target
    pairs: List[Tuple] = []
    equal = True
    for x in src.quiver.objects:
        for y in src.quiver.objects:
            a = src.hom_homology(x, y, lo, hi)
            b = tgt.hom_homology(x, y, lo, hi)
            da = tuple(a.get(n, 0) for n in range(lo, hi + 1))
            db = tuple(b.get(n, 0) for n in range(lo, hi + 1))
            ok = da == db
            equal = equal and ok
            pairs.append((x, y, da, db, ok))
    return EZReport(window, cap, pairs, equal)


# ---------------------------------------------------------------------------
# hom-tensor interchange  {C (x) C', D}  =  {C, {C', D}}


def interchange_problems(c: PointedCoalgebra, cp: PointedCoalgebra,
                         d: DgCategory, reduced_outer: bool = False,
                         max_objects: int = MAX_OBJECTS) -> List[str]:
    """Check the interchange is an equality of tables, not just an iso.

    Currying the basis names -- an outer cochain valued in inner cochains
    becomes one cochain on the tensor rows -- matches objects, bases,
    differentials, compositions, units and curvature with no signs at all.

    With ``reduced_outer`` both outer convolutions are reduced, and the
    left side is {C-bar (x) C', D}: the reduced {C (x) C', D} restricted to
    the cochains on rows whose C leg is not grouplike.  The other rows span
    k[Ob C] (x) C', which d and the reduced comultiplication map into
    itself, so no kept row is reached from them: d and products of kept
    cochains are those of the kernel tensor, whose comultiplication is
    rDelta_C (x) Delta_C' (the terms with a grouplike C leg are what C-bar
    has no counit for).  Only the curvature, eps (x) h' on the other rows,
    has entries to drop.
    """
    inner = convolution_category(cp, d,
                                 max_objects=max_objects).to_dg_category()
    lhs = ConvolutionCategory(tensor_coalgebras(c, cp), d,
                              reduced=reduced_outer, max_objects=max_objects)
    rhs = ConvolutionCategory(c, inner, reduced=reduced_outer,
                              max_objects=max_objects)

    def flat(om: Tuple) -> Tuple:
        # om: per c-object an inner object map (itself a tuple over cp)
        by_pair = {}
        for i, x in enumerate(c.objects):
            for j, xp in enumerate(cp.objects):
                by_pair[(x, xp)] = om[i][j]
        return tuple(by_pair[p] for p in lhs.coalgebra.objects)

    def curry_name(name):
        tag, payload, ik = name
        iname = ik[3]
        if tag == "o":
            if iname[0] == "o":
                return ("o", (payload, iname[1]), iname[2])
            return ("r", rkey(payload, iname[1]), iname[2])
        if iname[0] == "o":
            return ("r", lkey(payload, iname[1]), iname[2])
        return ("r", pair_key(payload, iname[1]), iname[2])

    omap = {om: flat(om) for om in rhs.object_maps}
    if sorted(omap.values(), key=repr) != sorted(lhs.object_maps, key=repr):
        return ["object maps do not correspond"]

    _, r_unit, r_comp, r_diff, r_curv, r_keyed = rhs._object_tables()
    _, l_unit, l_comp, l_diff, l_curv, l_keyed = lhs._object_tables()

    def curry_key(k: Key) -> Key:
        fk, gk, n, name = k
        return (omap[fk], omap[gk], n, curry_name(name))

    # each hom key curried once; a value off its slot is curried apart
    curried = {k: curry_key(k) for ks in r_keyed.values() for k in ks}

    def curry_vec(v: Vec) -> Vec:
        return {curried.get(k) or curry_key(k): coeff for k, coeff in v.items()}

    if reduced_outer:
        def kept(k: Key) -> bool:
            return k[3][1][3][0][0] != "G"

        l_keyed = {pq: [k for k in ks if kept(k)] for pq, ks in l_keyed.items()}
        l_comp = {(g, f): v for (g, f), v in l_comp.items()
                  if kept(g) and kept(f)}
        l_diff = {k: v for k, v in l_diff.items() if kept(k)}
        l_curv = {fk: {k: coeff for k, coeff in v.items() if kept(k)}
                  for fk, v in l_curv.items()}
    for (fk, gk), ks in r_keyed.items():
        if {curried[k] for k in ks} != set(l_keyed[(omap[fk], omap[gk])]):
            return [f"hom bases differ at {(fk, gk)}"]
    problems: List[str] = []
    for what, mine, want in (
            ("differentials differ",
             {curried[k]: curry_vec(v) for k, v in r_diff.items()}, l_diff),
            ("products differ",
             {(curried[g], curried[f]): curry_vec(v)
              for (g, f), v in r_comp.items()}, l_comp),
            ("units differ",
             {omap[fk]: curry_vec(v) for fk, v in r_unit.items()}, l_unit),
            ("curvature differs",
             {omap[fk]: curry_vec(v) for fk, v in r_curv.items()}, l_curv)):
        if mine != want:
            problems += [f"{what} at {k}" for k in sorted(
                mine.keys() | want.keys(), key=repr)
                if mine.get(k) != want.get(k)]
    return problems[:25]
