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
with the Maurer-Cartan category MC*(C, D) (homs from the unital convolution,
differential twisted by the endpoint elements), the internal hom
uHom(C, BD) = B MC*(C, D), and the Eilenberg-Zilber comparison functor
Omega(C (x) C') -> Omega C (x) Omega C'.

Cochains are spanned by ("o", x, dk) -- the grouplike row at x sent to the
D-arrow dk -- and ("r", ck, dk), of degree |dk| - |ck|.  Both variants
read a ``PointedCoalgebra``'s tables as they stand, and one materializer,
``ConvolutionCategory.tables``, serves the dg category, the reduced
validator, the MC category and the interchange check.  The kernel tensor
C-bar (x) C' of the interchange is a restriction of the reduced
{C (x) C', D}; ``interchange_problems`` says why.  All tables are finite;
the infinite constructions only enter through materialized bar and cobar
output.

Maurer-Cartan elements are found by propagation, not by trying every
cochain.  The equation is quadratic only through xi(c2) o xi(c1); once
one side of every such pair in a row is fixed, the row is linear in the
remaining coordinates, and all such rows are solved at once.  The search
branches on a coordinate only where no row is linear yet.  Solving stage
by stage along the coradical filtration alone does not cut the search,
because d lowers weight through the merge term: a weight-2 row of a bar
constrains weight-1 coordinates.
"""

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .field import (Field, Vec, _compose, _normalize, vec_addmul,
                    vec_bump, vec_scale, vec_sub)
from .quiver import (GradedQuiver, Key, lkey, object_maps as all_object_maps,
                     pair_key, rkey)
from .dgcat import DgCategory, DgFunctor, tensor_dg
from .matrix import SparseMatrix
from .coalgebra import (
    CoalgebraMorphism,
    FinalCoalgebra,
    PointedCoalgebra,
    identity_morphism,
    tensor_coalgebras,
    associated_graded,
    zero_coalgebra,
)
from .barcobar import (
    CobarResult,
    Splitting,
    _letter_weight,
    bar_construction,
    cobar_construction,
)


# search budget: branch values plus points of solution families in the
# Maurer-Cartan search; candidates in the functor and morphism searches
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
    for x in m:
        if x not in objects:
            raise ValueError(f"object map names unknown object {x!r}")
    for x in objects:
        if x not in m:
            raise ValueError(f"object map misses a value on {x!r}")
        if m[x] not in targets:
            raise ValueError(f"object map sends {x!r} to unknown object "
                             f"{m[x]!r}")
    return tuple(m[x] for x in objects)


def _charge(spent: int, budget: int) -> int:
    if spent > budget:
        raise ValueError(f"{spent} candidates exceed the search budget "
                         f"{budget}; raise budget=")
    return spent


# ---------------------------------------------------------------------------
# the convolution category


class ConvolutionCategory:
    """{C, D}, or the reduced {C-bar, D}, with the tables exposed per basis
    cochain.

    Objects are object maps, stored as tuples in coalgebra-object order.
    The coalgebra's ``reduced``, ``comult``, ``diff`` and ``curv`` are read
    as they stand.  ``reduced`` drops the grouplike rows, and with them the
    units and the h_D terms of the curvature.  ``tables`` materializes
    either side; ``to_dg_category`` only the counital one, because the
    reduced convolution has no units.
    """

    def __init__(self, c: PointedCoalgebra, cat: DgCategory,
                 reduced: bool = False, object_maps: Optional[Sequence] = None,
                 max_objects: int = MAX_OBJECTS):
        if c.field is not cat.field:
            raise ValueError("convolution needs matching scalar fields")
        self.field = c.field
        self.coalgebra = c
        self.reduced = reduced
        self.cat = cat
        self.index = {x: i for i, x in enumerate(c.objects)}
        if object_maps is None:
            maps = list(all_object_maps(c.objects, cat.quiver.objects,
                                        max_objects))
        else:
            maps = list(dict.fromkeys(
                _om_tuple(c.objects, cat.quiver.objects, m)
                for m in object_maps))
        self.object_maps = maps
        self._dT: Optional[Dict] = None
        self._deltaT: Optional[Dict] = None

    def om_value(self, fk: Tuple, x):
        return fk[self.index[x]]

    # -- transposed coalgebra tables (d and Delta read backwards) ----------

    def _diff_transpose(self) -> Dict:
        if self._dT is None:
            t: Dict = {}
            for c, dv in self.coalgebra.diff.items():
                for ck2, coeff in dv.items():
                    t.setdefault(ck2, []).append((c, coeff))
            self._dT = t
        return self._dT

    def _delta_transpose(self) -> Dict:
        if self._deltaT is None:
            t = {}
            for c, terms in self.coalgebra.comult.items():
                for (a, b), coeff in terms.items():
                    t.setdefault((a, b), []).append((c, coeff))
            self._deltaT = t
        return self._deltaT

    # -- hom bases ---------------------------------------------------------

    def hom_keys(self, fk: Tuple, gk: Tuple) -> List[Key]:
        out = []
        dkeys = list(self.cat.quiver.keys())
        if not self.reduced:
            for i, x in enumerate(self.coalgebra.objects):
                fx, gx = fk[i], gk[i]
                for dk in dkeys:
                    if dk[0] == fx and dk[1] == gx:
                        out.append((fk, gk, dk[2], ("o", x, dk)))
        for ck in self.coalgebra.reduced.keys():
            fx = self.om_value(fk, ck[0])
            gy = self.om_value(gk, ck[1])
            for dk in dkeys:
                if dk[0] == fx and dk[1] == gy:
                    out.append((fk, gk, dk[2] - ck[2], ("r", ck, dk)))
        return out

    # -- structure tables per basis cochain --------------------------------

    def diff_vec(self, key: Key) -> Vec:
        fk, gk, n, name = key
        F = self.field
        out: Vec = {}
        dk = name[2]
        for dk2, c in self.cat.diff.get(dk, {}).items():
            vec_bump(F, out, (fk, gk, n + 1, (name[0], name[1], dk2)), c)
        if name[0] == "r":
            # -(-1)^n phi(dc): rows whose differential hits this one
            ck = name[1]
            s = F.coerce(-1) if n % 2 == 0 else F.one
            for cprev, coeff in self._diff_transpose().get(ck, ()):
                vec_bump(F, out, (fk, gk, n + 1, ("r", cprev, dk)),
                         F.mul(s, coeff))
        return out

    def comp_vec(self, kpsi: Key, kphi: Key) -> Vec:
        """psi * phi on basis cochains; key order matches comp[(g, f)]."""
        fk, gmid, p, nphi = kphi
        gmid2, hk, q, npsi = kpsi
        if gmid2 != gmid:
            return {}
        F = self.field
        dphi, dpsi = nphi[2], npsi[2]
        if dphi[1] != dpsi[0]:
            return {}
        dd = self.cat.comp.get((dpsi, dphi))
        if not dd:
            return {}
        n = p + q
        out: Vec = {}
        if nphi[0] == "o" and npsi[0] == "o":
            if nphi[1] != npsi[1]:
                return {}
            for dk2, c in dd.items():
                vec_bump(F, out, (fk, hk, n, ("o", nphi[1], dk2)), c)
        elif nphi[0] == "o":
            # phi eats the canonical grouplike at the source of psi's row
            ck = npsi[1]
            if self.reduced or nphi[1] != ck[0]:
                return {}
            neg = (p * ck[2]) % 2 == 1
            for dk2, c in dd.items():
                vec_bump(F, out, (fk, hk, n, ("r", ck, dk2)),
                         F.neg(c) if neg else c)
        elif npsi[0] == "o":
            ck = nphi[1]
            if self.reduced or npsi[1] != ck[1]:
                return {}
            for dk2, c in dd.items():
                vec_bump(F, out, (fk, hk, n, ("r", ck, dk2)), c)
        else:
            a, b = nphi[1], npsi[1]
            for crow, lam in self._delta_transpose().get((a, b), ()):
                coeff = F.neg(lam) if ((p + a[2]) * b[2]) % 2 else lam
                for dk2, c in dd.items():
                    vec_bump(F, out, (fk, hk, n, ("r", crow, dk2)),
                             F.mul(coeff, c))
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
        if not self.reduced:
            for i, x in enumerate(self.coalgebra.objects):
                for dk, c in self.cat.curvature_vec(fk[i]).items():
                    vec_bump(F, out, (fk, fk, dk[2], ("o", x, dk)), c)
        return out

    # -- materialization and validation ------------------------------------

    def tables(self, objects: Sequence[Tuple[object, Tuple]]):
        """Every structure table over labelled object maps.

        ``objects`` lists (label, object map) pairs.  Every basis key starts
        with the labels of its two ends, so objects with equal maps stay
        apart; comp_vec and diff_vec only compare those entries.
        Returns (quiver, unit, comp, diff, curvature, keyed): the tables a
        ``DgCategory`` takes, with the plain differential, and keyed[(lf,
        lg)] the hom keys from lf to lg.  The reduced side has no units.
        """
        keyed: Dict[Tuple, List[Key]] = {}
        slots: Dict = {}
        for lf, fk in objects:
            for lg, gk in objects:
                ks = [(lf, lg) + k[2:] for k in self.hom_keys(fk, gk)]
                keyed[(lf, lg)] = ks
                for k in ks:
                    slots.setdefault((lf, lg, k[2]), []).append(k[3])
        quiver = GradedQuiver([lf for lf, _ in objects], slots)

        def at(lf, vec: Vec) -> Vec:
            return {(lf, lf) + k[2:]: c for k, c in vec.items()}

        unit = {} if self.reduced else {lf: at(lf, self.unit_vec(fk))
                                        for lf, fk in objects}
        comp = {}
        for lf, _ in objects:
            for lg, _ in objects:
                for lh, _ in objects:
                    for kpsi in keyed[(lg, lh)]:
                        for kphi in keyed[(lf, lg)]:
                            v = self.comp_vec(kpsi, kphi)
                            if v:
                                comp[(kpsi, kphi)] = v
        diff = {}
        for ks in keyed.values():
            for k in ks:
                v = self.diff_vec(k)
                if v:
                    diff[k] = v
        curvature = {lf: at(lf, self.curvature_vec(fk)) for lf, fk in objects}
        return quiver, unit, comp, diff, curvature, keyed

    def _object_tables(self):
        return self.tables([(fk, fk) for fk in self.object_maps])

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

    def _outer_curvature(self, vec: Vec, post: bool) -> Vec:
        # h_D o phi (post) / phi o h_D (pre), applied to the values
        F = self.field
        out: Vec = {}
        for (fk, gk, n, name), c in vec.items():
            dk = name[2]
            if post:
                dd = self.cat.compose(self.cat.curvature_vec(dk[1]),
                                      self.cat.basis_vec(dk))
            else:
                dd = self.cat.compose(self.cat.basis_vec(dk),
                                      self.cat.curvature_vec(dk[0]))
            for dk2, c2 in dd.items():
                vec_bump(F, out, (fk, gk, n + 2, (name[0], name[1], dk2)),
                         F.mul(c, c2))
        return out

    def _validate_reduced(self, max_problems: int) -> List[str]:
        """Reduced convolution over a possibly curved D is not itself a
        curved category: d^2 phi = [eta f h_C, phi]_* + h_D o phi - phi o h_D
        holds exactly, with the outer terms vanishing iff D is uncurved.
        Checks that identity on the materialized tables, then associativity
        and the Leibniz rule by the table-driven passes of
        ``DgCategory.validate``.
        """
        F = self.field
        quiver, _, comp, diff, curvature, keyed = self._object_tables()
        # no units: only passes that never read one run on these tables
        tabled = DgCategory(F, quiver, {}, comp, diff=diff, curvature=curvature)
        curved = self.cat.is_curved()
        problems: List[str] = []
        for ks in keyed.values():
            for k in ks:
                one = {k: F.one}
                lhs = tabled.apply_d(diff.get(k, {}))
                rhs = vec_sub(F, tabled.compose(tabled.curvature_vec(k[1]), one),
                              tabled.compose(one, tabled.curvature_vec(k[0])))
                if curved:
                    rhs = vec_addmul(F, rhs, F.one,
                                     self._outer_curvature(one, True))
                    rhs = vec_addmul(F, rhs, F.coerce(-1),
                                     self._outer_curvature(one, False))
                if lhs != rhs:
                    problems.append(f"d^2 identity fails on {k}")
                    if len(problems) >= max_problems:
                        return problems
        tabled._composition_problems(problems, max_problems)
        return problems


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
    for ck2, coeff in coa.diff.get(ck, {}).items():
        # -(-1)^{|xi|} xi(dc) with |xi| = 1
        r = vec_addmul(F, r, coeff, xi.get(ck2, {}))
    for (a, b), lam in coa.comult.get(ck, {}).items():
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

    Raises if the candidate is not an honest degree-1 cochain (wrong slot
    or degree shift other than +1) -- that is malformed input, not a failed
    equation.
    """
    om = dict(zip(c.objects, _om_tuple(c.objects, d.quiver.objects,
                                       cand.object_map)))
    xi: Dict[Key, Vec] = {}
    for ck, v in cand.xi.items():
        if not c.reduced.has_key(ck):
            raise ValueError(f"unknown coalgebra key {ck}")
        for dk in v:
            if not d.quiver.has_key(dk):
                raise ValueError(f"unknown target arrow {dk}")
            if dk[0] != om[ck[0]] or dk[1] != om[ck[1]]:
                raise ValueError(f"value of {ck} leaves its slot")
            if dk[2] != ck[2] + 1:
                raise ValueError("twisting cochain must have degree 1")
        xi[ck] = dict(v)
    residual = {}
    for ck in c.reduced.keys():
        r = _mc_residual_row(c, d, om, xi, ck)
        if r:
            residual[ck] = r
    return (not residual), residual


def _mc_coords(coa: PointedCoalgebra, d: DgCategory,
               om: Dict) -> List[Tuple[Key, Key]]:
    coords = []
    for ck in coa.reduced.keys():
        fx, fy = om[ck[0]], om[ck[1]]
        for name in d.quiver.slot(fx, fy, ck[2] + 1):
            coords.append((ck, (fx, fy, ck[2] + 1, name)))
    return coords


def _mc_row_columns(coa: PointedCoalgebra, d: DgCategory, coords, free, xi,
                    ck: Key) -> Dict[int, Vec]:
    """Nonzero coefficient vectors of the unfixed coordinates in row ck.

    ``free`` maps each row to its unfixed coordinate indices; the row must
    have a fixed side in every cofactor pair, so it is affine in them.
    """
    F = coa.field
    lin: Dict[int, Vec] = {}
    for i in free.get(ck, ()):
        # a copy: the loops below bump into it
        lin[i] = dict(d.diff.get(coords[i][1], {}))
    for ck2, coeff in coa.diff.get(ck, {}).items():
        for i in free.get(ck2, ()):
            vec_bump(F, lin.setdefault(i, {}), coords[i][1], coeff)
    for (a, b), lam in coa.comult.get(ck, {}).items():
        for i in free.get(b, ()):
            term = d.compose({coords[i][1]: F.one}, xi.get(a, {}))
            lin[i] = vec_addmul(F, lin.get(i, {}), _pair_sign(F, lam, a, b),
                                term)
        for i in free.get(a, ()):
            term = d.compose(xi.get(b, {}), {coords[i][1]: F.one})
            lin[i] = vec_addmul(F, lin.get(i, {}), _pair_sign(F, lam, a, b),
                                term)
    return {i: v for i, v in lin.items() if v}


def _mc_solutions(coa: PointedCoalgebra, d: DgCategory, om: Dict, spent: int,
                  budget: int) -> Tuple[List[Dict[Key, Vec]], int]:
    """Every solution over one object map, in coordinate order; see
    ``mc_enumerate``.  Returns (cochains, budget spent so far)."""
    F = coa.field
    coords = _mc_coords(coa, d, om)
    n = len(coords)
    by_row: Dict[Key, List[int]] = {}
    for i, (ck, _) in enumerate(coords):
        by_row.setdefault(ck, []).append(i)
    found: List[Dict[int, object]] = []

    def cochain(vals):
        xi: Dict[Key, Vec] = {}
        for i, v in vals.items():
            if not F.is_zero(v):
                ck, dk = coords[i]
                xi.setdefault(ck, {})[dk] = v
        return xi

    def visit(vals, pending):
        nonlocal spent
        if not pending and len(vals) == n:
            found.append(vals)
            return
        xi = cochain(vals)
        free: Dict[Key, List[int]] = {}  # rows with unfixed coordinates
        for ck, idx in by_row.items():
            left = [i for i in idx if i not in vals]
            if left:
                free[ck] = left
        eqs: Dict[Tuple[Key, Key], int] = {}
        rhs: Dict[int, object] = {}
        cols: Dict[int, Dict[int, object]] = {}
        rest: List[Key] = []
        for ck in pending:
            if any(a in free and b in free for a, b in coa.comult.get(ck, ())):
                rest.append(ck)  # xi o xi still quadratic here
                continue
            const = _mc_residual_row(coa, d, om, xi, ck)
            lin = _mc_row_columns(coa, d, coords, free, xi, ck)
            if not lin:
                if const:
                    return  # a checked row fails
                continue
            for dk, c in const.items():
                rhs[eqs.setdefault((ck, dk), len(eqs))] = F.neg(c)
            for i, v in lin.items():
                col = cols.setdefault(i, {})
                for dk, c in v.items():
                    col[eqs.setdefault((ck, dk), len(eqs))] = c
        if cols:
            # every affine row at once: x = particular + kernel span
            ids = list(cols)
            A = SparseMatrix(F, len(eqs), len(ids),
                             {(r, j): c for j, i in enumerate(ids)
                              for r, c in cols[i].items()})
            sol, kernel = A.solution_space(rhs)
            if sol is None:
                return
        else:
            ids = [i for left in free.values() for i in left]
            if not ids:
                found.append(vals)
                return
            if rest:
                ids = ids[:1]  # branch on the first unfixed coordinate
            # else no row constrains the unfixed coordinates at all
            sol, kernel = {}, [{j: F.one} for j in range(len(ids))]
        if kernel and F.size is None:
            raise ValueError("Maurer-Cartan search has to branch on a free "
                             "coordinate here, which needs a finite field")
        spent = _charge(spent + (F.size or 1) ** len(kernel), budget)
        for ts in product(F.elements(), repeat=len(kernel)) if kernel else [()]:
            x = dict(sol)
            for t, kv in zip(ts, kernel):
                for j, c in kv.items():
                    x[j] = F.add(x.get(j, F.zero), F.mul(t, c))
            point = dict(vals)
            for j, i in enumerate(ids):
                point[i] = x.get(j, F.zero)
            visit(point, rest)

    visit({}, list(coa.reduced.keys()))
    found.sort(key=lambda vals: [vals[i] for i in range(n)])
    return [cochain(vals) for vals in found], spent


def mc_enumerate(c: PointedCoalgebra, d: DgCategory,
                 object_maps: Optional[Sequence] = None,
                 budget: int = SEARCH_BUDGET) -> List[MCElement]:
    """All Maurer-Cartan elements, by propagation and linear solves.

    The unknowns are the coordinates of xi on each reduced row.  The
    residual of a row is d_D xi(c) + xi(dc) + sum +-xi(c2) o xi(c1) + h(c);
    once every cofactor pair of the row has one side fully fixed, each
    xi o xi term is linear in the other side, so the row is affine in its
    unfixed coordinates.  The search repeats three steps: rows with no
    unfixed coordinate are checked; all affine rows are solved together
    as one linear system (inconsistent: prune; otherwise every point of
    the solution family is visited); failing both, it branches on the
    first unfixed coordinate in row order.  Solving weight by weight
    along the coradical filtration would not cut the search: d lowers
    weight through the merge term, so in B(trunc_poly3) the weight-2 row
    [x|x] constrains the weight-1 coordinate xi[x^2], and a stage-only
    solver still visits every weight-1 point.

    Over an infinite field the search returns the solutions when every
    coordinate is forced and refuses where it would have to branch.  The
    budget counts every branch value and every point of a family.
    Elements come per object map in lexicographic coordinate order; an
    object map given twice is searched once.
    """
    if object_maps is None:
        object_maps = all_object_maps(c.objects, d.quiver.objects)
    out: List[MCElement] = []
    seen = set()
    spent = 0
    for om in object_maps:
        key = _om_tuple(c.objects, d.quiver.objects, om)
        if key in seen:
            continue
        seen.add(key)
        om = dict(zip(c.objects, key))
        sols, spent = _mc_solutions(c, d, om, spent, budget)
        out.extend(MCElement(om, xi) for xi in sols)
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
                elements: Optional[List[MCElement]] = None,
                budget: int = SEARCH_BUDGET, max_objects: int = MAX_OBJECTS) -> MCCategory:
    """MC*(C, D): homs from {C, D}, differential d + xi' . - (-1)^| | . xi.

    The twisted differential squares to zero only when D brings no
    curvature of its own, so curved targets are refused.
    """
    for x in d.quiver.objects:
        if d.curvature_vec(x):
            raise ValueError("Maurer-Cartan category needs an uncurved target")
    F = c.field
    if elements is None:
        elements = mc_enumerate(c, d, budget=budget)
    else:
        for m in elements:
            ok, residual = mc_check(c, d, m)
            if not ok:
                bad = sorted(residual, key=repr)[0]
                raise ValueError(
                    f"supplied object fails the Maurer-Cartan equation at {bad}")
        elements = list(elements)
    oms = [tuple(m.object_map[x] for x in c.objects) for m in elements]
    conv = ConvolutionCategory(c, d, object_maps=oms, max_objects=max_objects)
    labels = [("mc", i) for i in range(len(elements))]
    quiver, unit, comp, plain, _, keyed = conv.tables(list(zip(labels, oms)))
    xvs = {lab: {(lab, lab, 1, ("r", ck, dk)): coeff
                 for ck, v in m.xi.items() for dk, coeff in v.items()}
           for lab, m in zip(labels, elements)}
    diff = {}
    for (li, lj), ks in keyed.items():
        for k in ks:
            one = {k: F.one}
            v = vec_addmul(F, plain.get(k, {}), F.one,
                           _compose(F, comp, xvs[lj], one))
            s = F.one if k[2] % 2 else F.coerce(-1)
            v = vec_addmul(F, v, s, _compose(F, comp, one, xvs[li]))
            if v:
                diff[k] = v
    cat = DgCategory(F, quiver, unit, comp, diff=diff)
    return MCCategory(list(elements), cat, conv, oms)


def internal_hom(c, d, weight_cap: int,
                 elements: Optional[List[MCElement]] = None,
                 budget: int = SEARCH_BUDGET):
    """uHom(C, BD) = B MC*(C, D).

    ``d`` is the dg category whose bar construction is the hom target; pass
    the final coalgebra to mean the final target (= bar of the one-object
    category with zero unit).  The empty coalgebra and final/zero sentinels
    fall out of the construction itself: an empty C gives the one-point
    Maurer-Cartan category with zero homs, whose bar is final; an empty D
    gives no objects at all, whose bar is the zero coalgebra.
    """
    from .dgcat import zero_category
    if isinstance(d, FinalCoalgebra):
        field = d.field if not isinstance(c, FinalCoalgebra) else c.field
        d = zero_category(field)
    if isinstance(c, FinalCoalgebra):
        # absorbing source: morphisms out of the final coalgebra only reach
        # zero-unit objects, so the hom collapses to a sentinel
        bd_final = bool(d.quiver.objects) and d.quiver.total_dim() == 0 \
            and all(not d.unit_vec(x) for x in d.quiver.objects)
        return FinalCoalgebra(c.field) if bd_final else zero_coalgebra(c.field)
    mcc = mc_category(c, d, elements=elements, budget=budget)
    return bar_construction(mcc.category, weight_cap)


# ---------------------------------------------------------------------------
# transports along  Hom(Omega C, D)  =  MC{C, D}  =  Hom(C, BD)


def _theta(n: int) -> int:
    # suspension dressing; its square is 1, so both transport directions
    # use the same factor
    return -1 if ((n * (n - 1)) // 2) % 2 == 0 else 1


def _sign(field: Field, s: int):
    return field.one if s > 0 else field.coerce(-1)


def _single_word(ck: Key) -> Key:
    return (ck[0], ck[1], ck[2] + 1, (ck,))


def _eval_word(d: DgCategory, om: Dict, images: Dict[Key, Vec],
               letters: Tuple, x) -> Vec:
    # the letters' images composed in path order; the unit on no letters
    if not letters:
        return d.unit_vec(om[x])
    v = dict(images.get(letters[0], {}))
    for ck in letters[1:]:
        if not v:
            break
        v = d.compose(images.get(ck, {}), v)
    return v


def universal_cochain(c: PointedCoalgebra, length_cap: Optional[int] = None,
                      weight_cap: Optional[int] = None
                      ) -> Tuple[CobarResult, MCElement]:
    """The tautological element of MC{C, Omega C}.

    Each reduced row goes to its own one-letter word, dressed so that the
    Maurer-Cartan equation becomes the cobar differential of the letter.
    Returns the cobar materialization used alongside the element; the
    default caps are just deep enough for ``mc_check`` (residuals never
    reach past two-letter words).
    """
    if length_cap is None and weight_cap is None:
        length_cap = 2
    cobar = cobar_construction(c, length_cap=length_cap, weight_cap=weight_cap)
    F = c.field
    xi: Dict[Key, Vec] = {}
    for ck in c.reduced.keys():
        xi[ck] = {_single_word(ck): _sign(F, _theta(ck[2]))}
    return cobar, MCElement({x: x for x in c.objects}, xi)


def _as_category(source) -> DgCategory:
    return source.category if isinstance(source, CobarResult) else source


def adjunction_functor_from_mc(cobar, d: DgCategory, m: MCElement) -> DgFunctor:
    """Extend a twisting cochain multiplicatively over cobar words.

    ``cobar`` may be a materialization result or its category.  One-letter
    words get the dressed cochain value, longer words the composite of
    their letters' values in path order, empty words the unit.
    """
    src = _as_category(cobar)
    F = src.field
    om = dict(m.object_map)
    dressed: Dict[Key, Vec] = {}
    for ck, v in m.xi.items():
        dressed[ck] = vec_scale(F, _sign(F, _theta(ck[2])), v)
    action: Dict[Key, Vec] = {}
    for k in src.quiver.keys():
        v = _eval_word(d, om, dressed, k[3], k[0])
        if v:
            action[k] = v
    return DgFunctor(src, d, {x: om[x] for x in src.quiver.objects}, action)


def adjunction_mc_from_functor(fun: DgFunctor, c: PointedCoalgebra) -> MCElement:
    """Read the twisting cochain back off a functor on a cobar category."""
    F = c.field
    xi: Dict[Key, Vec] = {}
    for ck in c.reduced.keys():
        v = fun.action.get(_single_word(ck))
        if v:
            xi[ck] = vec_scale(F, _sign(F, _theta(ck[2])), v)
    return MCElement({x: fun.object_map[x] for x in c.objects}, xi)


def mc_from_morphism(mor: CoalgebraMorphism, splitting: Splitting) -> MCElement:
    """MC element of a morphism into a bar coalgebra.

    The one-letter component of the morphism is minus the suspended
    cochain; the twist functional supplies its unit-direction part, which
    the letters cannot see.
    """
    cat = splitting.cat
    F = cat.field
    om = dict(mor.object_map)
    xi: Dict[Key, Vec] = {}
    for ck in mor.source.reduced.keys():
        v: Vec = {}
        for wk, coeff in mor.action.get(ck, {}).items():
            if len(wk[3]) == 1:
                v = vec_addmul(F, v, F.neg(coeff),
                               splitting.letter_vec(wk[3][0]))
        a = mor.twist.get(ck)
        if a is not None:
            v = vec_addmul(F, v, a, cat.unit_vec(om[ck[0]]))
        if v:
            xi[ck] = v
    return MCElement(om, xi)


def _bar_words_from_p1(c: PointedCoalgebra, bar_coa: PointedCoalgebra,
                       p1: Dict[Key, Vec]) -> Dict[Key, Vec]:
    """Comultiplicative extension of a one-letter component.

    Weight w of the image is p1 tensored w times against the iterated
    deconcatenation -- sign-free, because the letter coordinates already
    carry the degree shifts the word keys expect.
    """
    F = c.field
    cap = c.reduced.total_dim() + 1
    action: Dict[Key, Vec] = {}
    for ck in c.reduced.keys():
        out: Vec = {}
        base = {ck: F.one}
        for w in range(1, cap + 2):
            parts = c.deconcat(base, w)
            if not parts:
                break
            if w > cap:
                raise ValueError(
                    "iterated coproducts do not terminate; no bar image")
            for chain, lam in parts.items():
                picks = [p1.get(k, {}) for k in chain]
                if any(not p for p in picks):
                    continue
                for combo in product(*(p.items() for p in picks)):
                    letters = tuple(l for l, _ in combo)
                    coeff = lam
                    for _, s in combo:
                        coeff = F.mul(coeff, s)
                    wk = (letters[0][0], letters[-1][1],
                          sum(k[2] - 1 for k in letters), letters)
                    vec_bump(F, out, wk, coeff)
        for wk in out:
            if not bar_coa.reduced.has_key(wk):
                raise ValueError(
                    "bar too short to hold the image; rebuild it with a "
                    "larger weight_cap=")
        if out:
            action[ck] = out
    return action


def morphism_from_mc(m: MCElement, c: PointedCoalgebra,
                     bar_coa: PointedCoalgebra,
                     splitting: Splitting) -> CoalgebraMorphism:
    """Coalgebra morphism C -> BD of an MC element.

    Splits each value into unit part (the twist) and letter part (minus
    the one-letter component), then extends comultiplicatively.
    """
    F = c.field
    om = dict(m.object_map)
    twist: Dict[Key, object] = {}
    p1: Dict[Key, Vec] = {}
    for ck in c.reduced.keys():
        v = m.xi.get(ck)
        if not v:
            continue
        units, red = splitting.split(v)
        a = units.get(om[ck[0]])
        if a is not None and not F.is_zero(a):
            twist[ck] = a
        if red:
            p1[ck] = vec_scale(F, F.coerce(-1), red)
    action = _bar_words_from_p1(c, bar_coa, p1)
    return CoalgebraMorphism(c, bar_coa, om, action, twist)


# ---------------------------------------------------------------------------
# enumeration of the three hom sets


def enumerate_dg_functors(cobar, d: DgCategory,
                          budget: int = SEARCH_BUDGET) -> List[DgFunctor]:
    """All dg functors out of an exactly materialized cobar category.

    The category is free on its one-letter words, so a functor is any
    generator assignment commuting with d; multiplicativity does the rest.
    Truncated materializations are refused -- a dropped differential term
    would silently weaken the generator check.
    """
    if isinstance(cobar, CobarResult):
        if not cobar.exact:
            raise ValueError(
                "functor enumeration needs an exact cobar materialization")
        src = cobar.category
    else:
        src = cobar
    F = src.field
    gens = [k for k in src.quiver.keys() if len(k[3]) == 1]
    objs = src.quiver.objects
    out: List[DgFunctor] = []
    spent = 0
    for pick in all_object_maps(objs, d.quiver.objects):
        om = dict(zip(objs, pick))
        # the source has zero curvature, so curved image objects are out
        if any(d.curvature_vec(om[x]) for x in objs):
            continue
        coords: List[Tuple[Key, Key]] = []
        for g in gens:
            fx, fy = om[g[0]], om[g[1]]
            for name in d.quiver.slot(fx, fy, g[2]):
                coords.append((g, (fx, fy, g[2], name)))
        if coords and F.size is None:
            raise ValueError("functor enumeration needs a finite field")
        spent = _charge(spent + (F.size or 1) ** len(coords), budget)
        elems = list(F.elements()) if coords else []
        for assignment in product(elems, repeat=len(coords)):
            # keyed by the underlying row, the spelling _eval_word reads
            images: Dict[Key, Vec] = {}
            for (g, dk), val in zip(coords, assignment):
                if not F.is_zero(val):
                    images.setdefault(g[3][0], {})[dk] = val
            ok = True
            for g in gens:
                lhs: Vec = {}
                for wk, coeff in src.diff.get(g, {}).items():
                    lhs = vec_addmul(F, lhs, coeff,
                                     _eval_word(d, om, images, wk[3], wk[0]))
                if lhs != d.apply_d(images.get(g[3][0], {})):
                    ok = False
                    break
            if not ok:
                continue
            action: Dict[Key, Vec] = {}
            for k in src.quiver.keys():
                v = _eval_word(d, om, images, k[3], k[0])
                if v:
                    action[k] = v
            out.append(DgFunctor(src, d, om, action))
    return out


def enumerate_coalgebra_morphisms(c: PointedCoalgebra,
                                  bar_coa: PointedCoalgebra,
                                  weight_cap: Optional[int] = None,
                                  budget: int = SEARCH_BUDGET
                                  ) -> List[CoalgebraMorphism]:
    """All pointed morphisms C -> BD, searching (objects, one-letter, twist).

    Comultiplicativity pins every higher weight down from the one-letter
    component, so the space is finite; the full validator has the last
    word on each candidate.  Pass the weight cap the bar was built with --
    images must provably fit under it, else the search refuses.
    """
    F = c.field
    maxw = 0
    slots: Dict[Tuple[object, object, int], List[Key]] = {}
    for wk in bar_coa.reduced.keys():
        maxw = max(maxw, len(wk[3]))
        if len(wk[3]) == 1:
            slots.setdefault((wk[0], wk[1], wk[2]), []).append(wk[3][0])
    limit = weight_cap if weight_cap is not None else maxw
    for ck in c.reduced.keys():
        if c.deconcat({ck: F.one}, limit + 1):
            raise ValueError(
                "bar weight cap too small to certify the enumeration; "
                "rebuild the bar and pass a larger weight_cap=")
    rows = list(c.reduced.keys())
    twist_rows = [ck for ck in rows if ck[2] == -1]
    out: List[CoalgebraMorphism] = []
    spent = 0
    for pick in all_object_maps(c.objects, bar_coa.objects):
        om = dict(zip(c.objects, pick))
        coords: List[Tuple[Key, Key]] = []
        for ck in rows:
            for letter in slots.get((om[ck[0]], om[ck[1]], ck[2]), []):
                coords.append((ck, letter))
        n = len(coords) + len(twist_rows)
        if n and F.size is None:
            raise ValueError("morphism enumeration needs a finite field")
        spent = _charge(spent + (F.size or 1) ** n, budget)
        elems = list(F.elements()) if n else []
        for assignment in product(elems, repeat=n):
            p1: Dict[Key, Vec] = {}
            for (ck, letter), val in zip(coords, assignment[:len(coords)]):
                if not F.is_zero(val):
                    p1.setdefault(ck, {})[letter] = val
            twist = {}
            for ck, val in zip(twist_rows, assignment[len(coords):]):
                if not F.is_zero(val):
                    twist[ck] = val
            cand = CoalgebraMorphism(
                c, bar_coa, om, _bar_words_from_p1(c, bar_coa, p1), twist)
            if not cand.validate():
                out.append(cand)
    return out


# ---------------------------------------------------------------------------
# the counit  Omega B D -> D


@dataclass
class CounitData:
    splitting: Splitting
    bar: PointedCoalgebra
    cobar: CobarResult
    mc: MCElement
    functor: DgFunctor


def counit_data(d: DgCategory, bar_weight_cap: int,
                length_cap: Optional[int] = None,
                weight_cap: Optional[int] = None) -> CounitData:
    """The identity of BD pushed through the adjunction.

    Its cochain projects one-letter words to minus their letter and kills
    everything longer, so the functor evaluates words of letters-of-words
    by composing in D.  Weight-capping the cobar keeps its differential
    complete, which makes windowed homology trustworthy even on a finite
    materialization.

    Under the default weight cap the counit is a functor exactly when
    every product of more than ``bar_weight_cap`` reduced arrows of D
    vanishes: a composite of cobar words past the cap is dropped, while
    the images of the two words still compose in D to such a product.
    ``trunc_poly3`` passes from cap 2 and ``odd_poly5`` from cap 4;
    ``group_like`` (t invertible) fails at every cap.
    """
    sp = Splitting(d)
    bar = bar_construction(d, bar_weight_cap, splitting=sp)
    m = mc_from_morphism(identity_morphism(bar), sp)
    if length_cap is None and weight_cap is None:
        # same resolution depth both ways; weight capping keeps d complete
        weight_cap = bar_weight_cap
    cobar = cobar_construction(bar, length_cap=length_cap,
                               weight_cap=weight_cap)
    return CounitData(sp, bar, cobar, m,
                      adjunction_functor_from_mc(cobar, d, m))


# ---------------------------------------------------------------------------
# Eilenberg-Zilber comparison  Omega(C (x) C') -> Omega C (x) Omega C'


def _empty_word(x) -> Key:
    return (x, x, 0, ())


@dataclass
class EZData:
    tensor: PointedCoalgebra
    source: CobarResult
    left: CobarResult
    right: CobarResult
    target: DgCategory
    mc: MCElement
    functor: DgFunctor


def ez_data(c: PointedCoalgebra, cp: PointedCoalgebra,
            length_cap: Optional[int] = None,
            weight_cap: Optional[int] = None) -> EZData:
    """The comparison cochain on C (x) C' and its functor.

    Rows with a grouplike factor go to the matching one-letter word beside
    an identity; genuinely mixed rows go to zero.  That is a Maurer-Cartan
    element of {C (x) C', Omega C (x) Omega C'}, and its functor is the
    comparison.  The caps bound the cobars of C (x) C' and of both factors
    alike.
    """
    t = tensor_coalgebras(c, cp)
    source, left, right = (
        cobar_construction(x, length_cap=length_cap, weight_cap=weight_cap)
        for x in (t, c, cp))
    target = tensor_dg(left.category, right.category)
    F = t.field
    xi: Dict[Key, Vec] = {}
    for tk in t.reduced.keys():
        na, nb = tk[3]
        s = _sign(F, _theta(tk[2]))
        if nb[0] == "G":
            ck = (tk[0][0], tk[1][0], tk[2], na[1])
            xi[tk] = {pair_key(_single_word(ck), _empty_word(nb[1])): s}
        elif na[0] == "G":
            dk = (tk[0][1], tk[1][1], tk[2], nb[1])
            xi[tk] = {pair_key(_empty_word(na[1]), _single_word(dk)): s}
    m = MCElement({x: x for x in t.objects}, xi)
    return EZData(t, source, left, right, target, m,
                  adjunction_functor_from_mc(source, target, m))


def ez_generator_problems(ez: EZData) -> List[str]:
    """Exactness of the comparison on short words.

    One-letter words over pure rows land on their pair with coefficient
    one and mixed rows die; the two routes around a square of one-letter
    factors agree up to the Koszul sign of the crossing.  A two-letter
    shuffle word that the source's caps admit but its quiver lacks is
    reported as missing.
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
    for tk in ez.tensor.reduced.keys():
        na, nb = tk[3]
        if nb[0] == "G":
            ck = (tk[0][0], tk[1][0], tk[2], na[1])
            want = {pair_key(_single_word(ck), _empty_word(nb[1])): F.one}
        elif na[0] == "G":
            dk = (tk[0][1], tk[1][1], tk[2], nb[1])
            want = {pair_key(_empty_word(na[1]), _single_word(dk)): F.one}
        else:
            want = {}
        if fun.action.get(_single_word(tk), {}) != want:
            problems.append(f"one-letter image off at {tk[3]}")
    src = ez.source
    quiver = src.category.quiver

    def admitted(word) -> bool:
        # both letters are stored and the caps keep the two-letter word,
        # so the cobar must hold it
        return (all(quiver.has_key(_single_word(k)) for k in word)
                and (src.length_cap is None or src.length_cap >= 2)
                and (src.weight_cap is None or
                     sum(_letter_weight(k) for k in word) <= src.weight_cap))

    for ck in crows:
        for dk in drows:
            want_key = pair_key(_single_word(ck), _single_word(dk))
            slot = ((ck[0], dk[0]), (ck[1], dk[1]), ck[2] + dk[2] + 2)
            cross = _sign(F, -1 if ((ck[2] + 1) * (dk[2] + 1)) % 2 else 1)
            for word, sign, route in (
                    ((rkey(ck[0], dk), lkey(ck, dk[1])), F.one, "r-then-l"),
                    ((lkey(ck, dk[0]), rkey(ck[1], dk)), cross, "l-then-r")):
                wk = slot + (word,)
                if quiver.has_key(wk):
                    if fun.action.get(wk, {}) != {want_key: sign}:
                        problems.append(f"{route} shuffle off at {(ck, dk)}")
                elif admitted(word):
                    problems.append(f"shuffle word missing at {(ck, dk)}")
    return problems


@dataclass
class EZReport:
    window: Tuple[int, int]
    mode: str
    cap: int
    pairs: List[Tuple]
    equal: bool


def ez_compare(c: PointedCoalgebra, cp: PointedCoalgebra,
               window: Tuple[int, int], mode: str = "direct") -> EZReport:
    """Hom homology on a window, both sides of the comparison.

    Certifies finiteness first: with every cobar letter in degree >= 1 a
    word's length is at most its degree, with every letter in degree <= -1
    at most minus its degree; either bound turns the window into a length
    cap under which the materialized differential is the true one.  Mixed
    signs or degree-0 letters leave infinitely many words in the window,
    so the comparison refuses.  Curved inputs only make sense through the
    associated graded (``mode="graded"``).
    """
    if mode == "graded":
        c = associated_graded(c)
        cp = associated_graded(cp)
    elif mode != "direct":
        raise ValueError(f"unknown mode {mode!r}")
    if c.curv or cp.curv:
        raise ValueError("curved comparison only settles the associated "
                         "graded; rerun with mode='graded'")
    lo, hi = window
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
    return EZReport(window, mode, cap, pairs, equal)


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

    def curry_key(k: Key) -> Key:
        fk, gk, n, name = k
        return (omap[fk], omap[gk], n, curry_name(name))

    def curry_vec(v: Vec) -> Vec:
        return {curry_key(k): coeff for k, coeff in v.items()}

    _, r_unit, r_comp, r_diff, r_curv, r_keyed = rhs._object_tables()
    _, l_unit, l_comp, l_diff, l_curv, l_keyed = lhs._object_tables()
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
        if {curry_key(k) for k in ks} != set(l_keyed[(omap[fk], omap[gk])]):
            return [f"hom bases differ at {(fk, gk)}"]
    problems: List[str] = []
    for what, mine, want in (
            ("differentials differ",
             {curry_key(k): curry_vec(v) for k, v in r_diff.items()}, l_diff),
            ("products differ",
             {(curry_key(g), curry_key(f)): curry_vec(v)
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
