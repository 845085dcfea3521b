"""Small stock categories and coalgebras used by the tests and perfbench.

Everything here is finite-dimensional and validates; one-object examples
are algebras written as categories on the object "*".

Every instance is built by names, through one builder per structure:
``category_by_names`` and ``coalgebra_by_names``.  Both read
``named_keys``, which maps each arrow name to its key and spans the
graded quiver; an arrow is given by its degree on "*" or by its
(source, target, degree).  The category builder fills in the units and
the unit-law rows 1 o f and f o 1 itself: the unit at each object is the
first degree-0 endomorphism listed there (``e`` in every one-object
sample).  It takes only the other products, d and h, and a product left
out is zero; ``products[(g, f)]`` means "g after f" to match
compose(g, f).  The coalgebra builder takes rDelta, d and h by names.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .coalgebra import PointedCoalgebra
from .dgcat import DgCategory
from .field import Field, Vec
from .quiver import GradedQuiver, Key


def named_keys(
    arrows: Dict[str, object],
) -> Tuple[Dict[str, Key], GradedQuiver]:
    """name -> key for ``arrows``, and the quiver the keys span.

    ``arrows`` maps each arrow name to its degree on the one object
    ``"*"`` or to its (source, target, degree); names are distinct across
    the quiver.  The objects come in the order the arrows first name them.
    """
    keys: Dict[str, Key] = {}
    slots: Dict[tuple, list] = {}
    for name, spec in arrows.items():
        x, y, n = ("*", "*", spec) if isinstance(spec, int) else spec
        keys[name] = (x, y, n, name)
        slots.setdefault((x, y, n), []).append(name)
    objects = dict.fromkeys(x for k in keys.values() for x in k[:2])
    return keys, GradedQuiver(objects, slots)


def _on_keys(field: Field, keys: Dict[str, Key], vec: Optional[Dict]) -> Vec:
    return {keys[name]: field.coerce(c) for name, c in (vec or {}).items()}


def _diff_on_keys(field: Field, keys: Dict[str, Key], diff) -> Dict[Key, Vec]:
    return {keys[n]: _on_keys(field, keys, v) for n, v in (diff or {}).items()}


def category_by_names(
    field: Field,
    arrows: Dict[str, object],
    products: Optional[Dict[tuple, Dict[str, object]]] = None,
    diff: Optional[Dict[str, Dict[str, object]]] = None,
    curvature: Optional[Dict[str, object]] = None,
) -> DgCategory:
    """The dg category on ``arrows`` (see ``named_keys``), its tables
    given by names: ``products[(g, f)]`` is g after f, ``diff[f]`` is d f
    and ``curvature[w]`` the coefficient of w in h at w's object.

    The unit at each object is the first degree-0 endomorphism listed
    there, and the unit laws fill in the rows 1 o f and f o 1, ahead of
    ``products``; a product left out is zero.
    """
    keys, quiver = named_keys(arrows)
    one = field.one
    unit: Dict[object, Key] = {}
    for k in keys.values():
        if k[0] == k[1] and k[2] == 0:
            unit.setdefault(k[0], k)
    comp = {(unit[k[1]], k): {k: one} for k in keys.values()}
    comp.update({(k, unit[k[0]]): {k: one}
                 for k in keys.values() if k != unit[k[0]]})
    for (g, f), v in (products or {}).items():
        comp[(keys[g], keys[f])] = _on_keys(field, keys, v)
    h: Dict[object, Vec] = {}
    for name, c in (curvature or {}).items():
        h.setdefault(keys[name][0], {})[keys[name]] = field.coerce(c)
    return DgCategory(
        field, quiver, {x: {k: one} for x, k in unit.items()}, comp,
        diff=_diff_on_keys(field, keys, diff), curvature=h)


def coalgebra_by_names(
    field: Field,
    arrows: Dict[str, object],
    comult: Optional[Dict[str, Dict[tuple, object]]] = None,
    diff: Optional[Dict[str, Dict[str, object]]] = None,
    curv: Optional[Dict[str, object]] = None,
) -> PointedCoalgebra:
    """The pointed coalgebra on the objects and reduced arrows of
    ``arrows`` (see ``named_keys``), its tables given by names:
    ``comult[c]`` maps name pairs (c', c'') to the coefficient of
    c' (x) c'' in rDelta c, ``diff[c]`` is d c and ``curv[c]`` is h(c).
    """
    keys, quiver = named_keys(arrows)
    cm = {keys[n]: {(keys[a], keys[b]): field.coerce(c)
                    for (a, b), c in pairs.items()}
          for n, pairs in (comult or {}).items()}
    return PointedCoalgebra(
        field, quiver.objects, quiver, cm,
        diff=_diff_on_keys(field, keys, diff),
        curv=_on_keys(field, keys, curv))


def k_category(field: Field) -> DgCategory:
    return category_by_names(field, {"e": 0})


def a2_category(field: Field) -> DgCategory:
    """Two objects, one arrow between them."""
    return category_by_names(
        field, {"e0": ("0", "0", 0), "e1": ("1", "1", 0), "a": ("0", "1", 0)})


def dual_numbers(field: Field) -> DgCategory:
    """k[x]/(x^2) with x in degree 0."""
    return category_by_names(field, {"e": 0, "x": 0})


def exterior_line(field: Field) -> DgCategory:
    """k[x]/(x^2) with x in degree 1 (an exterior generator)."""
    return category_by_names(field, {"e": 0, "x": 1})


def truncated_polynomial(field: Field, n: int, gen_degree: int = 0) -> DgCategory:
    """k[x]/(x^n) with |x| = gen_degree; basis e, x1, .., x{n-1}, and k
    itself for n < 2."""
    basis = {"e": 0}
    basis.update({f"x{i}": i * gen_degree for i in range(1, n)})
    mult = {(f"x{i}", f"x{j}"): {f"x{i+j}": 1}
            for i in range(1, n) for j in range(1, n - i)}
    return category_by_names(field, basis, mult)


def group_like(field: Field) -> DgCategory:
    """k[t]/(t^2 - 1) with t in degree 0.

    The natural splitting of the unit (complement spanned by t) has
    t.t = 1, so its reduced multiplication hits the unit line: the bar
    construction of this algebra is genuinely curved.
    """
    return category_by_names(field, {"e": 0, "t": 0}, {("t", "t"): {"e": 1}})


def contractible_arrow(field: Field) -> DgCategory:
    """Two objects, an arrow f and a degree -1 arrow s with ds = f."""
    return category_by_names(
        field,
        {"e0": ("0", "0", 0), "e1": ("1", "1", 0), "f": ("0", "1", 0),
         "s": ("0", "1", -1)},
        diff={"s": {"f": 1}},
    )


def curved_nilpotent(field: Field) -> DgCategory:
    """Basis e, u (deg 1), w (deg 2) with u.u = w, h = w, d = 0.

    The curvature is central (u.w = w.u = 0), so d^2 = [h, -] = 0 holds
    while h itself is nonzero: the smallest honestly curved sample.
    """
    return category_by_names(
        field, {"e": 0, "u": 1, "w": 2}, {("u", "u"): {"w": 1}},
        curvature={"w": 1},
    )


def contractible_endo(field: Field) -> DgCategory:
    """Basis e, y (deg -1) with y.y = 0 and d(y) = e.

    The differential of the natural unit complement leaks onto the unit
    line, so the bar construction picks up weight-one curvature; Leibniz
    still closes because e.y - y.e cancels.
    """
    return category_by_names(field, {"e": 0, "y": -1}, diff={"y": {"e": 1}})


def odd_truncated_polynomial(field: Field) -> DgCategory:
    """Free algebra on one odd generator a (deg 1), truncated at a^5.

    d(a) = a^2, so d(a^3) = a^4 by Leibniz.  Odd letters composing
    nontrivially, with the differential feeding back into products, is
    exactly the regime where bar-differential sign conventions diverge;
    this sample exists to keep that regime covered.
    """
    return category_by_names(
        field,
        {"e": 0, "a": 1, "a2": 2, "a3": 3, "a4": 4},
        {
            ("a", "a"): {"a2": 1},
            ("a", "a2"): {"a3": 1},
            ("a2", "a"): {"a3": 1},
            ("a", "a3"): {"a4": 1},
            ("a3", "a"): {"a4": 1},
            ("a2", "a2"): {"a4": 1},
        },
        diff={"a": {"a2": 1}, "a3": {"a4": 1}},
    )


def odd_pair_differential(field: Field) -> DgCategory:
    """Two odd arrows x, y with d(x) = p and y.p nonzero but d(y) = 0.

    The asymmetry matters: a merge of y with the differential of x has
    no partner term to cancel against, so any bar-differential sign
    drift between the internal and merge terms shows up as d^2 != 0 on
    the two-letter word (x|y).  Uniform-parity samples can never see
    this (a global weight-parity twist absorbs the difference).
    """
    return category_by_names(
        field,
        {"e": 0, "x": 1, "y": 1, "p": 2, "m": 2, "t": 3},
        {("y", "x"): {"m": 1}, ("y", "p"): {"t": 1}},
        diff={"x": {"p": 1}, "m": {"t": -1}},
    )


def contractible_pair(field: Field) -> DgCategory:
    """Basis e, y, z (deg -1), w (deg -2) with d(y) = e and z.y = w.

    Like the contractible endomorphism but with a second odd arrow that
    composes with y, so the unit part of d(y) interacts with merges:
    Leibniz forces d(w) = -z and y.z = -w.  Exercises the weight-one
    curvature of the bar construction against actual merge terms.
    """
    return category_by_names(
        field,
        {"e": 0, "y": -1, "z": -1, "w": -2},
        {("z", "y"): {"w": 1}, ("y", "z"): {"w": -1}},
        diff={"y": {"e": 1}, "w": {"z": -1}},
    )


def polynomial_differential(field: Field) -> DgCategory:
    """The square-zero algebra on x (deg 0) and y (deg 1) with d(x) = y:
    basis e, x, y, every product of x and y zero.  Leibniz holds on
    x.x = 0 because d(x.x) = y.x + x.y = 0."""
    return category_by_names(
        field, {"e": 0, "x": 0, "y": 1}, diff={"x": {"y": 1}})


# ---------------------------------------------------------------------------
# stock coalgebras


def w_coalgebra(field: Field) -> PointedCoalgebra:
    """Single primitive w in degree -2 with h(w) = 1; the smallest
    genuinely curved coalgebra."""
    return coalgebra_by_names(field, {"w": -2}, curv={"w": 1})


def curved_chain(field: Field) -> PointedCoalgebra:
    """c (-3) -> e (-2) -> u (-1) under d, with rDelta(c) = u (x) w and
    h(w) = 1: here d^2(c) = -u comes entirely from the curvature
    coaction (h applied to the right cofactor, with its sign)."""
    return coalgebra_by_names(
        field,
        {"c": -3, "e": -2, "u": -1, "w": -2},
        comult={"c": {("u", "w"): 1}},
        diff={"c": {"e": 1}, "e": {"u": -1}},
        curv={"w": 1},
    )


def curved_chain_flipped(field: Field) -> PointedCoalgebra:
    """Mirror of curved_chain: rDelta(c) = w (x) u, so d^2(c) = +u via
    the left-cofactor curvature term."""
    return coalgebra_by_names(
        field,
        {"c": -3, "e": -2, "u": -1, "w": -2},
        comult={"c": {("w", "u"): 1}},
        diff={"c": {"e": 1}, "e": {"u": 1}},
        curv={"w": 1},
    )


def dag_coalgebra(field: Field) -> PointedCoalgebra:
    """Three points x -> y -> z with m splitting as a (x) b; its cobar
    is finite."""
    return coalgebra_by_names(
        field,
        {"a": ("x", "y", 0), "b": ("y", "z", 0), "m": ("x", "z", 0)},
        comult={"m": {("a", "b"): 1}},
    )


def primitive_pair(field: Field) -> PointedCoalgebra:
    """Two primitives s -> t under d; no comultiplication at all."""
    return coalgebra_by_names(field, {"s": 1, "t": 2}, diff={"s": {"t": 1}})


def neg_primitive(field: Field) -> PointedCoalgebra:
    """Single primitive u in degree -1, nothing else: its cobar is the
    polynomial algebra on one degree-0 endomorphism with d = 0."""
    return coalgebra_by_names(field, {"u": -1})


def cancel_coalgebra(field: Field) -> PointedCoalgebra:
    """T^c(v)/words>2 written in the basis u1 = v + vv, u2 = vv: both
    basis elements comultiply to w (x) w with w = u1 - u2, so the factor
    graph has cycles while the coalgebra is conilpotent -- only the
    coradical filtration certifies it."""
    ww = {("u1", "u1"): 1, ("u1", "u2"): -1, ("u2", "u1"): -1, ("u2", "u2"): 1}
    return coalgebra_by_names(
        field, {"u1": 0, "u2": 0}, comult={"u1": ww, "u2": ww}
    )


COALGEBRA_LIBRARY = {
    "w": w_coalgebra,
    "curved_chain": curved_chain,
    "curved_chain_flipped": curved_chain_flipped,
    "dag": dag_coalgebra,
    "primitive_pair": primitive_pair,
    "neg_primitive": neg_primitive,
    "cancel": cancel_coalgebra,
}


CATEGORY_LIBRARY = {
    "k": k_category,
    "a2": a2_category,
    "dual_numbers": dual_numbers,
    "exterior_line": exterior_line,
    "trunc_poly3": lambda F: truncated_polynomial(F, 3),
    "trunc_poly3_graded": lambda F: truncated_polynomial(F, 3, gen_degree=2),
    "group_like": group_like,
    "contractible_arrow": contractible_arrow,
    "contractible_endo": contractible_endo,
    "contractible_pair": contractible_pair,
    "curved_nilpotent": curved_nilpotent,
    "poly_diff": polynomial_differential,
    "odd_poly5": odd_truncated_polynomial,
    "odd_pair_diff": odd_pair_differential,
}
