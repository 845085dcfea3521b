"""Small stock categories and coalgebras used by the tests and perfbench.

Everything here is finite-dimensional and validates; one-object examples
are algebras written as categories on the object "*".  ``mult[(a, b)]``
means "a after b" to match compose(g, f).
"""

from __future__ import annotations

from typing import Dict, Optional

from .dgcat import DgCategory
from .field import Field, Vec
from .quiver import GradedQuiver


def one_object_algebra(
    field: Field,
    basis: Dict[str, int],
    mult: Dict[tuple, Dict[str, object]],
    diff: Optional[Dict[str, Dict[str, object]]] = None,
    curvature: Optional[Dict[str, object]] = None,
) -> DgCategory:
    ob = "*"
    slots: Dict[tuple, list] = {}
    for name, deg in basis.items():
        slots.setdefault((ob, ob, deg), []).append(name)
    quiver = GradedQuiver((ob,), {k: tuple(v) for k, v in slots.items()})

    def key(name) -> tuple:
        return (ob, ob, basis[name], name)

    def to_vec(d: Dict[str, object]) -> Vec:
        return {key(name): field.coerce(c) for name, c in d.items()}

    unit = {ob: {key("e"): field.one}}
    comp = {(key(a), key(b)): to_vec(val) for (a, b), val in mult.items()}
    dtab = {key(n): to_vec(v) for n, v in (diff or {}).items()}
    curv = {ob: to_vec(curvature)} if curvature else None
    return DgCategory(field, quiver, unit, comp, diff=dtab, curvature=curv)


def _with_unit_row(names):
    """Fill in the unit row/column of a multiplication table."""
    mult = {("e", n): {n: 1} for n in names}
    mult.update({(n, "e"): {n: 1} for n in names if n != "e"})
    return mult


def k_category(field: Field) -> DgCategory:
    return one_object_algebra(field, {"e": 0}, {("e", "e"): {"e": 1}})


def a2_category(field: Field) -> DgCategory:
    """Two objects, one arrow between them."""
    quiver = GradedQuiver(
        ("0", "1"),
        {("0", "0", 0): ("e0",), ("1", "1", 0): ("e1",), ("0", "1", 0): ("a",)},
    )
    e0, e1, a = ("0", "0", 0, "e0"), ("1", "1", 0, "e1"), ("0", "1", 0, "a")
    one = field.one
    comp = {
        (e0, e0): {e0: one},
        (e1, e1): {e1: one},
        (a, e0): {a: one},
        (e1, a): {a: one},
    }
    return DgCategory(field, quiver, {"0": {e0: one}, "1": {e1: one}}, comp)


def dual_numbers(field: Field) -> DgCategory:
    """k[x]/(x^2) with x in degree 0."""
    mult = _with_unit_row(["e", "x"])
    mult[("x", "x")] = {}
    return one_object_algebra(field, {"e": 0, "x": 0}, mult)


def exterior_line(field: Field) -> DgCategory:
    """k[x]/(x^2) with x in degree 1 (an exterior generator)."""
    mult = _with_unit_row(["e", "x"])
    mult[("x", "x")] = {}
    return one_object_algebra(field, {"e": 0, "x": 1}, mult)


def truncated_polynomial(field: Field, n: int, gen_degree: int = 0) -> DgCategory:
    """k[x]/(x^n) with |x| = gen_degree; basis e, x1, .., x{n-1}."""
    if n < 2:
        return k_category(field)
    names = ["e"] + [f"x{i}" for i in range(1, n)]
    basis = {"e": 0}
    basis.update({f"x{i}": i * gen_degree for i in range(1, n)})
    mult = _with_unit_row(names)
    for i in range(1, n):
        for j in range(1, n):
            mult[(f"x{i}", f"x{j}")] = {f"x{i+j}": 1} if i + j < n else {}
    return one_object_algebra(field, basis, mult)


def group_like(field: Field) -> DgCategory:
    """k[t]/(t^2 - 1) with t in degree 0.

    The natural splitting of the unit (complement spanned by t) has
    t.t = 1, so its reduced multiplication hits the unit line: the bar
    construction of this algebra is genuinely curved.
    """
    mult = _with_unit_row(["e", "t"])
    mult[("t", "t")] = {"e": 1}
    return one_object_algebra(field, {"e": 0, "t": 0}, mult)


def contractible_arrow(field: Field) -> DgCategory:
    """Two objects, an arrow f and a degree -1 arrow s with ds = f."""
    quiver = GradedQuiver(
        ("0", "1"),
        {
            ("0", "0", 0): ("e0",),
            ("1", "1", 0): ("e1",),
            ("0", "1", 0): ("f",),
            ("0", "1", -1): ("s",),
        },
    )
    e0, e1 = ("0", "0", 0, "e0"), ("1", "1", 0, "e1")
    f, s = ("0", "1", 0, "f"), ("0", "1", -1, "s")
    one = field.one
    comp = {
        (e0, e0): {e0: one},
        (e1, e1): {e1: one},
        (f, e0): {f: one},
        (e1, f): {f: one},
        (s, e0): {s: one},
        (e1, s): {s: one},
    }
    return DgCategory(
        field, quiver, {"0": {e0: one}, "1": {e1: one}}, comp, diff={s: {f: one}}
    )


def curved_nilpotent(field: Field) -> DgCategory:
    """Basis e, u (deg 1), w (deg 2) with u.u = w, h = w, d = 0.

    The curvature is central (u.w = w.u = 0), so d^2 = [h, -] = 0 holds
    while h itself is nonzero: the smallest honestly curved sample.
    """
    mult = _with_unit_row(["e", "u", "w"])
    mult[("u", "u")] = {"w": 1}
    mult[("u", "w")] = {}
    mult[("w", "u")] = {}
    mult[("w", "w")] = {}
    return one_object_algebra(
        field, {"e": 0, "u": 1, "w": 2}, mult, curvature={"w": 1}
    )


def contractible_endo(field: Field) -> DgCategory:
    """Basis e, y (deg -1) with y.y = 0 and d(y) = e.

    The differential of the natural unit complement leaks onto the unit
    line, so the bar construction picks up weight-one curvature; Leibniz
    still closes because e.y - y.e cancels.
    """
    mult = _with_unit_row(["e", "y"])
    mult[("y", "y")] = {}
    return one_object_algebra(
        field, {"e": 0, "y": -1}, mult, diff={"y": {"e": 1}}
    )


def odd_truncated_polynomial(field: Field) -> DgCategory:
    """Free algebra on one odd generator a (deg 1), truncated at a^5.

    d(a) = a^2, so d(a^3) = a^4 by Leibniz.  Odd letters composing
    nontrivially, with the differential feeding back into products, is
    exactly the regime where bar-differential sign conventions diverge;
    this sample exists to keep that regime covered.
    """
    mult = _with_unit_row(["e", "a", "a2", "a3", "a4"])
    mult[("a", "a")] = {"a2": 1}
    mult[("a", "a2")] = {"a3": 1}
    mult[("a2", "a")] = {"a3": 1}
    mult[("a", "a3")] = {"a4": 1}
    mult[("a3", "a")] = {"a4": 1}
    mult[("a2", "a2")] = {"a4": 1}
    return one_object_algebra(
        field,
        {"e": 0, "a": 1, "a2": 2, "a3": 3, "a4": 4},
        mult,
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
    mult = _with_unit_row(["e", "x", "y", "p", "m", "t"])
    mult[("y", "x")] = {"m": 1}
    mult[("y", "p")] = {"t": 1}
    return one_object_algebra(
        field,
        {"e": 0, "x": 1, "y": 1, "p": 2, "m": 2, "t": 3},
        mult,
        diff={"x": {"p": 1}, "m": {"t": -1}},
    )


def contractible_pair(field: Field) -> DgCategory:
    """Basis e, y, z (deg -1), w (deg -2) with d(y) = e and z.y = w.

    Like the contractible endomorphism but with a second odd arrow that
    composes with y, so the unit part of d(y) interacts with merges:
    Leibniz forces d(w) = -z and y.z = -w.  Exercises the weight-one
    curvature of the bar construction against actual merge terms.
    """
    mult = _with_unit_row(["e", "y", "z", "w"])
    mult[("z", "y")] = {"w": 1}
    mult[("y", "z")] = {"w": -1}
    mult[("y", "y")] = {}
    return one_object_algebra(
        field,
        {"e": 0, "y": -1, "z": -1, "w": -2},
        mult,
        diff={"y": {"e": 1}, "w": {"z": -1}},
    )


def polynomial_differential(field: Field) -> DgCategory:
    """k[x]/(x^3), |x| = 1 odd case is dull; this is the d(x)=x^2 exterior
    variant: basis e, x (deg 0), y (deg 1) with x.y = y.x = 0, x.x = 0,
    y.y = 0 and d(x) = y.  Leibniz forces d(x.x) = dx.x + x.dx = y.x + x.y
    = 0, consistent with x.x = 0."""
    mult = _with_unit_row(["e", "x", "y"])
    for pair in [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]:
        mult[pair] = {}
    return one_object_algebra(
        field, {"e": 0, "x": 0, "y": 1}, mult, diff={"x": {"y": 1}}
    )


# ---------------------------------------------------------------------------
# stock coalgebras


def _one_object_coalgebra(field, basis, comult=None, diff=None, curv=None):
    """Coalgebra on a single point with named reduced basis.

    basis: name -> degree; comult entries are name -> {(name, name): coeff};
    diff: name -> {name: coeff}; curv: name -> coeff.
    """
    from .coalgebra import PointedCoalgebra

    ob = "*"
    slots = {}
    for name, deg in basis.items():
        slots.setdefault((ob, ob, deg), []).append(name)
    quiver = GradedQuiver((ob,), {k: tuple(v) for k, v in slots.items()})

    def key(name):
        return (ob, ob, basis[name], name)

    cm = {}
    for name, pairs in (comult or {}).items():
        cm[key(name)] = {
            (key(a), key(b)): field.coerce(c) for (a, b), c in pairs.items()
        }
    df = {}
    for name, img in (diff or {}).items():
        df[key(name)] = {key(n): field.coerce(c) for n, c in img.items()}
    cv = {key(n): field.coerce(c) for n, c in (curv or {}).items()}
    return PointedCoalgebra(field, (ob,), quiver, cm, diff=df, curv=cv)


def w_coalgebra(field: Field):
    """Single primitive w in degree -2 with h(w) = 1; the smallest
    genuinely curved coalgebra."""
    return _one_object_coalgebra(field, {"w": -2}, curv={"w": 1})


def curved_chain(field: Field):
    """c (-3) -> e (-2) -> u (-1) under d, with rDelta(c) = u (x) w and
    h(w) = 1: here d^2(c) = -u comes entirely from the curvature
    coaction (h applied to the right cofactor, with its sign)."""
    return _one_object_coalgebra(
        field,
        {"c": -3, "e": -2, "u": -1, "w": -2},
        comult={"c": {("u", "w"): 1}},
        diff={"c": {"e": 1}, "e": {"u": -1}},
        curv={"w": 1},
    )


def curved_chain_flipped(field: Field):
    """Mirror of curved_chain: rDelta(c) = w (x) u, so d^2(c) = +u via
    the left-cofactor curvature term."""
    return _one_object_coalgebra(
        field,
        {"c": -3, "e": -2, "u": -1, "w": -2},
        comult={"c": {("w", "u"): 1}},
        diff={"c": {"e": 1}, "e": {"u": 1}},
        curv={"w": 1},
    )


def dag_coalgebra(field: Field):
    """Three points x -> y -> z with m splitting as a (x) b; its cobar
    is finite."""
    from .coalgebra import PointedCoalgebra

    quiver = GradedQuiver(
        ("x", "y", "z"),
        {("x", "y", 0): ("a",), ("y", "z", 0): ("b",), ("x", "z", 0): ("m",)},
    )
    a, b, m = ("x", "y", 0, "a"), ("y", "z", 0, "b"), ("x", "z", 0, "m")
    return PointedCoalgebra(
        field, ("x", "y", "z"), quiver, {m: {(a, b): field.one}}
    )


def primitive_pair(field: Field):
    """Two primitives s -> t under d; no comultiplication at all."""
    return _one_object_coalgebra(
        field, {"s": 1, "t": 2}, diff={"s": {"t": 1}}
    )


def neg_primitive(field: Field):
    """Single primitive u in degree -1, nothing else: its cobar is the
    polynomial algebra on one degree-0 endomorphism with d = 0."""
    return _one_object_coalgebra(field, {"u": -1})


def cancel_coalgebra(field: Field):
    """T^c(v)/words>2 written in the basis u1 = v + vv, u2 = vv: both
    basis elements comultiply to w (x) w with w = u1 - u2, so the factor
    graph has cycles while the coalgebra is conilpotent -- only the
    coradical filtration certifies it."""
    ww = {("u1", "u1"): 1, ("u1", "u2"): -1, ("u2", "u1"): -1, ("u2", "u2"): 1}
    return _one_object_coalgebra(
        field, {"u1": 0, "u2": 0}, comult={"u1": dict(ww), "u2": dict(ww)}
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
