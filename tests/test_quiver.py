"""Graded quiver layer: tensor, internal hom, counting, augmentation.

Oracles here are deliberately dumb: Kuenneth dimension sums written out
longhand, and map counting by literal enumeration of candidate actions
checked with validate_quiver_map.  The headline contract is the exact
integer identity |Maps(U(x)V, W)| = |Maps(U, Hom(V, W))|.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulcat.field import GF, QQ
from koszulcat.quiver import (
    AugmentedQuiver,
    GradedQuiver,
    count_quiver_maps,
    quiver_internal_hom,
    quiver_tensor,
    validate_quiver_map,
)


def small_quiver(rng, max_objects=2, max_dim=2, degs=(-1, 0, 1)):
    objects = tuple(f"o{i}" for i in range(rng.randint(1, max_objects)))
    slots = {}
    for x in objects:
        for y in objects:
            for n in degs:
                d = rng.randint(0, max_dim)
                if d:
                    slots[(x, y, n)] = tuple(f"{x}{y}{n}_{i}" for i in range(d))
    return GradedQuiver(objects, slots)


# -- basic structure ---------------------------------------------------------


def test_dims_and_keys():
    q = GradedQuiver(
        ("x", "y"), {("x", "y", 0): ("a", "b"), ("y", "y", 1): ("c",)}
    )
    assert q.dim("x", "y", 0) == 2
    assert q.dim("x", "x", 0) == 0
    assert q.total_dim() == 3
    assert ("x", "y", 0, "a") in set(q.keys())
    assert q.has_key(("y", "y", 1, "c"))
    assert not q.has_key(("y", "y", 0, "c"))
    assert q.degree_support() == (0, 1)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        GradedQuiver(("x", "x"), {})
    with pytest.raises(ValueError):
        GradedQuiver(("x",), {("x", "z", 0): ("a",)})
    with pytest.raises(ValueError):
        GradedQuiver(("x",), {("x", "x", 0): ("a", "a")})
    with pytest.raises(ValueError):
        GradedQuiver(("x",), {("x", "x", "0"): ("a",)})


def test_empty_slots_dropped():
    q = GradedQuiver(("x",), {("x", "x", 0): ()})
    assert q.slots == {}
    assert q.degree_support() == (0, -1)  # empty support convention


# -- shift -------------------------------------------------------------------


def test_shift_moves_degrees_down():
    q = GradedQuiver(("x",), {("x", "x", 2): ("a",), ("x", "x", 0): ("e",)})
    s = q.shifted(1)
    assert s.dim("x", "x", 1) == 1  # a in degree 2 lands in degree 1
    assert s.dim("x", "x", -1) == 1
    assert s.shifted(-1) == q
    assert q.shifted(3).shifted(-1) == q.shifted(2)


# -- tensor: Kuenneth dimensions, longhand oracle ----------------------------


def test_tensor_dims_small_frozen():
    v = GradedQuiver(("x",), {("x", "x", 0): ("a",), ("x", "x", 1): ("b", "c")})
    w = GradedQuiver(("u", "v"), {("u", "v", -1): ("m",)})
    t = quiver_tensor(v, w)
    assert set(t.objects) == {("x", "u"), ("x", "v")}
    # degree -1: a(x)m ; degree 0: b(x)m, c(x)m
    assert t.dim(("x", "u"), ("x", "v"), -1) == 1
    assert t.dim(("x", "u"), ("x", "v"), 0) == 2
    assert t.slot(("x", "u"), ("x", "v"), -1) == (((0, "a"), (-1, "m")),)
    assert t.total_dim() == 3


def test_tensor_dims_match_convolution_sum():
    rng = random.Random(7)
    for _ in range(20):
        v, w = small_quiver(rng), small_quiver(rng)
        t = quiver_tensor(v, w)
        for x in v.objects:
            for y in v.objects:
                for xp in w.objects:
                    for yp in w.objects:
                        for n in range(-4, 5):
                            want = sum(
                                v.dim(x, y, p) * w.dim(xp, yp, n - p)
                                for p in range(-4, 5)
                            )
                            assert t.dim((x, xp), (y, yp), n) == want


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_tensor_total_dim_multiplicative(seed):
    rng = random.Random(seed)
    v, w = small_quiver(rng), small_quiver(rng)
    assert quiver_tensor(v, w).total_dim() == v.total_dim() * w.total_dim()


# -- internal hom ------------------------------------------------------------


def test_internal_hom_dims_frozen():
    v = GradedQuiver(("x",), {("x", "x", 1): ("a",)})
    w = GradedQuiver(("u",), {("u", "u", 0): ("p",), ("u", "u", 1): ("q", "r")})
    h = quiver_internal_hom(v, w)
    f = ((("x", "u")),)
    assert h.objects == (((("x", "u")),),)
    # Hom(f,f)_n = Hom(V(x,x)_1, W(u,u)_{1+n})
    assert h.dim(f, f, 0) == 2  # a -> q, a -> r
    assert h.dim(f, f, -1) == 1  # a -> p
    assert h.slot(f, f, -1) == (("x", "x", 1, "a", "p"),)


def test_internal_hom_formula_random():
    rng = random.Random(11)
    for _ in range(10):
        v, w = small_quiver(rng), small_quiver(rng)
        h = quiver_internal_hom(v, w)
        assert len(h.objects) == len(w.objects) ** len(v.objects)
        for f in h.objects:
            fd = dict(f)
            for g in h.objects:
                gd = dict(g)
                for n in range(-4, 5):
                    want = sum(
                        v.dim(x, y, p) * w.dim(fd[x], gd[y], p + n)
                        for x in v.objects
                        for y in v.objects
                        for p in range(-3, 4)
                    )
                    assert h.dim(f, g, n) == want


def test_internal_hom_cap_guard():
    v = GradedQuiver(tuple("abcde"), {})
    w = GradedQuiver(tuple("uvwxyz"), {})
    with pytest.raises(ValueError, match="max_objects="):
        quiver_internal_hom(v, w, max_objects=100)
    assert len(quiver_internal_hom(v, w, max_objects=10**4).objects) == 6**5


def test_internal_hom_empty_target():
    v = GradedQuiver(("x",), {("x", "x", 0): ("a",)})
    empty = GradedQuiver((), {})
    assert quiver_internal_hom(v, empty).objects == ()
    assert quiver_internal_hom(empty, v).objects == ((),)  # the empty map
    assert quiver_internal_hom(empty, v).total_dim() == 0


# -- counting maps: enumeration oracle ---------------------------------------


def enumerate_map_count(v, w, field):
    """Literal enumeration: every object map, every assignment of every
    source arrow to a vector in the matching target slot."""
    if not v.objects:
        return 1
    count = 0
    for images in itertools.product(w.objects, repeat=len(v.objects)):
        omap = dict(zip(v.objects, images))
        per_key = []
        for key in v.keys():
            x, y, n, _ = key
            tgt = w.slot(omap[x], omap[y], n)
            vecs = []
            for coeffs in itertools.product(
                list(field.elements()), repeat=len(tgt)
            ):
                vec = {
                    (omap[x], omap[y], n, b): c
                    for b, c in zip(tgt, coeffs)
                    if not field.is_zero(c)
                }
                vecs.append(vec)
            per_key.append((key, vecs))
        local = 0
        for choice in itertools.product(*(vs for _, vs in per_key)):
            action = {k: img for (k, _), img in zip(per_key, choice)}
            if not validate_quiver_map(v, w, omap, action):
                local += 1
        count += local
    return count


def test_count_maps_vs_enumeration():
    F = GF(2)
    v = GradedQuiver(("x",), {("x", "x", 0): ("a",), ("x", "x", 1): ("b",)})
    w = GradedQuiver(
        ("u", "v"), {("u", "u", 0): ("p",), ("u", "v", 1): ("q",), ("v", "v", 0): ("r",)}
    )
    assert count_quiver_maps(v, w, F) == enumerate_map_count(v, w, F)


def test_count_maps_vs_enumeration_f3():
    F = GF(3)
    v = GradedQuiver(("x",), {("x", "x", -1): ("a",)})
    w = GradedQuiver(("u",), {("u", "u", -1): ("p", "q")})
    # closed form: 3^(1*2) = 9
    assert count_quiver_maps(v, w, F) == 9 == enumerate_map_count(v, w, F)


def test_count_maps_edge_cases():
    F = GF(2)
    v = GradedQuiver(("x",), {("x", "x", 0): ("a",)})
    empty = GradedQuiver((), {})
    assert count_quiver_maps(empty, v, F) == 1
    assert count_quiver_maps(v, empty, F) == 0
    with pytest.raises(ValueError):
        count_quiver_maps(v, v, QQ)


# -- the adjunction count identity -------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_hom_adjunction_counts(p):
    F = GF(p)
    rng = random.Random(100 + p)
    for _ in range(15):
        u = small_quiver(rng, max_objects=2, max_dim=1)
        v = small_quiver(rng, max_objects=2, max_dim=1)
        w = small_quiver(rng, max_objects=2, max_dim=1)
        lhs = count_quiver_maps(quiver_tensor(u, v), w, F)
        rhs = count_quiver_maps(u, quiver_internal_hom(v, w), F)
        assert lhs == rhs


# -- augmented quivers -------------------------------------------------------


def one_object_augmented(field, extra_eps):
    q = GradedQuiver(("x",), {("x", "x", 0): ("e", "t"), ("x", "x", 1): ("z",)})
    unit = {"x": {("x", "x", 0, "e"): field.one}}
    counit = {"x": {"e": field.one, "t": extra_eps}}
    return AugmentedQuiver(field, q, unit, counit)


def test_augmented_validate_ok_and_reduced_split():
    F = GF(5)
    aq = one_object_augmented(F, F.zero)
    assert aq.validate() == []
    red = aq.reduced_basis()
    assert [name for name, _ in red[("x", "x", 0)]] == ["t"]
    assert [name for name, _ in red[("x", "x", 1)]] == ["z"]


def test_augmented_reduced_corrects_counit():
    F = GF(5)
    aq = one_object_augmented(F, F.coerce(2))
    assert aq.validate() == []
    ((name, v),) = aq.reduced_basis()[("x", "x", 0)]
    assert name == "red1"
    # eps(v) == 0
    eps = aq.counit["x"]
    total = F.zero
    for key, c in v.items():
        total = F.add(total, F.mul(eps.get(key[3], F.zero), c))
    assert F.is_zero(total)


def test_augmented_validate_catches_bad_unit():
    F = GF(5)
    q = GradedQuiver(("x",), {("x", "x", 0): ("e",), ("x", "x", 1): ("z",)})
    missing = AugmentedQuiver(F, q, {}, {"x": {"e": F.one}})
    assert any("no unit" in m for m in missing.validate())
    wrong_slot = AugmentedQuiver(
        F, q, {"x": {("x", "x", 1, "z"): F.one}}, {"x": {"z": F.one}}
    )
    assert any("degree-0" in m for m in wrong_slot.validate())
    not_one = AugmentedQuiver(
        F, q, {"x": {("x", "x", 0, "e"): F.coerce(2)}}, {"x": {"e": F.one}}
    )
    assert any("expected 1" in m for m in not_one.validate())


def test_validate_quiver_map_catches_slot_leak():
    v = GradedQuiver(("x",), {("x", "x", 0): ("a",)})
    w = GradedQuiver(("u", "v"), {("u", "u", 0): ("p",), ("u", "v", 0): ("q",)})
    omap = {"x": "u"}
    good = {("x", "x", 0, "a"): {("u", "u", 0, "p"): 1}}
    bad = {("x", "x", 0, "a"): {("u", "v", 0, "q"): 1}}
    assert validate_quiver_map(v, w, omap, good) == []
    assert validate_quiver_map(v, w, omap, bad) != []
