"""Graded quiver layer: basis bookkeeping, shift and tensor.

The tensor oracle is deliberately dumb: Kuenneth dimension sums written
out longhand.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulcat.quiver import GradedQuiver, composable_words, quiver_tensor


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


# -- words -------------------------------------------------------------------


def test_composable_words_stop_at_max_len():
    # a -> b -> a and a loop at a: words of every length exist
    letters = [("a", "b", 0, "f"), ("b", "a", 1, "g"), ("a", "a", 0, "h")]
    seen = []

    def keep(w):
        seen.append(w)
        return True

    words = composable_words(letters, 2, keep)
    assert max(map(len, seen)) == 2
    assert words == seen
    assert [len(w) for w in words] == [1, 1, 1, 2, 2, 2, 2, 2]
