"""Graded quiver layer: basis bookkeeping, shift, tensor and words.

The tensor oracle is deliberately dumb: Kuenneth dimension sums written
out longhand.  The word oracle ``keep_listing`` is the listing without
the word trie or weight budgets: it builds every extension and filters
it afterwards.  Ranked words (``Words`` and its counted ``WordQuiver``)
are checked against the listing of ``WordTrie`` and ``keep_listing`` on
seeded random letter graphs: loops, cycles, isolated objects, length
caps 0 to 5, and acyclic graphs with no cap.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulcat.quiver import (GradedQuiver, WordQuiver, Words, WordTrie,
                              quiver_tensor)


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


def keep_listing(letters, max_len, weights=None, max_weight=None):
    """The words of ``WordTrie`` as tuples of letters, by extending
    every word by every letter that leaves its target and dropping the
    candidates ``keep`` refuses, each weight summed afresh.  A cap cut
    when a letter, or a stored word extended by a stored letter, fails
    ``keep``."""
    def keep(w):
        return ((max_len is None or len(w) <= max_len)
                and (max_weight is None
                     or sum(weights[a] for a in w) <= max_weight))

    by_src = {}
    for k in letters:
        by_src.setdefault(k[0], []).append(k)
    words = []
    frontier = [(k,) for k in letters if keep((k,))]
    while frontier:
        words.extend(frontier)
        frontier = [w + (k,) for w in frontier
                    for k in by_src.get(w[-1][1], ()) if keep(w + (k,))]
    stored = {}
    for w in words:
        if len(w) == 1:
            stored.setdefault(w[0][0], []).append(w[0])
    cut = (not all(keep((k,)) for k in letters)
           or any(not keep(w + (a,)) for w in words
                  for a in stored.get(w[-1][1], ())))
    return words, cut


def trie_listing(letters, max_len, weights=None, max_weight=None):
    """``WordTrie``'s words as tuples of letters, and its ``cut``."""
    objects = tuple(dict.fromkeys(x for a in letters for x in a[:2]))
    by_name = {a[3]: a for a in letters}
    trie = WordTrie(objects, letters, max_len, weights, max_weight)
    return [tuple(by_name[n] for n in k[3]) for k in trie.keys], trie.cut


def test_word_trie_stops_at_caps():
    # a -> b -> a and a loop at a: words of every length exist, so the
    # listing ends only because no word past a cap is ever built
    letters = [("a", "b", 0, "f"), ("b", "a", 1, "g"), ("a", "a", 0, "h"),
               ("b", "c", 0, "x")]
    words, cut = trie_listing(letters, 2)
    assert [len(w) for w in words] == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    assert cut
    weights = dict(zip(letters, [1, 2, 1, 3]))
    for max_len, max_weight in [(2, None), (None, 0), (None, 1), (None, 4),
                                (0, 3), (1, 3), (3, 3), (2, 4), (4, 2)]:
        words, cut = trie_listing(letters, max_len, weights, max_weight)
        for w in words:
            assert max_len is None or len(w) <= max_len
            assert max_weight is None or \
                sum(weights[a] for a in w) <= max_weight
        assert (words, cut) == keep_listing(letters, max_len, weights,
                                            max_weight), (max_len, max_weight)
    # a cap that drops a letter cuts, even with no composite to drop
    assert trie_listing(letters, 0) == ([], True)
    assert trie_listing(letters[3:], 1, weights, 2) == ([], True)
    assert trie_listing(letters[3:], 1, weights, 3) == ([(letters[3],)], False)
    # a word cut below max_len still counts when max_len ends the listing:
    # a cannot take b, and the one two-letter word (a, c) ends at w
    a, b, c = ("x", "y", 0, "a"), ("y", "z", 0, "b"), ("y", "w", 0, "c")
    weights = {a: 1, b: 3, c: 1}
    for max_len in (2, 3, None):
        got = trie_listing([a, b, c], max_len, weights, 3)
        assert got == ([(a,), (b,), (c,), (a, c)], True)
        assert got == keep_listing([a, b, c], max_len, weights, 3)
    # weights count only under a weight cap
    assert trie_listing(letters, 3, weights) == trie_listing(letters, 3)


def test_word_trie_parent_tail_and_splits():
    # a -> b -> a and a loop at a, as above: words of every length
    letters = [("a", "b", 0, "f"), ("b", "a", 1, "g"), ("a", "a", 0, "h"),
               ("b", "c", 0, "x")]
    weights = dict(zip(letters, [1, 2, 1, 3]))
    objects = ("a", "b", "c")
    # (caps, length of the longest word): a length cap, a weight cap, both
    for max_len, max_weight, longest in [(3, None, 3), (None, 4, 4),
                                         (3, 5, 3), (0, None, 0)]:
        trie = WordTrie(objects, letters, max_len, weights, max_weight)
        keys, parent, tail = trie.keys, trie.parent, trie.tail
        ids = {k[3]: w for w, k in enumerate(keys)}
        pos = {a[3]: i for i, a in enumerate(letters)}
        assert len(parent) == len(tail) == len(keys)
        # the words at max_len, never extended, keep their parent and tail
        assert max(map(len, ids), default=0) == longest
        # each word once, in id order, as its parent and last letter
        assert list(trie.steps()) == [
            (w, parent[w], pos[k[3][-1]]) for w, k in enumerate(keys)]
        for w, (_, _, _, name) in enumerate(keys):
            assert parent[w] == ids.get(name[:-1], -1)
            assert tail[w] == ids.get(name[1:], -1)
            assert trie.ext(parent[w], pos[name[-1]]) == w
            splits = [(name[:i], name[i:]) for i in range(1, len(name))]
            assert [(keys[p][3], keys[t][3])
                    for p, t in trie.splits(w)] == splits
            if len(name) == max_len:  # nothing is listed past the cap
                assert all(trie.ext(w, a) is None
                           for a in range(len(letters)))


def test_word_trie_refuses_repeated_names_and_endless_words():
    f, g, h = ("a", "b", 0, "f"), ("b", "a", 1, "g"), ("a", "a", 0, "h")
    with pytest.raises(ValueError, match="rename"):
        WordTrie(("a", "b"), [f, ("a", "b", 1, "f")], 2)
    # a loop, and a 2-cycle: with no cap at all the words never end
    with pytest.raises(ValueError, match="rename"):
        Words(("a", "b"), [f, ("a", "b", 1, "f")], 2)
    for letters in ([h], [f, g]):
        for words in (WordTrie, Words):
            with pytest.raises(ValueError, match="cap, or break the cycle"):
                words(("a", "b"), letters)
        # any cap makes the same letters list fine
        weights = {a: 1 for a in letters}
        assert WordTrie(("a", "b"), letters, 3).keys
        assert WordTrie(("a", "b"), letters, None, weights, 3).keys
        # a weight cap bounds only the letters that weigh something
        with pytest.raises(ValueError, match="cap, or break the cycle"):
            WordTrie(("a", "b"), letters, None, {a: 0 for a in letters}, 3)
    assert len(WordTrie(("a", "b"), [f]).keys) == 1  # acyclic: no cap needed


# -- ranked words against the listing ---------------------------------------


def random_letters(rng, acyclic=False):
    """Up to 7 letters on up to 4 objects, some of them isolated; loops
    and cycles where allowed, letters only from lower to higher object
    where not."""
    objects = tuple(f"o{i}" for i in range(rng.randint(1, 4)))
    letters = []
    for i in range(rng.randint(0, 7)):
        x, y = rng.choice(objects), rng.choice(objects)
        if acyclic:
            if x == y:
                continue
            x, y = sorted((x, y))
        letters.append((x, y, rng.randint(-2, 2), f"l{i}"))
    return objects, letters


def non_words(key, objects, letters):
    """Keys near a word key that may or may not be words: other ends, a
    degree off by one, letters reversed, one more letter, an unknown
    name, a bare name and the empty name."""
    x, y, n, names = key
    yield (y, x, n, names)
    for z in objects:
        yield (z, y, n, names)
        yield (x, z, n, names)
    yield (x, y, n + 1, names)
    yield (x, y, n, names[::-1])
    for a in letters:
        yield (x, a[1], n + a[2], names + (a[3],))
    yield (x, y, n, names + ("nowhere",))
    yield (x, y, n, names[0])
    yield (x, y, n, ())


def words_max(keys, max_len):
    """The length cap, or without one the length of the longest word."""
    return max((len(k[3]) for k in keys), default=0) if max_len is None \
        else max_len


def assert_ranked_matches_listing(objects, letters, max_len):
    """Ranked words against the listing, read three ways: ranked and
    unranked one at a time on fresh words, and walked in id order."""
    trie = WordTrie(objects, letters, max_len)
    ids = {k: w for w, k in enumerate(trie.keys)}
    ranked = Words(objects, letters, max_len)
    assert [ranked.id(k) for k in trie.keys] == list(range(len(ids)))
    unranked = Words(objects, letters, max_len)
    last = range(len(ids) - 1, -1, -1)  # longest first: no parent read yet
    assert [unranked.keys[w] for w in last] == trie.keys[::-1]
    assert [unranked.parent[w] for w in last] == trie.parent[::-1]
    assert [unranked.tail[w] for w in last] == trie.tail[::-1]
    cap = words_max(trie.keys, max_len)
    below = [w for w, k in enumerate(trie.keys) if len(k[3]) < cap]
    assert [unranked.first[h] for h in below] == [trie.first[h] for h in below]
    read = [unranked.keys[w] for w in range(len(ids))]
    # a walk keeps the records already read, keys and all
    assert all(a is b for a, b in zip(unranked.keys, read))
    words = Words(objects, letters, max_len)
    keys = list(words.keys)
    assert keys == trie.keys
    by_name = {a[3]: a for a in letters}
    assert [tuple(by_name[n] for n in k[3]) for k in keys] == \
        keep_listing(letters, max_len)[0]
    assert [words.id(k) for k in keys] == list(range(len(keys)))
    probe = keys[::len(keys) // 150 + 1] + keys[-1:]  # spread over the ids
    for k in probe:
        for other in non_words(k, objects, letters):
            assert words.id(other) == ids.get(other), other
            assert Words(objects, letters, max_len).id(other) == \
                ids.get(other), other
    for a in letters:  # past the cap, or no word at all
        for other in non_words(a[:3] + ((a[3],),), objects, letters):
            assert ranked.id(other) == ids.get(other), other
    assert list(words.parent) == trie.parent
    assert list(words.tail) == trie.tail
    assert {f for f, k in zip(words.first, keys) if len(k[3]) == cap} <= {-1}
    assert [words.first[h] for h in below] == [trie.first[h] for h in below]
    for split in (words.splits, Words(objects, letters, max_len).splits):
        assert [list(split(w)) for w in range(len(keys))] == \
            [list(trie.splits(w)) for w in range(len(keys))]
    # rDelta as a table reads it: the splits as key pairs, all 1
    for w, k in enumerate(keys):
        got = words.get(k, "none")
        if len(k[3]) == 1:
            assert got == "none"
        else:
            assert list(got.items()) == [
                ((keys[p], keys[t]), 1) for p, t in trie.splits(w)]
    assert words.get((objects[0], objects[0], 0, ("nowhere",)), "none") \
        == "none"
    assert words.id(("G", objects[0])) is None  # a grouplike leg
    slots = {}
    for k in trie.keys:
        slots.setdefault(k[:3], []).append(k[3])
    quiver, listed = WordQuiver(words), GradedQuiver(objects, slots)
    assert list(quiver.slots.items()) == list(listed.slots.items())
    assert [list(v) for v in quiver.slots.values()] == \
        [list(v) for v in listed.slots.values()]
    assert [len(v) for v in quiver.slots.values()] == \
        [len(v) for v in listed.slots.values()]
    assert quiver == listed and list(quiver.keys()) == keys
    assert quiver.total_dim() == listed.total_dim() == len(keys)
    assert quiver.degree_support() == listed.degree_support()
    for x in objects:
        for y in objects:
            for n in range(-12, 13):
                assert quiver.dim(x, y, n) == listed.dim(x, y, n)
    for k in probe:
        for other in [k] + list(non_words(k, objects, letters)):
            assert quiver.has_key(other) == listed.has_key(other), other


@pytest.mark.parametrize("seed", range(40))
def test_ranked_words_match_listing_under_caps(seed):
    rng = random.Random(seed)
    objects, letters = random_letters(rng)
    if seed % 4 == 0 and letters:  # a loop, so words of every length
        letters[0] = (letters[0][0], letters[0][0]) + letters[0][2:]
    for max_len in range(6):
        assert_ranked_matches_listing(objects, letters, max_len)


@pytest.mark.parametrize("seed", range(20))
def test_ranked_words_match_listing_without_cap(seed):
    objects, letters = random_letters(random.Random(seed), acyclic=True)
    assert_ranked_matches_listing(objects, letters, None)
    assert_ranked_matches_listing(objects, letters, 1)
