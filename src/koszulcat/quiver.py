"""Graded quivers: objects plus a named basis per (source, target, degree).

Degrees are cohomological (differentials elsewhere have degree +1).  A basis
arrow is addressed end to end by its key ``(src, tgt, degree, name)``; every
structure table in the category and coalgebra layers is a sparse dict over
these keys, so nothing downstream ever renumbers a basis.

The monoidal structure lives here: ``quiver_tensor`` has pairwise
objects and the degree-graded Kuenneth basis.

The vocabulary every later layer shares also lives here, one definition
each:

- tensor keys: ``pair_key(k1, k2)`` names k1 (x) k2 the way
  ``quiver_tensor`` does, on pairwise objects with degree-tagged names;
  ``lkey(ck, y)`` and ``rkey(x, dk)`` are the pointed-coalgebra keys with
  a grouplike leg ("G", y) on the right or ("G", x) on the left;
- ``word_trie``: composable words of letters on an integer trie,
  shortest first, built only within a length cap and a letter weight
  budget.  ``word_splits`` reads a word's deconcatenation off its parent
  and tail chains: bar and cotensor coalgebras take it as rDelta, and
  cobar and free categories compose by its transpose;
- ``object_maps``: every map of object sets in ``itertools.product``
  order, with the ``max_objects`` guard;
- ``has_cycle``: the directed-cycle check behind every finiteness
  argument (acyclic generators, conilpotence by the factor graph).
"""

from __future__ import annotations

from itertools import product
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

Slot = Tuple[object, object, int]  # (src, tgt, degree)
Key = Tuple[object, object, int, object]  # (src, tgt, degree, name)


class GradedQuiver:
    def __init__(self, objects: Iterable, slots: Dict[Slot, Iterable]):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate objects")
        obset = set(self.objects)
        self.slots: Dict[Slot, Tuple] = {}
        for (x, y, n), names in slots.items():
            names = tuple(names)
            if not names:
                continue
            if x not in obset or y not in obset:
                raise ValueError(f"slot ({x}, {y}) references unknown objects")
            if not isinstance(n, int):
                raise ValueError(f"degree {n!r} is not an integer")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate basis names in slot ({x}, {y}, {n})")
            self.slots[(x, y, n)] = names

    def dim(self, x, y, n: int) -> int:
        return len(self.slots.get((x, y, n), ()))

    def slot(self, x, y, n: int) -> Tuple:
        return self.slots.get((x, y, n), ())

    def keys(self) -> Iterator[Key]:
        for (x, y, n), names in self.slots.items():
            for a in names:
                yield (x, y, n, a)

    def total_dim(self) -> int:
        return sum(len(v) for v in self.slots.values())

    def degree_support(self) -> Tuple[int, int]:
        if not self.slots:
            return (0, -1)
        degs = [n for (_, _, n) in self.slots]
        return (min(degs), max(degs))

    def has_key(self, key: Key) -> bool:
        x, y, n, a = key
        return a in self.slots.get((x, y, n), ())

    def shifted(self, k: int) -> "GradedQuiver":
        """V[k]: an element of degree d lands in degree d - k."""
        return GradedQuiver(
            self.objects,
            {(x, y, n - k): names for (x, y, n), names in self.slots.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedQuiver)
            and self.objects == other.objects
            and self.slots == other.slots
        )

    def __repr__(self) -> str:
        return f"GradedQuiver({len(self.objects)} objects, dim {self.total_dim()})"


# ---------------------------------------------------------------------------
# shared vocabulary: tensor keys, words, object maps, cycles


def pair_key(k1: Key, k2: Key) -> Key:
    """k1 (x) k2: the basis key ``quiver_tensor`` gives the pair."""
    return ((k1[0], k2[0]), (k1[1], k2[1]), k1[2] + k2[2],
            ((k1[2], k1[3]), (k2[2], k2[3])))


def lkey(ck: Key, y) -> Key:
    """ck (x) y for a grouplike (object) y on the right."""
    return ((ck[0], y), (ck[1], y), ck[2], ((ck[2], ck[3]), ("G", y)))


def rkey(x, dk: Key) -> Key:
    """x (x) dk for a grouplike (object) x on the left."""
    return ((x, dk[0]), (x, dk[1]), dk[2], (("G", x), (dk[2], dk[3])))


def word_trie(objects: Sequence, letters: Sequence[Key],
              max_len: Optional[int] = None,
              weights: Optional[Mapping[Key, int]] = None,
              max_weight: Optional[int] = None):
    """Words of letters (src, tgt, degree, name) composable end to end,
    shortest first, of at most ``max_len`` letters and ``max_weight``
    summed letter ``weights``, keyed (src, tgt, degree sum, tuple of
    names); letter names must tell letters apart.  Returns their quiver,
    the trie (keys, first, out, rank, grow, parent, tail) and ``cut``:
    whether a cap dropped a letter or the composite of two listed words.

    ``keys`` lists the words by id.  Each object keeps one list of
    outgoing letters per remaining weight budget (up to the heaviest
    letter's weight), in ``letters`` order.  A word h of budget b extends
    by that list only, so no word past a cap is built, and h.a is
    ``first[h] + rank[b][a]``; ``grow[h]`` is that (list, rank[b]) pair
    for each word h below the length cap, in id order, so the words
    h.a are ``first[h] + j`` for the j-th letter of the list.
    ``parent[w]`` is w without its last letter and ``tail[w]`` w without
    its first, both -1 for a letter; each word key is built once.  The
    splits of a word are its ``word_splits``.  ``out`` (the letters
    leaving each object) and ``rank`` come back for the largest budget:
    with no weight cap that is the only one, and letter i is word i.
    Without ``max_len`` the letter graph must be acyclic, or
    ``max_weight`` set and every weight at least 1.
    """
    top = max_weight or 0  # no weight cap: every weight counts as 0
    wt = [0 if max_weight is None else weights[k] for k in letters]
    heavy = min(top, max(wt, default=0))  # budgets past it share a list
    fits = [{x: [] for x in objects} for _ in range(heavy + 1)]
    rank = [[None] * len(letters) for _ in range(heavy + 1)]
    keys: List[Key] = []
    lid: List[Optional[int]] = [None] * len(letters)  # word id of a letter
    rests = {}  # word id -> remaining weight budget, where it is not 0
    for i, (a, n) in enumerate(zip(letters, wt)):
        for b in range(n, heavy + 1):
            rank[b][i] = len(fits[b][a[0]])
            fits[b][a[0]].append(i)
        if n <= top and max_len != 0:
            lid[i] = len(keys)
            if n < top:
                rests[len(keys)] = top - n
            keys.append(a[:3] + ((a[3],),))
    cut = len(keys) < len(letters)
    parent = [-1] * len(keys)
    tail = [-1] * len(keys)
    first: List[int] = []
    grow: List[Tuple[List[int], List[Optional[int]]]] = []
    for h, hk in enumerate(keys):  # keys grows as h runs: shortest first
        if len(hk[3]) == max_len:
            cut = cut or any(fits[heavy][keys[i][1]]
                             for i in range(h, len(keys)))
            break
        rest = rests.get(h, 0)
        fit = fits[min(rest, heavy)][hk[1]]
        cut = cut or len(fit) < len(fits[heavy][hk[1]])
        # h's tail t (the empty word for a letter): t.a is base + trank[a]
        t = tail[h]
        base, trank = (0, lid) if t < 0 else (first[t], grow[t][1])
        first.append(len(keys))
        grow.append((fit, rank[min(rest, heavy)]))
        for a in fit:
            _, y, n, name = letters[a]
            if rest > wt[a]:
                rests[len(keys)] = rest - wt[a]
            parent.append(h)
            tail.append(base + trank[a])
            keys.append((hk[0], y, hk[2] + n, hk[3] + (name,)))
    slots: Dict[Slot, List] = {}
    for k in keys:
        slots.setdefault(k[:3], []).append(k[3])
    return (GradedQuiver(objects, slots),
            (keys, first, fits[heavy], rank[heavy], grow, parent, tail), cut)


def word_splits(parent: Sequence[int], tail: Sequence[int],
                w: int) -> Iterator[Tuple[int, int]]:
    """The splits of word w at its interior positions, as (prefix id,
    suffix id) pairs, shortest prefix first: its ancestors on the
    ``parent`` chain against its ``tail`` chain."""
    pre, suf = [], []
    p, t = parent[w], tail[w]
    while p >= 0:
        pre.append(p)
        suf.append(t)
        p, t = parent[p], tail[t]
    return zip(reversed(pre), suf)


def object_maps(sources: Sequence, targets: Sequence,
                max_objects: Optional[int] = None) -> Iterator[Tuple]:
    """Every map sources -> targets as its tuple of images, in
    ``itertools.product`` order (the empty source has the one empty map).
    Refuses up front when there are more than ``max_objects``."""
    count = len(targets) ** len(sources)
    if max_objects is not None and count > max_objects:
        raise ValueError(
            f"{count} object maps exceed the cap {max_objects}; "
            "raise max_objects=")
    return product(targets, repeat=len(sources))


def has_cycle(succ: Mapping[object, Iterable]) -> bool:
    """Whether the digraph node -> successors has a directed cycle.

    A node that is no key of ``succ`` has no successors; a loop counts.
    """
    state: Dict[object, int] = {}  # 1 while on the DFS path, 2 when done

    def dfs(v) -> bool:
        state[v] = 1
        for w in succ.get(v, ()):
            if state.get(w) == 1 or (w not in state and dfs(w)):
                return True
        state[v] = 2
        return False

    return any(v not in state and dfs(v) for v in succ)


# ---------------------------------------------------------------------------
# tensor


def quiver_tensor(v: GradedQuiver, w: GradedQuiver) -> GradedQuiver:
    """Objects are pairs; (V(x)W)((x,x'),(y,y')) = (+)_{p+q=n} V(x,y)_p (x) W(x',y')_q.

    Basis names are ((p, a), (q, b)) so the two tensor legs stay addressable.
    """
    objects = [(x, xp) for x in v.objects for xp in w.objects]
    slots: Dict[Slot, List] = {}
    for (x, y, p), anames in v.slots.items():
        for (xp, yp, q), bnames in w.slots.items():
            dst = ((x, xp), (y, yp), p + q)
            bucket = slots.setdefault(dst, [])
            for a in anames:
                for b in bnames:
                    bucket.append(((p, a), (q, b)))
    return GradedQuiver(objects, slots)
