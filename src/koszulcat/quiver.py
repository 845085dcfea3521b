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
- ``composable_words``: paths of letters, shortest first, as bar, cobar,
  free categories and cotensor coalgebras use them;
- ``object_maps``: every map of object sets in ``itertools.product``
  order, with the ``max_objects`` guard;
- ``has_cycle``: the directed-cycle check behind every finiteness
  argument (acyclic generators, conilpotence by the factor graph).
"""

from __future__ import annotations

from itertools import product
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

Slot = Tuple[object, object, int]  # (src, tgt, degree)
Key = Tuple[object, object, int, object]  # (src, tgt, degree, name)
Word = Tuple[Key, ...]  # composable keys, applied left to right


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


def composable_words(letters: Sequence[Key], max_len: Optional[int],
                     keep: Optional[Callable[[Word], bool]] = None
                     ) -> List[Word]:
    """Words of letters composable end to end, shortest first.

    Each length lists the extensions of the previous length's words in
    their order, each extended by the letters in ``letters`` order.
    No word longer than ``max_len`` is ever built, so ``keep`` never sees
    one.  ``keep`` drops a word and with it every extension.  Without
    ``max_len`` the letter graph must be acyclic or ``keep`` must bound
    the length, else this does not terminate.
    """
    by_src: Dict[object, List[Key]] = {}
    for k in letters:
        by_src.setdefault(k[0], []).append(k)
    words: List[Word] = []
    frontier = [(k,) for k in letters if keep is None or keep((k,))]
    length = 1
    while frontier and (max_len is None or length <= max_len):
        words.extend(frontier)
        if length == max_len:
            break
        nxt = []
        for w in frontier:
            for k in by_src.get(w[-1][1], ()):
                w2 = w + (k,)
                if keep is None or keep(w2):
                    nxt.append(w2)
        frontier = nxt
        length += 1
    return words


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
