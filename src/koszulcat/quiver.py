"""Graded quivers: objects plus a named basis per (source, target, degree).

Degrees are cohomological (differentials elsewhere have degree +1).  A basis
arrow is addressed end to end by its key ``(src, tgt, degree, name)``; every
structure table in the category and coalgebra layers is a sparse dict over
these keys, so nothing downstream ever renumbers a basis.

The monoidal structure lives here: tensor (pairwise objects, degree-graded
Kuenneth basis) and the right adjoint internal hom (objects are *all* object
maps, which is why it carries a cap guard).  The hom-count identity

    |Maps(U (x) V, W)| = |Maps(U, Hom(V, W))|

over a finite field is the contract the two constructions satisfy jointly;
the test suite checks it by exact counting.

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

from .field import Field, Vec

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
    ``keep`` drops a word and with it every extension.  Without
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
# tensor and internal hom


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


def quiver_internal_hom(
    v: GradedQuiver, w: GradedQuiver, max_objects: int = 512
) -> GradedQuiver:
    """Right adjoint of tensor: objects are all maps Ob V -> Ob W.

    Hom(f, g) in degree n is (+)_{x,y} Hom_n(V(x,y), W(fx, gy)); a basis
    element (x, y, p, a, b) is the elementary map sending a to b.  The number
    of objects is |Ob W| ** |Ob V|, guarded by ``max_objects``.
    """
    maps = [tuple(zip(v.objects, m))
            for m in object_maps(v.objects, w.objects, max_objects)]
    # maps by the image of one source object: a slot pair V(x, y) -> W(x2, y2)
    # then visits only the (f, g) with f(x) = x2 and g(y) = y2
    by_image: Dict[Tuple[object, object], List[int]] = {}
    for i, f in enumerate(maps):
        for pair in f:
            by_image.setdefault(pair, []).append(i)
    found: Dict[Tuple[int, int, int], List] = {}
    for (x, y, p), anames in v.slots.items():
        for (x2, y2, q), bnames in w.slots.items():
            names = [(x, y, p, a, b) for a in anames for b in bnames]
            for i in by_image.get((x, x2), ()):
                for j in by_image.get((y, y2), ()):
                    found.setdefault((i, j, q - p), []).extend(names)
    # slots in (f, g) order; the stable sort keeps slot-pair order within
    ordered = sorted(found.items(), key=lambda item: item[0][:2])
    return GradedQuiver(
        maps, {(maps[i], maps[j], n): names for (i, j, n), names in ordered})


def count_quiver_maps(v: GradedQuiver, w: GradedQuiver, field: Field) -> int:
    """Number of degree-0 quiver maps V -> W over a finite field.

    A map is an object map f plus an arbitrary linear map per slot, so the
    count is a sum over f of q ** sum(dim V(x,y,n) * dim W(fx, fy, n)).
    """
    if field.size is None:
        raise ValueError("counting needs a finite field")
    total = 0
    for m in object_maps(v.objects, w.objects):
        fd = dict(zip(v.objects, m))
        total += field.size ** sum(len(names) * w.dim(fd[x], fd[y], n)
                                   for (x, y, n), names in v.slots.items())
    return total


# ---------------------------------------------------------------------------
# augmented quivers: unit and counit over k[Ob], with a split reduced part


class AugmentedQuiver:
    """A graded quiver with unit eta: k[Ob] -> V and counit eps: V -> k[Ob].

    eta picks a degree-0 endomorphism vector per object; eps is a functional
    on each degree-0 endomorphism slot.  The axiom is eps(eta(x)) = 1 with
    eps vanishing between distinct objects (which the slot structure already
    enforces).  ``reduced_basis`` computes a named basis of ker(eps), which
    in degree-0 endomorphism slots is a genuine complement of the unit line.
    """

    def __init__(
        self,
        field: Field,
        quiver: GradedQuiver,
        unit: Dict[object, Vec],
        counit: Dict[object, Dict[object, object]],
    ):
        self.field = field
        self.quiver = quiver
        self.unit = {x: dict(v) for x, v in unit.items()}
        self.counit = {x: dict(f) for x, f in counit.items()}

    def validate(self) -> List[str]:
        problems: List[str] = []
        F = self.field
        for x in self.quiver.objects:
            u = self.unit.get(x)
            if not u:
                problems.append(f"object {x!r} has no unit vector")
                continue
            for key in u:
                sx, tx, n, _ = key
                if not self.quiver.has_key(key):
                    problems.append(f"unit of {x!r} uses unknown key {key}")
                elif (sx, tx, n) != (x, x, 0):
                    problems.append(f"unit of {x!r} not in degree-0 endo slot")
            eps = self.counit.get(x, {})
            val = F.zero
            for key, c in u.items():
                val = F.add(val, F.mul(eps.get(key[3], F.zero), c))
            if val != F.one:
                problems.append(f"eps(eta({x!r})) = {val}, expected 1")
        return problems

    def reduced_basis(self) -> Dict[Slot, List[Tuple[object, Vec]]]:
        """Named basis of ker(eps) per slot; names reuse basis arrows where
        they lie in the kernel and synthesize 'red<i>' vectors otherwise."""
        F = self.field
        out: Dict[Slot, List[Tuple[object, Vec]]] = {}
        for (x, y, n), names in self.quiver.slots.items():
            eps = self.counit.get(x, {}) if (x == y and n == 0) else {}
            plain = [a for a in names if F.is_zero(F.coerce(eps.get(a, F.zero)))]
            if len(plain) == len(names):
                out[(x, y, n)] = [
                    (a, {(x, y, n, a): F.one}) for a in names
                ]
                continue
            # one relation eps = 0: solve for a pivot name with eps != 0
            pivot = next(a for a in names if not F.is_zero(F.coerce(eps.get(a, F.zero))))
            pv = F.coerce(eps[pivot])
            basis: List[Tuple[object, Vec]] = []
            for i, a in enumerate(names):
                if a == pivot:
                    continue
                va = F.coerce(eps.get(a, F.zero))
                v: Vec = {(x, y, n, a): F.one}
                if not F.is_zero(va):
                    v[(x, y, n, pivot)] = F.neg(F.div(va, pv))
                    basis.append((f"red{i}", v))
                else:
                    basis.append((a, v))
            out[(x, y, n)] = basis
        return out


def validate_quiver_map(
    v: GradedQuiver,
    w: GradedQuiver,
    object_map: Dict[object, object],
    action: Dict[Key, Vec],
) -> List[str]:
    """Degree-0 map check: every image vector sits in the matching slot."""
    problems = []
    for x in v.objects:
        if object_map.get(x) not in w.objects:
            problems.append(f"object {x!r} has no valid image")
    for key, img in action.items():
        if not v.has_key(key):
            problems.append(f"unknown source key {key}")
            continue
        x, y, n, _ = key
        want = (object_map.get(x), object_map.get(y), n)
        for wk in img:
            if (wk[0], wk[1], wk[2]) != want or not w.has_key(wk):
                problems.append(f"image of {key} leaves slot {want}: {wk}")
    return problems
