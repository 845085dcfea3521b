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
- ``WordTrie``: composable words of letters on an integer trie,
  shortest first, built only within a length cap and a letter weight
  budget, with the guards that keep the listing finite.  ``ext`` and
  ``steps`` walk it letter by letter, and ``splits`` reads a word's
  deconcatenation off its parent and tail chains.  Once listing is done
  ``Words`` keeps only those chains, the keys and a key -> id index:
  bar and cotensor coalgebras hold it as rDelta (``get``, ``table``),
  and cobar and free categories compose by the transpose of ``splits``;
- ``WordMap``: a linear map on words, each row computed by a rule when
  first read, kept on word ids and named by word keys (a bar's d);
- ``object_maps``: every map of object sets in ``itertools.product``
  order, with the ``max_objects`` guard, and ``_object_map_problems``:
  what the functor and morphism validators report on a given one, and
  what the convolution's reader of one refuses;
- ``_image_problems``: the slot rule of every map of basis keys, each
  image in the slot its key's ends and degree force, shared by the
  functor and morphism validators and ``mc_check`` (a twisting cochain
  raises degrees by one);
- ``has_cycle``: the directed-cycle check behind every finiteness
  argument (acyclic generators, conilpotence by the factor graph).
"""

from __future__ import annotations

from itertools import product
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

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


class Words:
    """Listed words by id, as their readers need them once listing is
    done: ``keys`` by id, and ``parent[w]`` (w without its last letter)
    and ``tail[w]`` (w without its first), both -1 for a letter.  A
    word coalgebra keeps this, not the ``WordTrie`` that listed it.

    ``splits`` reads a word's deconcatenation off the two chains, and
    ``get`` and ``table`` read rDelta off them as a table would.  ``id``
    is the key -> id index, built on its first read.
    """

    def __init__(self, keys: List[Key], parent: List[int], tail: List[int]):
        self.keys, self.parent, self.tail = keys, parent, tail
        self._ids: Optional[Dict[Key, int]] = None
        self._read: Dict[Key, Dict[Tuple[Key, Key], int]] = {}

    def id(self, key: Key) -> Optional[int]:
        """The id of a word key, or None for a key that is no word."""
        if self._ids is None:
            self._ids = {k: w for w, k in enumerate(self.keys)}
        return self._ids.get(key)

    def splits(self, w: int) -> Iterator[Tuple[int, int]]:
        """The splits of word w at its interior positions, as (prefix id,
        suffix id) pairs, shortest prefix first: its ancestors on the
        ``parent`` chain against its ``tail`` chain."""
        parent, tail = self.parent, self.tail
        pre, suf = [], []
        p, t = parent[w], tail[w]
        while p >= 0:
            pre.append(p)
            suf.append(t)
            p, t = parent[p], tail[t]
        return zip(reversed(pre), suf)

    def _pairs(self, w: int) -> Dict[Tuple[Key, Key], int]:
        keys = self.keys
        return {(keys[p], keys[t]): 1 for p, t in self.splits(w)}

    def get(self, key: Key, default=None):
        """rDelta of a word key as a table reads it: its ``splits`` as key
        pairs, each with coefficient 1 (the ``one`` of every field), or
        ``default`` for a letter or a key that is no word.  What was
        read is kept."""
        got = self._read.get(key)
        if got is None:
            w = self.id(key)
            got = self._read[key] = (
                {} if w is None or self.parent[w] < 0 else self._pairs(w))
        return got or default

    def table(self) -> Dict[Key, Dict[Tuple[Key, Key], int]]:
        """``get`` of every word that has a split, in id order."""
        return {k: self._pairs(w) for w, k in enumerate(self.keys)
                if self.parent[w] >= 0}


class WordMap:
    """A linear map on the words of a ``Words``, derived on read: row w
    (word id -> coefficient, no zero) is ``rule(w, row)``, computed on
    its first read (``ids``) and kept.  The rule reads other rows through
    ``row``; one closing over this map would make a reference cycle that
    only a full garbage collection frees.

    ``get`` names one row as a table reads it, keyed by the words' own
    keys, and keeps what it named; ``table`` names every nonzero row, in
    id order.
    """

    def __init__(self, words: Words, rule: Callable):
        self.words, self._rule = words, rule
        self._rows: Dict[int, Dict[int, object]] = {}
        self._read: Dict[Key, Dict[Key, object]] = {}

    def ids(self, w: int) -> Dict[int, object]:
        """The image of word w on word ids; read only."""
        row = self._rows.get(w)
        if row is None:
            row = self._rows[w] = self._rule(w, self.ids)
        return row

    def _row(self, w: int) -> Dict[Key, object]:
        keys = self.words.keys
        return {keys[i]: c for i, c in self.ids(w).items()}

    def get(self, key: Key, default=None):
        """The image of a word key, or ``default`` where it is zero or the
        key is no word."""
        got = self._read.get(key)
        if got is None:
            w = self.words.id(key)
            got = self._read[key] = {} if w is None else self._row(w)
        return got or default

    def table(self) -> Dict[Key, Dict[Key, object]]:
        """``get`` of every word with a nonzero image, in id order."""
        rows = ((k, self._row(w)) for w, k in enumerate(self.words.keys))
        return {k: row for k, row in rows if row}


class WordTrie(Words):
    """Words of letters (src, tgt, degree, name) composable end to end,
    shortest first, of at most ``max_len`` letters and ``max_weight``
    summed letter ``weights``, on an integer trie.  ``keys`` lists them
    by id, keyed (src, tgt, degree sum, tuple of names), each key built
    once; ``quiver`` is their quiver and ``cut`` whether a cap dropped a
    letter or the composite of two listed words.  ``lid[i]`` is the id
    of letter i (None if dropped); ``parent`` and ``tail`` are as in
    ``Words``, and ``words()`` is the ``Words`` without the lists below,
    which only listing reads.

    Each object keeps one list of outgoing letters per remaining weight
    budget (up to the heaviest letter's weight), in ``letters`` order.
    A word h of budget b extends by that list only, so no word past a
    cap is built, and h.a is ``first[h] + rank[b][a]``; ``grow[h]`` is
    that (list, rank[b]) pair for each word h below the length cap, in
    id order.  ``out`` (the letters leaving each object) and ``rank``
    are kept for the largest budget: with no weight cap that is the only
    one, and letter i is word i.  Letter names must tell letters apart,
    and without ``max_len`` the letters that weigh nothing (all of them
    without ``max_weight``) must not run round a cycle.
    """

    def __init__(self, objects: Sequence, letters: Sequence[Key],
                 max_len: Optional[int] = None,
                 weights: Optional[Mapping[Key, int]] = None,
                 max_weight: Optional[int] = None):
        if len({a[3] for a in letters}) != len(letters):
            raise ValueError("letter names must tell letters apart; "
                             "rename the repeated ones")
        top = max_weight or 0  # no weight cap: every weight counts as 0
        wt = [0 if max_weight is None else weights[k] for k in letters]
        heavy = min(top, max(wt, default=0))  # budgets past it share a list
        fits = [{x: [] for x in objects} for _ in range(heavy + 1)]
        rank = [[None] * len(letters) for _ in range(heavy + 1)]
        keys: List[Key] = []
        lid: List[Optional[int]] = [None] * len(letters)
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
        if max_len is None and has_cycle(  # fits[0]: the weightless letters
                {x: [letters[i][1] for i in out] for x, out in fits[0].items()}):
            raise ValueError("the letter graph has a directed cycle, so its "
                             "words never end; set a length or weight cap, "
                             "or break the cycle")
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
        self.quiver = GradedQuiver(objects, slots)
        super().__init__(keys, parent, tail)
        self.cut, self.lid, self.first, self.grow = cut, lid, first, grow
        self.out, self.rank = fits[heavy], rank[heavy]

    def words(self) -> Words:
        """The listed words without the lists that only listing reads."""
        return Words(self.keys, self.parent, self.tail)

    def ext(self, v: int, a: int) -> Optional[int]:
        """The id of the word v.a (v = -1: the empty word), or None."""
        if v < 0:
            return self.lid[a]
        if v < len(self.first) and self.grow[v][1][a] is not None:
            return self.first[v] + self.grow[v][1][a]
        return None

    def steps(self) -> Iterator[Tuple[int, int, int]]:
        """(w, p, a) for each word w = p.a in id order, p = -1 for a letter."""
        yield from ((w, -1, a) for a, w in enumerate(self.lid) if w is not None)
        for h, (fit, _) in enumerate(self.grow):
            for j, a in enumerate(fit):
                yield self.first[h] + j, h, a


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


def _object_map_problems(om: Mapping, sources: Sequence,
                         targets: Sequence) -> Iterator[str]:
    """Each object of ``sources`` that ``om`` sends to no object of
    ``targets``, then each object ``om`` names outside ``sources``."""
    for x in sources:
        if om.get(x) not in targets:
            yield f"object {x!r} has no valid image"
    for x in om:
        if x not in sources:
            yield f"object map names unknown object {x!r}"


def _image_problems(table: Mapping[Key, Mapping[Key, object]], om: Mapping,
                    sources: GradedQuiver, targets: GradedQuiver,
                    shift: int = 0) -> Iterator[str]:
    """Each key of ``table`` that ``sources`` lacks, else each term of its
    image that is no key of ``targets`` in the slot (om[x], om[y], n +
    ``shift``) forced by its key (x, y, n); ``om`` must map every object
    of ``sources``."""
    for k, img in table.items():
        if not sources.has_key(k):
            yield f"action on unknown key {k}"
            continue
        slot = (om[k[0]], om[k[1]], k[2] + shift)
        for k2 in img:
            if k2[:3] != slot or not targets.has_key(k2):
                yield f"image of {k} leaves its slot"


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
