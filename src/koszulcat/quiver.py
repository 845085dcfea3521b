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
- words: composable words of letters, shortest first, with the guards
  that keep a word basis finite and its keys distinct.  ``Words`` ranks
  the words within a length cap instead of listing them: a word's id is
  counted off the number of words of each length from each object, its
  key is built from its id on the first read, and ``WordQuiver`` is
  their quiver, its slot dimensions counted.  Bar and cotensor
  coalgebras hold ``Words`` as rDelta (``get``, ``table``), so a reader
  of a few words pays for those only.  ``WordTrie`` lists the words on
  an integer trie, within a length cap and a letter weight budget, for
  the cobar and free categories, whose readers walk every word: ``ext``
  and ``steps`` walk it letter by letter, and they compose by the
  transpose of ``splits``;
- ``WordMap``: a linear map on words, each row computed by a rule when
  first read, kept on word ids and named by word keys (a bar's d);
- ``object_maps``: every map of object sets in ``itertools.product``
  order, with the ``max_objects`` guard, and ``_object_map_problems``:
  what the functor and morphism validators report on a given one, and
  what the convolution's reader of one refuses;
- ``_slot_problems``: the one slot rule of every stored table and map,
  each entry on a key that forces a slot and each term of its value in
  that slot, fed by the slot functions ``_key_slot`` (a key's own slot,
  shifted and pushed along an object map), ``_pair_slot`` (the path of
  a composable pair) and ``_endo_slot`` (a per-object entry).  The
  category and coalgebra validators run it on their tables, the functor
  and morphism validators on their actions, and ``mc_check`` on a
  twisting cochain (shift 1);
- ``has_cycle``: the directed-cycle check behind every finiteness
  argument (acyclic generators, conilpotence by the factor graph).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, islice, product
from operator import itemgetter
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedQuiver)
            and self.objects == other.objects
            and self.slots == other.slots
        )

    def __repr__(self) -> str:
        return f"GradedQuiver({len(self.objects)} objects, dim {self.total_dim()})"


# ---------------------------------------------------------------------------
# shared vocabulary: tensor keys, words, object maps, slots, cycles


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


class _Column(Sequence):
    """Item ``i`` of each word's record (``Words._word``), by word id: read
    off the words' memo, or computed there on the first read.  Iterating
    walks the words in id order (``Words._walk``); there are no slices."""

    def __init__(self, words: "Words", i: int, n: int):
        self._got, self._word, self._walk = (words._got, words._word,
                                             words._walk)
        self._i, self._n = i, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, w: int):
        try:
            return self._got[w][self._i]
        except KeyError:  # not read yet, or negative
            if not -self._n <= w < self._n:
                raise IndexError(w) from None
            return self._word(w % self._n)[self._i]

    def __iter__(self) -> Iterator:
        return map(itemgetter(self._i), self._walk())


def _splits(parent: Sequence[int], tail: Sequence[int],
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


def _refuse_bad_letters(letters: Sequence[Key], max_len: Optional[int],
                        out: Mapping[object, Iterable[int]]) -> None:
    """The guards that keep a word basis finite and its keys distinct:
    letter names tell letters apart, and without ``max_len`` the letters
    of ``out`` (object -> ids of the letters leaving it) run round no
    cycle."""
    if len({a[3] for a in letters}) != len(letters):
        raise ValueError("letter names must tell letters apart; "
                         "rename the repeated ones")
    if max_len is None and has_cycle(
            {x: [letters[i][1] for i in o] for x, o in out.items()}):
        raise ValueError("the letter graph has a directed cycle, so its "
                         "words never end; set a length or weight cap, "
                         "or break the cycle")


class Words:
    """The composable words of ``letters`` (src, tgt, degree, name), of at
    most ``max_len`` letters, ranked, not listed.  Word w is keyed
    (src, tgt, degree sum, tuple of names), and ids run shortest first,
    then lexicographically by letter index, as ``WordTrie`` lists them
    (so letter i is word i).

    Ids are arithmetic (transfer-matrix counting, Stanley, EC1 4.7;
    ranking and unranking, Nijenhuis-Wilf 1978): with the number of
    words of r letters from each object counted for every r up to the
    cap, the words of m letters before w are summed letter by letter,
    each position adding the words that share w's prefix but take an
    earlier letter there.  ``id`` ranks a key.  ``keys[w]`` unranks w,
    building its record once, on its first read: its key, and
    ``parent[w]`` (w without its last letter), ``tail[w]`` (w without its
    first), both -1 for a letter, and ``first[h]`` (h.a is
    ``first[h] + rank[a]`` for a letter a of ``out[y]``, y where h ends;
    -1 for h at the length cap), each a rank.  Iterating ``keys`` (or the
    other three) walks the words in id order, growing each record from
    its parent's as ``WordTrie`` lists them; no other read lists a word.

    ``splits`` reads a word's deconcatenation off its parent and tail
    chains, and ``get`` and ``table`` read rDelta off them as a table
    would; ``WordQuiver`` is the words' quiver, counted.  Letter names
    must tell letters apart, and without ``max_len`` the letters must run
    round no cycle (then the longest path is the cap).
    """

    def __init__(self, objects: Sequence, letters: Sequence[Key],
                 max_len: Optional[int] = None):
        self.objects, self.letters = tuple(objects), list(letters)
        out: Dict[object, List[int]] = {x: [] for x in self.objects}
        self.rank = []
        for i, a in enumerate(self.letters):
            self.rank.append(len(out[a[0]]))
            out[a[0]].append(i)
        _refuse_bad_letters(self.letters, max_len, out)
        self.out = out
        self._pos = {a[3]: i for i, a in enumerate(self.letters)}
        tgt = self._tgt = [a[1] for a in self.letters]
        self._deg, self._name = ([a[i] for a in self.letters] for i in (2, 3))
        # cum[y][r]: the running count of words of r + 1 letters that
        # start with each letter of out[y] (y = None: every letter) in turn
        out[None] = range(len(tgt))
        self._cum: Dict[object, List[List[int]]] = {y: [] for y in out}
        self._off = [0, 0]  # _off[m]: the id of the first word of m letters
        count = dict.fromkeys(self.objects, 1)  # words of r letters from x
        while max_len is None or len(self._off) <= max_len + 1:
            after = [count[t] for t in tgt]  # words of r letters after each
            for y, o in out.items():
                self._cum[y].append(list(accumulate(
                    map(after.__getitem__, o), initial=0)))
            count = {x: self._cum[x][-1][-1] for x in self.objects}
            if max_len is None and not self._cum[None][-1][-1]:
                break  # no word of this length, nor any longer
            self._off.append(self._off[-1] + self._cum[None][-1][-1])
        del out[None]
        self.max_len = len(self._off) - 2
        # what was read: id -> record (``_word``), key -> id, key -> rDelta
        self._got: Dict[int, Tuple] = {}
        self._ids: Dict[Key, int] = {}
        self._read: Dict[Key, Dict[Tuple[Key, Key], int]] = {}
        self._levels: Optional[List[Dict[Slot, int]]] = None

    def __len__(self) -> int:
        return self._off[-1]

    def _rank(self, seq: Sequence[int], m: Optional[int] = None) -> int:
        """The id of the word of letters ``seq``; given a longer length
        ``m``, the id of the first word of m letters that starts with it."""
        m = len(seq) if m is None else m
        cum, rank, tgt = self._cum, self.rank, self._tgt
        y, w = None, self._off[m]
        for i, a in enumerate(seq):
            w += cum[y][m - 1 - i][a if y is None else rank[a]]
            y = tgt[a]
        return w

    def _word(self, w: int) -> Tuple[Key, int, int, int]:
        """Word w's record, kept from its first read: its key, and the ids
        of its parent, its tail and its first extension (-1 for none)."""
        got = self._got.get(w)
        if got is None:
            m = bisect_right(self._off, w) - 1
            r, y, seq = w - self._off[m], None, []
            for i in range(m):
                cum = self._cum[y][m - 1 - i]
                j = bisect_right(cum, r) - 1
                r -= cum[j]
                seq.append(j if y is None else self.out[y][j])
                y = self._tgt[seq[-1]]
            key = (self.letters[seq[0]][0], y,
                   sum(map(self._deg.__getitem__, seq)),
                   tuple(map(self._name.__getitem__, seq)))
            rank = self._rank
            got = self._got[w] = (
                key, rank(seq[:-1]) if m > 1 else -1,
                rank(seq[1:]) if m > 1 else -1,
                rank(seq, m + 1) if m < self.max_len else -1)
            self._ids[key] = w
        return got

    @property
    def keys(self) -> Sequence[Key]:
        return _Column(self, 0, self._off[-1])

    @property
    def parent(self) -> Sequence[int]:
        return _Column(self, 1, self._off[-1])

    @property
    def tail(self) -> Sequence[int]:
        return _Column(self, 2, self._off[-1])

    @property
    def first(self) -> Sequence[int]:
        return _Column(self, 3, self._off[-1])

    def id(self, key: Key) -> Optional[int]:
        """The id of a word key, or None for anything that is no word."""
        w = self._ids.get(key)
        if w is not None:
            return w
        if not isinstance(key, tuple) or len(key) != 4:
            return None
        x, y, n, names = key
        if not isinstance(names, tuple) or not 0 < len(names) <= self.max_len:
            return None
        seq = tuple(map(self._pos.get, names))
        if None in seq:
            return None
        ls = [self.letters[a] for a in seq]
        if (ls[0][0] != x or ls[-1][1] != y or sum(a[2] for a in ls) != n
                or any(a[1] != b[0] for a, b in zip(ls, ls[1:]))):
            return None
        w = self._ids[key] = self._rank(seq)
        return w

    def _walk(self) -> Iterator[Tuple]:
        """Every word's record, in id order: off the memo once it holds
        them all, else grown (``_grow``)."""
        got, n = self._got, self._off[-1]
        if len(got) == n:
            return map(got.__getitem__, range(n))
        return self._grow()

    def _grow(self) -> Iterator[Tuple]:
        """Every word's record, in id order, each kept as it comes: after
        the letters, the words h.a for each h one letter shorter, in id
        order, and a in ``out`` order, as ``WordTrie`` lists them; so a
        reader of every word unranks none."""
        got, out, rank, letters = self._got, self.out, self.rank, self.letters
        for m in range(1, self.max_len + 1):
            w, ext = self._off[m], self._off[m + 1]  # ext: the next first
            for h in range(self._off[m - 1], w) if m > 1 else (-1,):
                for a in out[got[h][0][1]] if h >= 0 else range(len(letters)):
                    rec = got.get(w)
                    if rec is None:
                        x, y, n, name = letters[a]
                        first = ext if m < self.max_len else -1
                        if h < 0:
                            rec = ((x, y, n, (name,)), -1, -1, first)
                        else:  # h's tail t: t.a is t's first + rank[a]
                            hkey, _, t, _ = got[h]
                            rec = ((hkey[0], y, hkey[2] + n,
                                    hkey[3] + (name,)),
                                   h, a if t < 0 else got[t][3] + rank[a],
                                   first)
                        got[w] = rec
                        self._ids[rec[0]] = w
                    ext += len(out[rec[0][1]])
                    w += 1
                    yield rec

    def splits(self, w: int) -> Iterator[Tuple[int, int]]:
        return _splits(self.parent, self.tail, w)

    def _pairs(self, w: int) -> Dict[Tuple[Key, Key], int]:
        word = self._word
        return {(word(p)[0], word(t)[0]): 1 for p, t in self.splits(w)}

    def get(self, key: Key, default=None):
        """rDelta of a word key as a table reads it: its ``splits`` as key
        pairs, each with coefficient 1 (the ``one`` of every field), or
        ``default`` for a letter or a key that is no word.  What was
        read is kept."""
        got = self._read.get(key)
        if got is None:
            w = self.id(key)
            got = self._read[key] = (
                {} if w is None or len(key[3]) < 2 else self._pairs(w))
        return got or default

    def table(self) -> Dict[Key, Dict[Tuple[Key, Key], int]]:
        """``get`` of every word that has a split, in id order."""
        return {k: self._pairs(w) for w, k in enumerate(self.keys)
                if len(k[3]) > 1}

    def _slot_counts(self) -> List[Dict[Slot, int]]:
        """[r][(x, y, n)]: the number of words of r letters from x to y
        of degree n (r = 0: the empty word at each object); counted on
        the first call.  Each level lists its slots in the order their
        first words come: level 1 takes the letters in letter order, and
        each later level extends the one before, in its order, by the
        letters of ``out``, so it meets each slot first at its
        lexicographically first word."""
        if self._levels is None:
            level: Dict[Slot, int] = {}
            for x, y, n, _ in self.letters:
                level[(x, y, n)] = level.get((x, y, n), 0) + 1
            self._levels = [{(x, x, 0): 1 for x in self.objects},
                            level][:self.max_len + 1]
            while len(self._levels) <= self.max_len:
                nxt: Dict[Slot, int] = {}
                for (x, z, n), c in level.items():
                    for a in self.out[z]:
                        _, y, k, _ = self.letters[a]
                        nxt[(x, y, n + k)] = nxt.get((x, y, n + k), 0) + c
                self._levels.append(nxt)
                level = nxt
        return self._levels

    def _slot_seqs(self, slot: Slot) -> Iterator[Tuple[int, ...]]:
        """The letters of each word in ``slot``, in id order: shortest
        first, each length walked letter by letter, a letter taken only
        where the rest of the slot can follow it."""
        x, y, n = slot
        levels, out, letters = self._slot_counts(), self.out, self.letters

        def walk(z, r: int, d: int, seq: Tuple[int, ...]):
            if not r:
                yield seq
                return
            for a in out[z]:
                _, t, k, _ = letters[a]
                if levels[r - 1].get((t, y, d - k)):
                    yield from walk(t, r - 1, d - k, seq + (a,))

        for m in range(1, len(levels)):
            if levels[m].get(slot):
                yield from walk(x, m, n, ())


class _SlotNames(Sequence):
    """The names of the words of one slot of a ``Words``, walked in id
    order on read; ``len`` is a count.  Equal to a tuple of the same
    names, and shown as one."""

    def __init__(self, words: Words, slot: Slot, n: int):
        self._words, self._slot, self._n = words, slot, n

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Tuple]:
        letters = self._words.letters
        return (tuple(letters[a][3] for a in seq)
                for seq in self._words._slot_seqs(self._slot))

    def __getitem__(self, i: int) -> Tuple:
        if not -self._n <= i < self._n:
            raise IndexError(i)
        return next(islice(self, i % self._n, None))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _SlotNames)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


class WordQuiver(GradedQuiver):
    """The quiver of a ``Words``, counted, not listed.  ``dim``,
    ``total_dim`` and ``degree_support`` read counts of words by slot,
    ``has_key`` ranks; ``slots`` maps each slot, in the order its first
    word comes, to its names walked on read (``len`` counts them), and
    ``keys`` walks the words in id order."""

    def __init__(self, words: Words):
        self.objects, self.words, self._keys = words.objects, words, words.keys
        self._ids = words._ids
        self._slots: Optional[Dict[Slot, _SlotNames]] = None

    @property
    def slots(self) -> Dict[Slot, Sequence]:
        if self._slots is None:
            dims: Dict[Slot, int] = {}  # in the order the slots first come
            for level in self.words._slot_counts()[1:]:
                for s, c in level.items():
                    dims[s] = dims.get(s, 0) + c
            self._slots = {s: _SlotNames(self.words, s, n)
                           for s, n in dims.items()}
        return self._slots

    def keys(self) -> Iterator[Key]:
        return iter(self._keys)

    def total_dim(self) -> int:
        return len(self.words)

    def has_key(self, key: Key) -> bool:
        return key in self._ids or self.words.id(key) is not None


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
        self.words, self._rule, self._keys = words, rule, words.keys
        self._rows: Dict[int, Dict[int, object]] = {}
        self._read: Dict[Key, Dict[Key, object]] = {}

    def ids(self, w: int) -> Dict[int, object]:
        """Row w of the map, on word ids; read only."""
        row = self._rows.get(w)
        if row is None:
            row = self._rows[w] = self._rule(w, self.ids)
        return row

    def _row(self, w: int) -> Dict[Key, object]:
        keys = self._keys
        return {keys[i]: c for i, c in self.ids(w).items()}

    def get(self, key: Key, default=None):
        """The row of a word key, or ``default`` where it is zero or the
        key is no word."""
        got = self._read.get(key)
        if got is None:
            w = self.words.id(key)
            got = self._read[key] = {} if w is None else self._row(w)
        return got or default

    def table(self) -> Dict[Key, Dict[Key, object]]:
        """``get`` of every word with a nonzero image, in id order."""
        rows = ((k, self._row(w)) for w, k in enumerate(self._keys))
        return {k: row for k, row in rows if row}


class WordTrie:
    """Words of letters (src, tgt, degree, name) composable end to end,
    shortest first, of at most ``max_len`` letters and ``max_weight``
    summed letter ``weights``, listed on an integer trie: the lister of
    path categories, whose readers walk every word.  ``keys`` lists them
    by id, keyed (src, tgt, degree sum, tuple of names), each key built
    once; ``cut`` is whether a cap dropped a letter or the composite of
    two listed words.  ``lid[i]`` is the id of letter i (None if
    dropped); ``parent[w]`` is w without its last letter and ``tail[w]``
    w without its first, both -1 for a letter.
    With a length cap alone the ids are those of ``Words``, which ranks
    the same words instead of listing them.

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
        _refuse_bad_letters(letters, max_len, fits[0])  # weightless letters
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
        self.keys, self.parent, self.tail = keys, parent, tail
        self.cut, self.lid, self.first, self.grow = cut, lid, first, grow
        self.out, self.rank = fits[heavy], rank[heavy]

    def splits(self, w: int) -> Iterator[Tuple[int, int]]:
        return _splits(self.parent, self.tail, w)

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


def _key_slot(quiver: GradedQuiver, om: Optional[Mapping] = None,
              shift: int = 0) -> Callable[[Key], Optional[Slot]]:
    """Key (x, y, n, name) of ``quiver`` -> the slot (om[x], om[y], n +
    ``shift``) it forces, ``om`` the identity when None; None for no key
    of ``quiver``."""
    has = quiver.has_key
    if om is None:
        return lambda k: (k[0], k[1], k[2] + shift) if has(k) else None
    return lambda k: (om[k[0]], om[k[1]], k[2] + shift) if has(k) else None


def _pair_slot(quiver: GradedQuiver,
               first: int = 0) -> Callable[[Tuple[Key, Key]], Optional[Slot]]:
    """A pair of keys of ``quiver``, item ``first`` of it walked first ->
    the slot of that path; None unless both are keys and compose."""
    has = quiver.has_key

    def slot(pair):
        a, b = pair[first], pair[1 - first]
        return ((a[0], b[1], a[2] + b[2])
                if has(a) and has(b) and a[1] == b[0] else None)
    return slot


def _endo_slot(objects: Iterable, n: int) -> Callable[[object], Optional[Slot]]:
    """Object x of ``objects`` -> its endomorphism slot (x, x, n); None for
    any other."""
    obs = set(objects)
    return lambda x: (x, x, n) if x in obs else None


def _slot_problems(table: Mapping, slot_of: Callable, term_slot: Callable,
                   what: str) -> Iterator[str]:
    """The slot rule: each entry of ``table`` whose key ``slot_of`` gives
    no slot, else each term of its value whose ``term_slot`` is not the
    key's.  A message is built for a failure only."""
    for k, v in table.items():
        slot = slot_of(k)
        if slot is None:
            yield f"{what} on unknown key {k!r}"
            continue
        for t in v:
            if term_slot(t) != slot:
                yield f"{what} of {k!r} leaves its slot {slot}: {t!r}"


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
