"""Exact scalar arithmetic for the coefficient fields.

Two kinds of field are supported: the rationals (values are
``fractions.Fraction``) and prime fields GF(p) (values are ints reduced into
``range(p)``).  A ``Field`` instance bundles the arithmetic so matrices,
complexes and structure tables never branch on the characteristic.

Scalars are plain Python objects; a field never wraps them.  Everything that
stores coefficients keyed by basis labels uses the ``vec_*`` helpers below
(sparse dicts, zero entries always dropped).

This module is also the one home of structure tables: a table maps a basis
key (or a pair of keys) to a sparse vector, or to a scalar for a
functional such as a curvature.  Three rules hold for every table a
category, coalgebra, functor, morphism or Maurer-Cartan element stores:

- it is normalized on construction: ``_normalize`` drops zero
  coefficients and empty entries in place;
- it is owned by the object: the constructor keeps the caller's dict, so
  the caller hands it over and edits it no further;
- an entry equals the table applied to its basis key, so code that holds
  a key reads its entry instead of applying the table to a basis vector.

A table is applied by one kernel per shape: ``_apply`` (linear),
``_evaluate`` (functional) and ``_compose`` (bilinear).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterator


class Field:
    """Common interface; use the QQ singleton or GF(p)."""

    char: int
    name: str
    size: int | None  # None = infinite

    def coerce(self, x: Any):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def elements(self) -> Iterator:
        """All field elements; only available for finite fields."""
        raise NotImplementedError(f"{self.name} is not finite")

    def random(self, rng, nonzero: bool = False):
        raise NotImplementedError

    def to_json(self, a):
        """JSON-friendly form; parse() inverts it."""
        raise NotImplementedError

    def parse(self, s):
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class _Rationals(Field):
    char = 0
    name = "q"
    size = None
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def random(self, rng, nonzero: bool = False):
        # small numerators/denominators keep downstream elimination readable
        while True:
            v = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))
            if v != 0 or not nonzero:
                return v

    def to_json(self, a):
        return str(a) if a.denominator != 1 else a.numerator

    def parse(self, s):
        return self.coerce(s)


class _PrimeField(Field):
    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.char = p
        self.name = f"f{p}"
        self.size = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.char
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(f"{x} has no image in GF({self.char})")
            return (x.numerator * pow(x.denominator, -1, self.char)) % self.char
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into GF({self.char})")

    def add(self, a, b):
        return (a + b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.char)

    def elements(self):
        return iter(range(self.char))

    def random(self, rng, nonzero: bool = False):
        return rng.randint(1 if nonzero else 0, self.char - 1)

    def to_json(self, a):
        return a

    def parse(self, s):
        return self.coerce(s if isinstance(s, int) else Fraction(s))


QQ = _Rationals()

_gf_cache: Dict[int, _PrimeField] = {}


def GF(p: int) -> Field:
    if p not in _gf_cache:
        _gf_cache[p] = _PrimeField(p)
    return _gf_cache[p]


def field_by_name(name: str) -> Field:
    """Resolve 'q', 'f2', 'f3', 'f5', ... to a Field instance."""
    name = name.strip().lower()
    if name in ("q", "qq", "rational", "rationals"):
        return QQ
    if name.startswith("f") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise ValueError(f"unknown field {name!r} (expected q or f<prime>)")


# ---------------------------------------------------------------------------
# Sparse vectors: dict[label -> scalar], zero entries never stored.

Vec = Dict[Any, Any]


def vec_add(field: Field, a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, v in b.items():
        s = field.add(out.get(k, field.zero), v)
        if field.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_sub(field: Field, a: Vec, b: Vec) -> Vec:
    return vec_add(field, a, vec_neg(field, b))


def vec_neg(field: Field, a: Vec) -> Vec:
    return {k: field.neg(v) for k, v in a.items()}


def vec_scale(field: Field, s, a: Vec) -> Vec:
    if field.is_zero(s):
        return {}
    return {k: field.mul(s, v) for k, v in a.items()}


def vec_addmul(field: Field, a: Vec, s, b: Vec) -> Vec:
    """a + s*b without building the intermediate."""
    if field.is_zero(s):
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        t = field.add(out.get(k, field.zero), field.mul(s, v))
        if field.is_zero(t):
            out.pop(k, None)
        else:
            out[k] = t
    return out


def vec_bump(field: Field, out: Vec, key, s) -> None:
    """In-place out[key] += s, dropping the entry if it cancels."""
    t = field.add(out.get(key, field.zero), s)
    if field.is_zero(t):
        out.pop(key, None)
    else:
        out[key] = t


# ---------------------------------------------------------------------------
# Structure tables: key -> Vec, or key -> scalar for a functional.


def _normalize(table: Dict) -> Dict:
    """Drop zero coefficients and empty entries of ``table`` in place.

    Zero is 0 in every field here (``Fraction(0) == 0``), so this needs no
    field, and a Maurer-Cartan element, which carries none, uses it too.
    """
    dead = []
    for k, v in table.items():
        if isinstance(v, dict):
            if 0 in v.values():
                for j in [j for j, c in v.items() if c == 0]:
                    del v[j]
            if not v:
                dead.append(k)
        elif v == 0:
            dead.append(k)
    for k in dead:
        del table[k]
    return table


def _apply(field: Field, table: Dict, vec: Vec) -> Vec:
    """The linear map with basis images ``table`` applied to ``vec``."""
    out: Vec = {}
    for k, c in vec.items():
        entry = table.get(k)
        if entry:
            for k2, c2 in entry.items():
                vec_bump(field, out, k2, field.mul(c, c2))
    return out


def _evaluate(field: Field, table: Dict, vec: Vec):
    """The functional with basis values ``table`` evaluated on ``vec``."""
    out = field.zero
    for k, c in vec.items():
        h = table.get(k)
        if h is not None:
            out = field.add(out, field.mul(h, c))
    return out


def _compose(field: Field, table: Dict, g: Vec, f: Vec) -> Vec:
    """The bilinear map with basis values ``table[(gk, fk)]`` on (g, f)."""
    out: Vec = {}
    for gk, gc in g.items():
        for fk, fc in f.items():
            entry = table.get((gk, fk))
            if entry:
                c = field.mul(gc, fc)
                for k2, c2 in entry.items():
                    vec_bump(field, out, k2, field.mul(c, c2))
    return out
