"""Seeded random instances for the property suites.

Instances are built from families that are valid *by construction*
(square-zero multiplications, paired differentials, free path categories
on acyclic quivers, library samples, opposites, small tensors), so the
validators are exercised as checks rather than filters.  Everything is
driven by a caller-supplied seed; total dimension stays small because the
axiom suites iterate over basis triples.

Algebras and primitive coalgebras are built by names, through the
``samples`` builders ``category_by_names`` and ``coalgebra_by_names``.
The unit laws fill in the unit rows: the unit is the first degree-0
endomorphism listed, ``e``, and a reduced product left out is zero.
``_paired_differential`` reads a quiver (spanned by
``samples.named_keys``, or a free category's generators) and gives d by
names.
"""

from __future__ import annotations

import random
from typing import Dict, List

from .barcobar import bar_construction
from .coalgebra import cotensor_coalgebra, tensor_coalgebras
from .dgcat import DgCategory, free_category, opposite, tensor_dg
from .field import Field
from .quiver import GradedQuiver
from . import samples


def _paired_differential(rng, field, quiver):
    """Pick disjoint pairs (s, f) of arrows of ``quiver`` with deg f =
    deg s + 1 in matching hom-slots and set d(s) = c f, by names;
    squares to zero by construction."""
    diff = {}
    used = set()
    flat = list(quiver.keys())
    rng.shuffle(flat)
    for x, y, n, s in flat:
        if s in used:
            continue
        targets = [f for f in quiver.slot(x, y, n + 1) if f not in used]
        if targets and rng.random() < 0.6:
            f = rng.choice(targets)
            used.update((s, f))
            diff[s] = {f: field.random(rng, nonzero=True)}
    return diff


def random_square_zero_algebra(
    field: Field, rng: random.Random, max_extra: int = 3, curved: bool = False
) -> DgCategory:
    """Unital algebra with all reduced products zero, paired d, optional
    central curvature (any closed reduced degree-2 element works)."""
    extra = rng.randint(1, max_extra)
    degree_pool = [-1, 0, 1, 2]
    reduced = {f"r{i}": rng.choice(degree_pool) for i in range(extra)}
    if curved and 2 not in reduced.values():
        reduced[f"r{extra - 1}"] = 2
    diff = _paired_differential(rng, field, samples.named_keys(reduced)[1])

    curvature = None
    if curved:
        closed2 = [n for n, d in reduced.items() if d == 2 and n not in diff]
        if closed2:
            curvature = {rng.choice(closed2): field.random(rng, nonzero=True)}
    return samples.category_by_names(
        field, {"e": 0, **reduced}, diff=diff, curvature=curvature
    )


def random_free_category(field: Field, rng: random.Random) -> DgCategory:
    """Path category on a small acyclic quiver with a paired differential."""
    nob = rng.randint(2, 3)
    objects = tuple(f"v{i}" for i in range(nob))
    narrows = rng.randint(1, 2)
    slots: Dict[tuple, List[str]] = {}
    for i in range(narrows):
        a = rng.randrange(nob)
        b = rng.randrange(nob)
        if a == b:
            continue
        if a > b:
            a, b = b, a  # edges go upward: acyclic
        deg = rng.choice([-1, 0, 1])
        slots.setdefault((objects[a], objects[b], deg), []).append(f"g{i}")
    gen = GradedQuiver(objects, slots)
    key = {k[3]: k for k in gen.keys()}
    # generator names map to length-1 word keys of the free category
    d_gen = {
        key[s]: {key[f][:3] + ((f,),): c for f, c in v.items()}
        for s, v in _paired_differential(rng, field, gen).items()
    }
    return free_category(field, gen, d_gen)


def random_primitive_coalgebra(
    field: Field, rng: random.Random, max_extra: int = 3, curved: bool = False
):
    """Primitives only (rDelta = 0) with a paired differential; co-Leibniz
    and conilpotence hold vacuously.  A curvature functional on a
    degree -2 element away from the differential's image stays valid."""
    extra = rng.randint(1, max_extra)
    pool = [-3, -2, -1, 0, 1]
    basis = {f"p{i}": rng.choice(pool) for i in range(extra)}
    if curved:
        basis["p0"] = -2
    diff = _paired_differential(rng, field, samples.named_keys(basis)[1])
    curv = {}
    if curved:
        touched = set(diff).union(*diff.values())
        free2 = [n for n, d in basis.items() if d == -2 and n not in touched]
        if free2:
            curv[rng.choice(free2)] = field.random(rng, nonzero=True)
    return samples.coalgebra_by_names(field, basis, diff=diff, curv=curv)


def random_word_coalgebra(field: Field, rng: random.Random):
    """Deconcatenation coalgebra on a small random generator quiver,
    weight-capped, with no differential."""
    nob = rng.randint(1, 2)
    objects = tuple(f"v{i}" for i in range(nob))
    slots: Dict[tuple, List[str]] = {}
    for i in range(rng.randint(1, 2)):
        a = objects[rng.randrange(nob)]
        b = objects[rng.randrange(nob)]
        deg = rng.choice([-1, 0, 1])
        slots.setdefault((a, b, deg), []).append(f"g{i}")
    gen = GradedQuiver(objects, slots)
    return cotensor_coalgebra(field, gen, max_weight=2)


_COALGEBRA_PICKS = [
    "w",
    "curved_chain",
    "curved_chain_flipped",
    "dag",
    "primitive_pair",
    "neg_primitive",
    "cancel",
]


def random_coalgebra(
    field: Field,
    seed: int,
    max_dim: int = 4,
    allow_curved: bool = True,
):
    """Seeded valid pointed coalgebra with reduced dimension <= max_dim."""
    rng = random.Random(f"ptdcoa:{seed}")
    for _ in range(60):
        kind = rng.choice(
            ["primitive", "primitive", "word", "library", "tensor", "bar"]
        )
        if kind == "primitive":
            c = random_primitive_coalgebra(
                field,
                rng,
                max_extra=max(1, max_dim),
                curved=allow_curved and rng.random() < 0.3,
            )
        elif kind == "word":
            c = random_word_coalgebra(field, rng)
        elif kind == "library":
            c = samples.COALGEBRA_LIBRARY[rng.choice(_COALGEBRA_PICKS)](field)
        elif kind == "bar":
            base = random_dg_category(
                field, rng.randrange(1 << 30), max_dim=3, allow_curved=False
            )
            c = bar_construction(base, weight_cap=2)
        else:
            a = random_primitive_coalgebra(field, rng, max_extra=1)
            b = random_primitive_coalgebra(field, rng, max_extra=2)
            c = tensor_coalgebras(a, b)
        if c.reduced.total_dim() <= max_dim:
            if not allow_curved and c.is_curved():
                continue
            return c
    fallback = samples.w_coalgebra if allow_curved else samples.primitive_pair
    return fallback(field)


_LIBRARY_PICKS = [
    "k",
    "a2",
    "dual_numbers",
    "exterior_line",
    "group_like",
    "contractible_arrow",
    "curved_nilpotent",
    "contractible_endo",
    "poly_diff",
    "trunc_poly3",
]


def random_dg_category(
    field: Field,
    seed: int,
    max_dim: int = 4,
    allow_curved: bool = True,
) -> DgCategory:
    """Seeded valid dg category with total dimension <= max_dim."""
    rng = random.Random(f"dgcat:{seed}")
    for _ in range(60):
        kind = rng.choice(
            ["square_zero", "square_zero", "free", "library", "op", "tensor"]
        )
        if kind == "square_zero":
            c = random_square_zero_algebra(
                field,
                rng,
                max_extra=max(1, max_dim - 1),
                curved=allow_curved and rng.random() < 0.3,
            )
        elif kind == "free":
            c = random_free_category(field, rng)
        elif kind == "library":
            c = samples.CATEGORY_LIBRARY[rng.choice(_LIBRARY_PICKS)](field)
        elif kind == "op":
            c = opposite(
                random_dg_category(
                    field, rng.randrange(2**30), max_dim, allow_curved
                )
            )
        else:
            a = samples.CATEGORY_LIBRARY[rng.choice(["k", "exterior_line"])](field)
            b = random_dg_category(
                field, rng.randrange(2**30), max_dim, allow_curved
            )
            c = tensor_dg(a, b)
        if c.quiver.total_dim() <= max_dim:
            if not allow_curved and c.is_curved():
                continue
            return c
    return samples.k_category(field)
