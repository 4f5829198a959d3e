"""Named, deterministic constructors for lattices, groups and structures.

Catalog names are usable from the CLI wherever a file is expected
(optionally prefixed with ``catalog:``), so test suites need no fixture
files.  Building the same name twice yields identical objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations

import numpy as np

from .errors import InvalidGrid, UnknownName
from .lattice import FiniteLattice
from .structures import (JOIN, MEET, RelStructure, build_structure,
                         from_group, full_structure, signature)


def chain(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1, built in closed form: its
    order is i <= j, its meet and join are min and max, every element but
    the bottom has one lower cover and every one but the top one upper
    cover, and it is distributive, and Boolean iff n <= 2."""
    if n < 1:
        raise UnknownName("chains need at least one element")
    i = np.arange(n)
    return FiniteLattice._derived(
        [str(k) for k in range(n)], i[:, None] <= i,
        (np.minimum.outer(i, i), np.maximum.outer(i, i)), (0, n - 1),
        (i[1:], i[:-1]), (True, n <= 2))


def boolean(k: int) -> FiniteLattice:
    """Powerset of k atoms ordered by inclusion; labels list the atoms.

    Built in closed form on bit masks: a <= b iff a & b == a, meet and
    join are & and |, J holds the atoms (the single bits) and M the
    coatoms (the top less one bit), both in increasing order.
    """
    if not 0 <= k <= 6:
        raise UnknownName("boolean(k) supported for 0 <= k <= 6")
    subsets = [""]  # by mask: bit i adds the i-th atom
    for atom in "abcdef"[:k]:
        subsets += [s + atom for s in subsets]
    m = np.arange(1 << k)
    meet = m[:, None] & m
    top = (1 << k) - 1
    bits = 1 << np.arange(k)
    return FiniteLattice._derived(
        [s or "0" for s in subsets], meet == m[:, None], (meet, m[:, None] | m), (0, top),
        (bits, top ^ bits[::-1]), (True, True))


def _five(pentagon: bool) -> tuple:
    """The closed form of M3, or of N5 when ``pentagon``, as the arguments
    of FiniteLattice._derived: 0 is below and 1 above every element of
    0, a, b, c, 1, and N5 adds a < b.  In both, two incomparable elements
    meet at 0 and join at 1, and a, b and c each have one lower and one
    upper cover; neither is distributive."""
    i = np.arange(5)
    leq = (i[:, None] == i) | (i[:, None] == 0) | (i == 4)
    leq[1, 2] = pentagon
    meet = np.where(leq, i[:, None], np.where(leq.T, i, 0))
    join = np.where(leq, i, np.where(leq.T, i[:, None], 4))
    return (["0", "a", "b", "c", "1"], leq, (meet, join), (0, 4), (i[1:4], i[1:4]),
            (False, False))


def m3() -> FiniteLattice:
    """The diamond: three incomparable atoms between the bounds, built in
    closed form (see _five)."""
    return FiniteLattice._derived(*_five(False))


def n5() -> FiniteLattice:
    """The pentagon: 0 < a < b < 1 with c incomparable to both, built in
    closed form (see _five)."""
    return FiniteLattice._derived(*_five(True))


def cyclic_group(n: int) -> RelStructure:
    if n < 1:
        raise UnknownName("cyclic groups need at least one element")
    return from_group([[(a + b) % n for b in range(n)] for a in range(n)])


def symmetric_group_3() -> RelStructure:
    """S3 as permutations of {0,1,2} in lexicographic order; (p*q)(x)=p(q(x))."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return from_group(table)


def type2_structure(n: int, mixed: bool = False):
    """Truth-value grid {0, 1/(n-1), .., 1} as a relational structure.

    Relations: ternary 'min' and 'max' (the grid's meet and join as graphs),
    binary 'neg' (x -> 1-x; the grid is symmetric so this is closed), and
    the constants 'c0' and 'c1'.  All relations are join-convolved; the
    mixed variant meet-convolves 'min' and 'c0' instead.  Returns the
    structure and a map from conventional operation names to relation
    names; the matching lattice is chain(n) over the same grid.
    """
    if n < 2:
        raise InvalidGrid("the grid needs at least the two endpoints")
    top = n - 1
    min_rel = {(a, b, min(a, b)) for a in range(n) for b in range(n)}
    max_rel = {(a, b, max(a, b)) for a in range(n) for b in range(n)}
    neg_rel = {(a, top - a) for a in range(n)}
    c0_rel = {(0,)}
    c1_rel = {(top,)}
    min_mode = MEET if mixed else JOIN
    c0_mode = MEET if mixed else JOIN
    sig = signature(("min", 2, min_mode), ("max", 2, JOIN), ("neg", 1, JOIN),
                    ("c0", 0, c0_mode), ("c1", 0, JOIN))
    structure = RelStructure(n, sig, [min_rel, max_rel, neg_rel, c0_rel, c1_rel])
    names = {"sqcap": "min", "sqcup": "max", "star": "neg",
             "one0": "c0", "one1": "c1"}
    return structure, names


def grid_labels(n: int) -> list[str]:
    """Display labels for the grid points of type2_structure(n)."""
    return [str(Fraction(i, n - 1)) for i in range(n)]


# -- fixed pools --------------------------------------------------------------


def lattice_pool() -> list[tuple[str, FiniteLattice]]:
    """Small lattices exercised across the verification suites."""
    return [
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain4", chain(4)),
        ("boolean2", boolean(2)),
        ("boolean3", boolean(3)),
        ("M3", m3()),
        ("N5", n5()),
        ("chain2*chain3", chain(2).product(chain(3))),
    ]


@cache
def structure_pool() -> tuple[tuple[str, RelStructure], ...]:
    """Small structures (carrier <= 3, operation arity <= 2, mixed modes,
    nullary included) used by the isomorphism and operator suites, built
    once per process."""
    nabla3 = {(a, b) for a in range(3) for b in range(3)}
    return (
        ("frame1-loop", build_structure(1, signature(("f", 1, JOIN)), [{(0, 0)}])),
        ("frame1-empty", build_structure(1, signature(("f", 1, JOIN)), [set()])),
        ("frame2-full", full_structure(2)),
        ("frame2-succ", build_structure(2, signature(("f", 1, JOIN)),
                                        [{(0, 1), (1, 1)}])),
        ("frame2-id", build_structure(2, signature(("f", 1, JOIN)),
                                      [{(0, 0), (1, 1)}])),
        ("frame2-meet-full", build_structure(2, signature(("g", 1, MEET)),
                                             [{(a, b) for a in range(2) for b in range(2)}])),
        ("frame2-meet-arrow", build_structure(2, signature(("g", 1, MEET)),
                                              [{(0, 1)}])),
        ("frame3-cycle", build_structure(3, signature(("f", 1, JOIN)),
                                         [{(0, 1), (1, 2), (2, 0)}])),
        ("frame3-partial", build_structure(3, signature(("f", 1, JOIN)),
                                           [{(0, 0), (0, 1), (1, 2)}])),
        ("frame3-meet-cycle", build_structure(3, signature(("g", 1, MEET)),
                                              [{(0, 1), (1, 2), (2, 0)}])),
        ("frame3-meet-nabla", build_structure(3, signature(("g", 1, MEET)), [nabla3])),
        ("nullary2-join", build_structure(2, signature(("k", 0, JOIN)), [{(0,)}])),
        ("nullary2-meet", build_structure(2, signature(("k", 0, MEET)), [{(1,)}])),
        ("nullary3-pair", build_structure(3, signature(("k", 0, JOIN)), [{(0,), (2,)}])),
        ("mixed2", build_structure(2, signature(("f", 1, JOIN), ("g", 1, MEET)),
                                   [{(0, 1), (1, 1)}, {(0, 0), (1, 0)}])),
        ("mixed2-nullary", build_structure(2, signature(("k", 0, JOIN), ("l", 0, MEET)),
                                           [{(0,)}, {(0,)}])),
        ("mixed3-nabla", full_structure(3, extended=True)),
        ("z2-group", cyclic_group(2)),
        ("z3-group", cyclic_group(3)),
        ("min3", build_structure(3, signature(("m", 2, JOIN)),
                                 [{(a, b, min(a, b)) for a in range(3) for b in range(3)}])),
        ("max3-meet", build_structure(3, signature(("w", 2, MEET)),
                                      [{(a, b, max(a, b)) for a in range(3) for b in range(3)}])),
        ("binary2-partial", build_structure(2, signature(("h", 2, JOIN)),
                                            [{(0, 0, 0), (0, 1, 1), (1, 1, 0)}])),
        ("binary2-meet", build_structure(2, signature(("h", 2, MEET)),
                                         [{(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)}])),
        ("empty-binary3", build_structure(3, signature(("f", 1, JOIN)), [set()])),
    )


# -- name resolution ------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # lattice | group | structure | extended-structure
    parameters: str

    def to_dict(self):
        return {"name": self.name, "kind": self.kind, "parameters": self.parameters}


def catalog_entries() -> list[CatalogEntry]:
    entries = [
        CatalogEntry("chainN", "lattice", "N >= 1, e.g. chain3"),
        CatalogEntry("booleanK", "lattice", "0 <= K <= 6, e.g. boolean2"),
        CatalogEntry("M3", "lattice", "none"),
        CatalogEntry("N5", "lattice", "none"),
        CatalogEntry("A*B", "lattice", "product of two catalog lattices"),
        CatalogEntry("ZN", "group", "N >= 1, e.g. Z2"),
        CatalogEntry("S3", "group", "none"),
        CatalogEntry("fullN", "structure", "all-pairs frame, e.g. full2"),
        CatalogEntry("fullextN", "extended-structure",
                     "all-pairs frame convolved both ways, e.g. fullext2"),
        CatalogEntry("type2_N", "extended-structure",
                     "truth-value grid with N points, e.g. type2_3"),
        CatalogEntry("type2mixed_N", "extended-structure",
                     "mixed-mode truth-value grid"),
    ]
    entries += [CatalogEntry(name, "structure", "none")
                for name, _ in structure_pool()]
    return entries


def get_lattice(name: str) -> FiniteLattice:
    """Resolve a lattice name: chainN, booleanK, M3, N5, or A*B products."""
    name = name.strip()
    if "*" in name:
        left, right = name.split("*", 1)
        return get_lattice(left).product(get_lattice(right))
    low = name.lower()
    if low == "m3":
        return m3()
    if low == "n5":
        return n5()
    m = re.fullmatch(r"chain(\d+)", low)
    if m:
        return chain(int(m.group(1)))
    m = re.fullmatch(r"boolean(\d+)", low)
    if m:
        return boolean(int(m.group(1)))
    raise UnknownName(f"no lattice named {name!r} in the catalog")


def get_group(name: str) -> RelStructure:
    """Resolve a group name: ZN or S3."""
    low = name.strip().lower()
    if low == "s3":
        return symmetric_group_3()
    m = re.fullmatch(r"z(\d+)", low)
    if m:
        return cyclic_group(int(m.group(1)))
    raise UnknownName(f"no group named {name!r} in the catalog")


def get_structure(name: str) -> RelStructure:
    """Resolve a structure name: groups, fullN, fullextN, type2 variants,
    or any fixed pool entry."""
    low = name.strip().lower()
    try:
        return get_group(low)
    except UnknownName:
        pass
    m = re.fullmatch(r"full(\d+)", low)
    if m:
        return full_structure(int(m.group(1)))
    m = re.fullmatch(r"fullext(\d+)", low)
    if m:
        return full_structure(int(m.group(1)), extended=True)
    m = re.fullmatch(r"type2_(\d+)", low)
    if m:
        return type2_structure(int(m.group(1)))[0]
    m = re.fullmatch(r"type2mixed_(\d+)", low)
    if m:
        return type2_structure(int(m.group(1)), mixed=True)[0]
    for pool_name, structure in structure_pool():
        if pool_name == name.strip():
            return structure
    raise UnknownName(f"no structure named {name!r} in the catalog")
