"""Finite bounded lattices.

A lattice is stored as a dense boolean order matrix over element indices
0..size-1 together with precomputed binary meet/join tables, so every later
operation is a table lookup.  Labels exist for I/O only.  Instances are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import NotALattice, NotAPoset, NotHeyting, UnknownElement


def _transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation matrix."""
    n = rel.shape[0]
    out = rel.copy()
    out[np.diag_indices(n)] = True
    for k in range(n):
        out |= out[:, k : k + 1] & out[k : k + 1, :]
    return out


class FiniteLattice:
    """A finite bounded lattice over elements 0..size-1.

    Attributes:
        size: number of elements.
        labels: element names, indexable by element.
        leq: read-only boolean matrix, ``leq[a, b]`` iff a <= b.
        meet_table, join_table: tuples of tuples of element indices.
        bottom, top: element indices of the bounds.
        is_distributive, is_boolean: classification flags, computed at build.
    """

    def __init__(self, labels: Sequence[str], leq: np.ndarray,
                 factors: tuple["FiniteLattice", "FiniteLattice"] | None = None):
        n = len(labels)
        if n == 0:
            raise NotALattice("a bounded lattice needs at least one element")
        if len(set(labels)) != n:
            raise NotAPoset(f"duplicate labels in {list(labels)}")
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise NotAPoset(f"order matrix must be {n}x{n}, got {leq.shape}")

        self.labels = tuple(str(x) for x in labels)
        self.size = n
        self._check_poset(leq)
        leq = leq.copy()
        leq.flags.writeable = False
        self.leq = leq
        self.meet_np = self._bound_table(leq, "lower")
        self.join_np = self._bound_table(leq.T, "upper")
        self.meet_table = tuple(map(tuple, self.meet_np.tolist()))
        self.join_table = tuple(map(tuple, self.join_np.tolist()))
        self.bottom = reduce(lambda a, b: self.meet_table[a][b], range(n), 0)
        self.top = reduce(lambda a, b: self.join_table[a][b], range(n), 0)
        self.is_distributive = self._scan_distributive()
        self.is_boolean = self.is_distributive and self._scan_complemented()
        self.factors = factors
        self._imp_np = None
        self._hash = hash((self.labels, leq.tobytes()))

    def _check_poset(self, leq: np.ndarray) -> None:
        n = self.size
        if not leq[np.diag_indices(n)].all():
            raise NotAPoset("order is not reflexive")
        sym = leq & leq.T
        if sym.sum() > n:
            a, b = next(zip(*np.where(sym & ~np.eye(n, dtype=bool))))
            raise NotAPoset(
                f"antisymmetry fails: {self.labels[a]} <= {self.labels[b]} <= {self.labels[a]}"
            )
        if ((~leq) & (leq @ leq)).any():
            raise NotAPoset("order is not transitive")

    def _bound_table(self, below: np.ndarray, kind: str) -> np.ndarray:
        """Glb table when ``below[c, a]`` means c <= a (pass leq.T for lubs).

        The down-set of glb(a, b) is exactly the intersection of the
        down-sets of a and b, so the bound exists iff that intersection
        holds an element whose down-set is as large.  Rows are found one a
        at a time, and a missing bound names the first such pair (a, b).
        """
        n = self.size
        sizes = below.sum(axis=0)[:, None]
        common = below.T.astype(np.int64) @ below  # [a, b]: how many c are below both
        table = np.empty((n, n), dtype=np.int64)
        for a, column in enumerate(below.T[:, :, None]):
            table[a] = (column & below & (sizes == common[a])).argmax(axis=0)
        found = below[table, np.arange(n)[:, None]] & below[table, np.arange(n)] \
            & (sizes[table, 0] == common)
        if not found.all():
            a, b = np.argwhere(~found)[0]
            what = "greatest lower" if kind == "lower" else "least upper"
            raise NotALattice(
                f"no {what} bound for ({self.labels[a]}, {self.labels[b]})",
                pair=(self.labels[a], self.labels[b]),
            )
        table.flags.writeable = False
        return table

    def _scan_distributive(self) -> bool:
        """Whether a /\\ (b \\/ c) = (a /\\ b) \\/ (a /\\ c), one a at a time."""
        join = self.join_np
        return not any((m[join] != join[m[:, None], m]).any() for m in self.meet_np)

    def _scan_complemented(self) -> bool:
        return bool(((self.meet_np == self.bottom)
                     & (self.join_np == self.top)).any(axis=1).all())

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FiniteLattice)
                and self.labels == other.labels
                and np.array_equal(self.leq, other.leq))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        flags = "distributive" if self.is_distributive else "non-distributive"
        if self.is_boolean:
            flags = "boolean"
        return f"FiniteLattice({self.size} elements, {flags})"

    def check_element(self, a: int) -> int:
        if (isinstance(a, bool) or not isinstance(a, (int, np.integer))
                or not 0 <= a < self.size):
            raise UnknownElement(f"{a!r} is not an element index (size {self.size})")
        return int(a)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownElement(f"no element labelled {label!r}") from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[self.check_element(a), self.check_element(b)])

    def meet(self, elems: Iterable[int]) -> int:
        """Greatest lower bound of a (possibly empty) set; meet of {} is top."""
        out = self.top
        for a in elems:
            out = self.meet_table[out][self.check_element(a)]
        return out

    def join(self, elems: Iterable[int]) -> int:
        """Least upper bound of a (possibly empty) set; join of {} is bottom."""
        out = self.bottom
        for a in elems:
            out = self.join_table[out][self.check_element(a)]
        return out

    @cached_property
    def irreducibles(self) -> tuple[np.ndarray, np.ndarray]:
        """(J, M): the elements with exactly one lower cover, and those with
        exactly one upper cover, as increasing index arrays."""
        below = self.leq & ~np.eye(self.size, dtype=bool)
        covers = below & ~(below.astype(np.int64) @ below).astype(bool)
        return tuple(np.flatnonzero(covers.sum(axis=k) == 1) for k in (0, 1))

    # -- Heyting structure ---------------------------------------------------

    def heyting_table(self) -> np.ndarray:
        """Read-only table of the relative pseudocomplement, ``[a, b]`` = a -> b."""
        if not self.is_distributive:
            raise NotHeyting("relative pseudocomplement needs a distributive lattice")
        if self._imp_np is None:
            # {c : a /\ c <= b} is a down-set, so a -> b, its greatest
            # member, is the member whose down-set is as large; one a at a time.
            sizes = self.leq.sum(axis=0)[:, None]
            table = np.empty((self.size, self.size), dtype=np.int64)
            for a, meets in enumerate(self.meet_np):
                fits = self.leq[meets]  # [c, b]: a /\ c <= b
                table[a] = (fits & (sizes == fits.sum(axis=0))).argmax(axis=0)
            table.flags.writeable = False
            self._imp_np = table
        return self._imp_np

    def heyting_implies(self, a: int, b: int) -> int:
        """Relative pseudocomplement: the largest c with a /\\ c <= b."""
        table = self.heyting_table()
        return int(table[self.check_element(a), self.check_element(b)])

    def pseudocomplement(self, a: int) -> int:
        return self.heyting_implies(a, self.bottom)

    # -- derived lattices ---------------------------------------------------

    def dual(self) -> "FiniteLattice":
        """Order dual: same elements, reversed order, swapped bounds; built
        on first use and kept, as lattices are immutable."""
        return self._dual

    @cached_property
    def _dual(self) -> "FiniteLattice":
        return FiniteLattice(self.labels, self.leq.T)

    def product(self, other: "FiniteLattice") -> "FiniteLattice":
        """Componentwise product; element (i, j) lives at index i*|other|+j."""
        labels = [f"{a}.{b}" for a in self.labels for b in other.labels]
        leq = np.kron(self.leq.astype(np.uint8), other.leq.astype(np.uint8)).astype(bool)
        return FiniteLattice(labels, leq, factors=(self, other))

    def pair_index(self, i: int, j: int) -> int:
        if self.factors is None:
            raise UnknownElement("not a product lattice")
        return i * self.factors[1].size + j

    def unpair_index(self, e: int) -> tuple[int, int]:
        if self.factors is None:
            raise UnknownElement("not a product lattice")
        m = self.factors[1].size
        return e // m, e % m

    def generated_sublattice(self, generators: Iterable[int]):
        """Smallest bounded sublattice containing the generators.

        Returns (sublattice, embedding) where embedding[k] is the parent
        index of the sublattice's element k.
        """
        current = {self.bottom, self.top}
        current.update(self.check_element(g) for g in generators)
        while True:
            new = set()
            for a in current:
                for b in current:
                    new.add(self.meet_table[a][b])
                    new.add(self.join_table[a][b])
            if new <= current:
                break
            current |= new
        elems = sorted(current)
        labels = [self.labels[e] for e in elems]
        leq = self.leq[np.ix_(elems, elems)]
        return FiniteLattice(labels, leq), tuple(elems)


def derive(first: FiniteLattice, kind: str,
           second: FiniteLattice | None = None) -> FiniteLattice:
    """Derive a new lattice: kind is 'dual' or 'product' (needs two inputs)."""
    if kind == "dual":
        return first.dual()
    if kind == "product":
        if second is None:
            raise NotALattice("product derivation needs two lattices")
        return first.product(second)
    raise ValueError(f"unknown derivation kind {kind!r}")


def build_lattice(labels: Sequence[str], order_pairs: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Build a lattice from labels and order pairs (closed transitively).

    Fails with NotAPoset on cycles and NotALattice when some pair lacks a
    meet or join.
    """
    labels = [str(x) for x in labels]
    pos = {lab: i for i, lab in enumerate(labels)}
    if len(pos) != len(labels):
        raise NotAPoset(f"duplicate labels in {labels}")
    rel = np.zeros((len(labels), len(labels)), dtype=bool)
    for a, b in order_pairs:
        a, b = str(a), str(b)
        if a not in pos or b not in pos:
            raise UnknownElement(f"order pair ({a!r}, {b!r}) uses undeclared labels")
        rel[pos[a], pos[b]] = True
    return FiniteLattice(labels, _transitive_closure(rel))


# -- JSON interchange -------------------------------------------------------


def _json_field(value, what: str, kind: type, item: type | None = None,
                length: int | None = None):
    """``value`` if its type is ``kind`` (a tuple counts as a list) and, for
    an array, it has ``length`` entries of type ``item`` where those are
    given; else ValueError naming ``what``.  Types match exactly, so no
    field is coerced: not a string into its characters, nor a float or a
    boolean into an integer."""
    if kind is list and isinstance(value, tuple):
        value = list(value)
    if (type(value) is not kind or length is not None and len(value) != length
            or item is not None and any(type(x) is not item for x in value)):
        raise ValueError(f"{what}, got {value!r}")
    return value


def lattice_from_json(doc) -> FiniteLattice:
    """Load {"labels": [...], "leq": [["a","b"], ...]} and canonicalize.

    The result uses sorted labels and the full closed order matrix so that
    re-serialization of equivalent documents is byte-identical.  A field
    of the wrong shape raises ValueError.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    labels = _json_field(doc["labels"], "labels must be an array of strings", list, str)
    pairs = _json_field(doc["leq"], "leq must be an array of label pairs", list)
    return build_lattice(sorted(labels), [
        _json_field(p, "each leq pair must be an array of 2 labels", list, str, 2)
        for p in pairs])


def lattice_to_json(lat: FiniteLattice) -> dict:
    """Canonical document: sorted labels, every ordered pair listed."""
    order = sorted(
        (lat.labels[a], lat.labels[b])
        for a in range(lat.size) for b in range(lat.size) if lat.leq[a, b]
    )
    return {"labels": sorted(lat.labels), "leq": [list(p) for p in order]}
