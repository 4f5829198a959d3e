"""Finite bounded lattices.

A lattice is stored as a dense boolean order matrix over element indices
0..size-1 together with precomputed binary meet/join arrays, so every later
operation is a table lookup.  Labels exist for I/O only.  Instances are
immutable after construction and safe to share between threads.

A lattice given by its order is searched: its tables by a ranked max over
blocks of rows, its counts (transitivity, the sizes of common down-sets,
the closure of ``build_lattice``) by float32 matrix products, exact below
2^24 elements.  An order dual or a product is not searched: ``dual()`` and
``product()`` read its tables, bounds, irreducibles and flags off the
lattices it derives from.  Nor are the catalog's chains, Boolean
lattices, M3 and N5, whose tables are known outright: ``catalog.chain``,
``catalog.boolean``, ``catalog.m3`` and ``catalog.n5`` write them in
closed form.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NotALattice, NotAPoset, NotHeyting, UnknownElement


def _transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation matrix.

    The relation is squared until it stops changing: after k squarings it
    holds every path of up to 2^k steps.  A square is a float32 matrix
    product whose entries count the paths of two steps, at most n, so
    they are exact below 2^24 elements.
    """
    out = rel | np.eye(len(rel), dtype=bool)
    while True:
        paths = out.astype(np.float32)
        step = paths @ paths > 0
        if np.array_equal(step, out):
            return out
        out = step


_BLOCK = 1 << 18
"""Entries of the largest temporary array one block of a table step builds."""


def _blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows), each of at least one row and, when a
    row has ``width`` entries, of at most ``_BLOCK`` entries otherwise."""
    step = max(1, _BLOCK // width)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _ranks(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank weights of the elements and the element of each weight, for
    each order whose down-set sizes are ``sizes[..., a]``.

    Elements are ranked by down-set size, largest first, ties by index,
    and the element of rank r weighs n - 1 - r.  Among the members of a
    down-set, its greatest element, if it has one, has the largest
    down-set, so it is the member of largest weight.
    """
    element = (-sizes).argsort(axis=-1, kind="stable")[..., ::-1]
    # weight is the inverse permutation of element
    weight = element.argsort(axis=-1).astype(np.min_scalar_type(sizes.shape[-1]))
    return weight, element


class FiniteLattice:
    """A finite bounded lattice over elements 0..size-1.

    Attributes:
        size: number of elements.
        labels: element names, indexable by element.
        leq: read-only boolean matrix, ``leq[a, b]`` iff a <= b.
        meet_np, join_np: read-only integer arrays, ``meet_np[a, b]`` the
            meet of a and b and ``join_np[a, b]`` their join.
        bottom, top: element indices of the bounds.
        irreducibles: (J, M), the elements with exactly one lower cover and
            those with exactly one upper cover, as read-only increasing
            index arrays.
        is_distributive, is_boolean: classification flags.
        factors: the two factors of a product lattice, else None.
    All of them are fixed at build: searched for in the order of a lattice
    given by one, read off the lattices that an order dual or a product
    derives from, or written in closed form for a catalog chain,
    Boolean lattice, M3 or N5.  The Heyting table, the code tables of
    power lattices (``power_table``) and the byte masks of the
    irreducibles (``byte_masks``) are built on first use and kept.
    """

    def __init__(self, labels: Sequence[str], leq: np.ndarray):
        if len(labels) == 0:
            raise NotALattice("a bounded lattice needs at least one element")
        self._label(labels)
        n = self.size
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise NotAPoset(f"order matrix must be {n}x{n}, got {leq.shape}")

        order = leq.astype(np.float32)
        self._check_poset(leq, order)
        # below[0] is the order and below[1] its dual, so what the down-sets
        # of one give, the up-sets of the other give dually.
        below = np.array((leq, leq.T))
        sizes = below.sum(axis=1)  # [k, a]: size of a's down-set in order k
        meet, join = self._bound_tables(below, sizes, order)
        # In a lattice the bounds are the only elements whose down-set,
        # respectively up-set, is the element alone.
        bounds = sizes.argmin(axis=1).tolist()
        # An element has exactly one lower cover iff the elements strictly
        # below it have a greatest one, which is then an element below it
        # whose down-set is one smaller; dually for upper covers.
        covered = (below & (sizes[:, :, None] + 1 == sizes[:, None])).any(axis=1)
        irreducibles = tuple(c.nonzero()[0] for c in covered)
        distributive = self._scan_distributive(leq, meet, join, irreducibles[0])
        # A finite distributive lattice is Boolean iff its join-irreducibles
        # are atoms: the down-sets of the poset J are all its subsets iff J
        # is an antichain.
        boolean = distributive and bool((sizes[0, irreducibles[0]] == 2).all())
        self._fill(leq.copy(), (meet, join), bounds, irreducibles,
                   (distributive, boolean))

    @classmethod
    def _derived(cls, labels, leq, tables, bounds, irreducibles, flags,
                 factors=None) -> "FiniteLattice":
        """The lattice on ``labels`` whose order, (meet, join) tables,
        (bottom, top), (J, M) and (distributive, Boolean) flags are given:
        read off the lattices an order dual or a product derives from, or
        the closed forms of a catalog chain, Boolean lattice, M3 or N5.
        Only the labels are checked, so each caller must give exactly what
        a search of ``leq`` finds, dtypes included: tables and irreducibles
        of numpy's index type, Python int bounds and bool flags."""
        self = cls.__new__(cls)
        self._label(labels)
        self._fill(leq, tables, bounds, irreducibles, flags, factors)
        return self

    def _label(self, labels: Sequence[str]) -> None:
        self.labels = tuple(str(x) for x in labels)
        self.size = len(self.labels)
        if len(set(self.labels)) != self.size:
            raise NotAPoset(f"duplicate labels in {list(self.labels)}")

    def _fill(self, leq, tables, bounds, irreducibles, flags, factors=None) -> None:
        for array in (leq, *tables, *irreducibles):
            array.flags.writeable = False
        self.leq = leq
        self.meet_np, self.join_np = tables
        self.bottom, self.top = bounds
        self.irreducibles = irreducibles
        self.is_distributive, self.is_boolean = flags
        self.factors = factors
        self._imp_np = None
        self._kept = {}  # what power_table and byte_masks build, by key
        self._hash = hash((self.labels, leq.tobytes()))

    def _check_poset(self, leq: np.ndarray, order: np.ndarray) -> None:
        """Raise NotAPoset unless ``leq``, also given as the float32 matrix
        ``order``, is reflexive, antisymmetric and transitive."""
        n = self.size
        if not leq.diagonal().all():
            raise NotAPoset("order is not reflexive")
        sym = leq & leq.T
        if sym.sum() > n:
            a, b = next(zip(*np.where(sym & ~np.eye(n, dtype=bool))))
            raise NotAPoset(
                f"antisymmetry fails: {self.labels[a]} <= {self.labels[b]} <= {self.labels[a]}"
            )
        # A reflexive relation is contained in its square, and it is
        # transitive iff the two are equal.
        if not np.array_equal(order @ order > 0, leq):
            raise NotAPoset("order is not transitive")

    def _bound_tables(self, below: np.ndarray, sizes: np.ndarray,
                      order: np.ndarray) -> np.ndarray:
        """The glb tables of both orders in ``below``, with down-set sizes
        ``sizes``: the meet table, then the join table (the glb table of
        the dual).  ``order`` is ``below[0]`` as float32.  Both tables are
        built in the same numpy calls, so a small lattice pays each call
        once.

        The down-set of glb(a, b) is exactly the intersection of the
        down-sets of a and b, so the bound exists iff that intersection
        holds an element whose down-set is as large.  That element is then
        its member of largest rank weight (see ``_ranks``).  A block of
        rows a is one max over the weights common to a and each b.  The
        sizes of the intersections are one float32 matrix product per
        order, exact below 2^24 elements.  A missing bound names the first
        such pair (a, b), glbs before lubs.
        """
        n = self.size
        weight, element = _ranks(sizes)  # [k, a] and [k, w] in order k
        ranked = below * weight[:, :, None]  # [k, c, a]: c's weight if c <= a, else 0
        # first[k, a, b]: the largest weight common to the down-sets of a
        # and b, 0 when they share no member.
        first = np.empty((2, n, n), dtype=weight.dtype)
        for rows in _blocks(n, 2 * n * n):
            np.minimum(ranked[:, :, rows, None], ranked[:, :, None]).max(
                axis=1, out=first[:, rows])
        # common[k, a, b]: how many members the down-sets of a and b share
        common = np.empty((2, n, n), dtype=np.float32)
        np.matmul(order.T, order, out=common[0])
        np.matmul(order, order.T, out=common[1])
        # With no common member this is the element of weight 0, whose
        # down-set is not empty, so the bound is not found.
        k = np.arange(2)[:, None, None]
        tables = element[k, first]
        found = sizes[k, tables] == common
        if not found.all():
            k, a, b = np.argwhere(~found)[0]
            what = ("greatest lower", "least upper")[k]
            raise NotALattice(
                f"no {what} bound for ({self.labels[a]}, {self.labels[b]})",
                pair=(self.labels[a], self.labels[b]),
            )
        return tables

    @staticmethod
    def _scan_distributive(leq: np.ndarray, meet: np.ndarray, join: np.ndarray,
                           joins: np.ndarray) -> bool:
        """Whether every join-irreducible j, of the index array ``joins``,
        is join-prime: j <= a \\/ b iff j <= a or j <= b.

        That is Birkhoff's criterion.  A distributive lattice passes, as
        j = (j /\\ a) \\/ (j /\\ b) forces j to equal one of the two.
        Conversely, if every j is join-prime then a |-> U(a) = {j in J :
        j <= a} maps joins to unions and meets to intersections, and it is
        one to one since every element is the join of the j below it, so
        the lattice embeds in the powerset of J, which is distributive.

        It is tested by counts.  U(a /\\ b) is always U(a) & U(b), and
        U(a \\/ b) always holds U(a) | U(b), so every j is join-prime iff
        |U(a \\/ b)| = |U(a)| + |U(b)| - |U(a /\\ b)| for all a and b.
        """
        counts = leq[joins].sum(axis=0)  # counts[a] = |U(a)|
        return bool((counts[join] + counts[meet] == counts[:, None] + counts).all())

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
            out = self.meet_np[out, self.check_element(a)]
        return int(out)

    def join(self, elems: Iterable[int]) -> int:
        """Least upper bound of a (possibly empty) set; join of {} is bottom."""
        out = self.bottom
        for a in elems:
            out = self.join_np[out, self.check_element(a)]
        return int(out)

    # -- Heyting structure ---------------------------------------------------

    def heyting_table(self) -> np.ndarray:
        """Read-only table of the relative pseudocomplement, ``[a, b]`` = a -> b."""
        if not self.is_distributive:
            raise NotHeyting("relative pseudocomplement needs a distributive lattice")
        if self._imp_np is None:
            # {c : a /\ c <= b} is a down-set with a greatest member, a -> b,
            # which is its member of largest rank weight.
            n = self.size
            weight, element = _ranks(self.leq.sum(axis=0))
            first = np.empty((n, n), dtype=weight.dtype)
            for rows in _blocks(n, n * n):
                fits = self.leq[self.meet_np[rows].T]  # [c, a, b]: a /\ c <= b
                (fits * weight[:, None, None]).max(axis=0, out=first[rows])
            table = element[first]
            table.flags.writeable = False
            self._imp_np = table
        return self._imp_np

    def heyting_implies(self, a: int, b: int) -> int:
        """Relative pseudocomplement: the largest c with a /\\ c <= b."""
        table = self.heyting_table()
        return int(table[self.check_element(a), self.check_element(b)])

    def pseudocomplement(self, a: int) -> int:
        return self.heyting_implies(a, self.bottom)

    def power_table(self, key: str, n: int) -> np.ndarray:
        """Read-only table of the pointwise "meet", "join", "neg" or "imp"
        on the codes ``sum v_x * |L|^(n-1-x)`` of L^X, |X| = ``n``, kept per
        (key, n) for every algebra over this lattice.  Built one point at a
        time: a new point is a new last digit of every code, so the table
        on m points is |L| times that on m - 1, each code on its axis before
        its new digit, plus the lattice's own table on the new digits."""
        table = self._kept.get((key, n))
        if table is None:
            op = {"meet": lambda: self.meet_np, "join": lambda: self.join_np,
                  "neg": lambda: self.heyting_table()[:, self.bottom],
                  "imp": self.heyting_table}[key]()
            k, axes = self.size, op.ndim
            codes, digit = (slice(None), None) * axes, (None, slice(None)) * axes
            op = op.astype(np.min_scalar_type(k ** n - 1))
            table = op if n else np.zeros((1,) * axes, op.dtype)
            for m in range(2, n + 1):
                table = ((table * k)[codes] + op[digit]).reshape((k ** m,) * axes)
            table.flags.writeable = False
            self._kept[key, n] = table
        return table

    def byte_masks(self, dual: bool = False):
        """(bits, decode) over the join-irreducibles J, or the
        meet-irreducibles M when ``dual``, if there are at most 8 of them,
        else None; read-only, built on first use and kept per mode.

        ``bits[a]`` is the uint8 mask of the J below a (the M above a):
        bit i is set iff J[i] <= a.  ``decode[m]`` is the join of the J in
        the mask m (the meet of those M).  In every finite lattice
        j <= a /\\ b iff j <= a and j <= b, so bits[a /\\ b] is
        bits[a] & bits[b], and every element is the join of the J below
        it, so a \\/ b is decode[bits[a] | bits[b]].  Over a distributive
        L such an OR is again the mask of an element, as each j is
        join-prime (see ``_scan_distributive``), so decode is the inverse
        of bits; any other L folds the irreducibles of each mask."""
        if ("masks", dual) not in self._kept:
            irreducibles, masks = self.irreducibles[dual], None
            if len(irreducibles) <= 8:
                # [i, a]: the irreducible i is below a (above a when dual); one
                # row of bytes, or none on the one-element lattice, which has
                # no irreducibles
                side = (self.leq.T if dual else self.leq)[irreducibles]
                bits = np.packbits(side, axis=0, bitorder="little").max(axis=0, initial=0)
                if self.is_distributive:
                    decode = np.zeros(1 << len(irreducibles), dtype=np.intp)
                    decode[bits] = np.arange(self.size)
                else:  # masks 2^i..2^(i+1)-1 are those below 2^i, each with irreducible i
                    fold = self.meet_np if dual else self.join_np
                    decode = np.full(1, self.top if dual else self.bottom, dtype=np.intp)
                    for j in irreducibles:
                        decode = np.concatenate((decode, fold[decode, j]))
                bits.flags.writeable = decode.flags.writeable = False
                masks = bits, decode
            self._kept["masks", dual] = masks
        return self._kept["masks", dual]

    # -- derived lattices ---------------------------------------------------

    def dual(self) -> "FiniteLattice":
        """Order dual: same elements, reversed order, so the meet and join
        tables, the bounds and (J, M) swap; built on first use and kept,
        as lattices are immutable."""
        return self._dual

    @cached_property
    def _dual(self) -> "FiniteLattice":
        return FiniteLattice._derived(
            self.labels, np.ascontiguousarray(self.leq.T),
            (self.join_np, self.meet_np), (self.top, self.bottom),
            self.irreducibles[::-1], (self.is_distributive, self.is_boolean))

    def product(self, other: "FiniteLattice") -> "FiniteLattice":
        """Componentwise product; element (i, j) lives at index i*|other|+j.

        Everything is read off the factors.  The order, the tables and the
        bounds are theirs paired componentwise: (a, b) /\\ (c, d) is
        (a /\\ c, b /\\ d).  (a, b) covers exactly the (a', b) with a
        covering a' and the (a, b') with b covering b', so J is the (j, 0)
        and the (0, j) for j in J of a factor, and M dually with tops.  A
        product is distributive, or Boolean, iff both factors are: both
        laws hold componentwise, and each factor is the image of a
        projection, a bounded lattice homomorphism, which keeps them.
        """
        m = other.size
        labels = [f"{a}.{b}" for a in self.labels for b in other.labels]
        size = self.size * m

        def paired(mine, theirs):
            return (mine[:, None, :, None] * m + theirs[None, :, None, :]).reshape(size, size)

        leq = (self.leq[:, None, :, None] & other.leq[None, :, None, :]).reshape(size, size)
        tables = (paired(self.meet_np, other.meet_np), paired(self.join_np, other.join_np))
        irreducibles = tuple(
            np.sort(np.concatenate((mine * m + bound_b, bound_a * m + theirs)))
            for mine, theirs, bound_a, bound_b in zip(
                self.irreducibles, other.irreducibles,
                (self.bottom, self.top), (other.bottom, other.top)))
        return FiniteLattice._derived(
            labels, leq, tables,
            (self.bottom * m + other.bottom, self.top * m + other.top), irreducibles,
            (self.is_distributive and other.is_distributive,
             self.is_boolean and other.is_boolean), factors=(self, other))

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
        hit = np.zeros(self.size, bool)
        hit[[self.bottom, self.top, *map(self.check_element, generators)]] = True
        elems = []
        while len(elems) < hit.sum():
            elems = np.flatnonzero(hit).tolist()
            pairs = np.ix_(elems, elems)
            hit[self.meet_np[pairs]] = hit[self.join_np[pairs]] = True
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
    labels = lat.labels
    below, above = ([labels[a] for a in side.tolist()] for side in np.nonzero(lat.leq))
    return {"labels": sorted(labels), "leq": sorted(map(list, zip(below, above)))}
