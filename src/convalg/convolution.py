"""Function spaces L^X, their convolution operations, and subset algebras.

The join convolution of an (n+1)-ary relation R sends functions a1..an to
the function whose value at x is the join over all (x1,..,xn,x) in R of
a1(x1) /\\ ... /\\ an(xn); the dual (meet) convolution swaps joins and meets.
Empty joins are bottom and empty meets are top throughout, which also fixes
the nullary conventions.

Operations act on batches: N functions as an (N, |X|) array of element
indices.  A convolution meets the argument values of each relation tuple
through the meet table and folds the tuples ending at each point through
the join table, for every lattice size; single applications are batches of
one.  The subset algebra uses boolean relational images instead and shares
no code with that kernel, so it stays an independent check of it.

Each function also has an integer code, its mixed-radix index
``sum v_i * |L|^(n-1-i)``, which is its position in the unordered
``elements()`` order; a carrier is an array of codes, which
``elements()`` decodes into LFunctions for input and output.  A
ConvAlgebra tabulates its operations over codes on first use (meet,
join, neg and imp, and one table of ``q^arity`` entries per relation,
where q = |L|^|X|), building each table with the kernel above, and
keeps them; ``coded()`` is the same batched interface over codes, used
where a check needs more assignments than the tables have entries.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .errors import (ArityMismatch, BudgetExceeded, IndexOutOfRange,
                     NotAMorphism, NotAPMorphism, NotAProductLattice,
                     NotTwoElement, UnknownElement, WrongMode)
from .lattice import FiniteLattice
from .structures import JOIN, MEET, RelStructure, is_p_morphism

DEFAULT_BUDGET = 1_000_000

# No intermediate array of a batch holds more than this many values.
_CHUNK_ENTRIES = 1 << 18


class LFunction:
    """An element of L^X: a tuple of lattice-element indices, one per point."""

    __slots__ = ("values", "lattice", "_np", "_hash")

    def __init__(self, values: Iterable[int], lattice: FiniteLattice):
        vals = tuple(int(v) for v in values)
        for v in vals:
            if not 0 <= v < lattice.size:
                raise UnknownElement(f"value {v} outside lattice of size {lattice.size}")
        self.values = vals
        self.lattice = lattice
        arr = np.array(vals, dtype=np.int64)
        arr.flags.writeable = False
        self._np = arr
        self._hash = hash((lattice, vals))

    def __eq__(self, other):
        return (isinstance(other, LFunction)
                and self.values == other.values
                and (self.lattice is other.lattice or self.lattice == other.lattice))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LFunction({self.labels()})"

    def labels(self) -> list[str]:
        return [self.lattice.labels[v] for v in self.values]

    def le(self, other: "LFunction") -> bool:
        return bool(self.lattice.leq[self._np, other._np].all())


def lfunction_from_labels(labels: Sequence[str], lattice: FiniteLattice) -> LFunction:
    return LFunction([lattice.index(str(x)) for x in labels], lattice)


class ConvAlgebra:
    """The convolution algebra of a structure over a finite lattice.

    When ``ordered`` is set the structure must carry an order and the
    algebra's carrier is restricted to the order-preserving functions;
    operations themselves stay defined on all of L^X.
    """

    def __init__(self, lattice: FiniteLattice, structure: RelStructure,
                 ordered: bool = False):
        if ordered and structure.order is None:
            raise ValueError("ordered algebra needs an ordered structure")
        self.lattice = lattice
        self.structure = structure
        self.ordered = ordered
        self._rel = [self._relation_tables(i) for i in range(len(structure.signature))]
        self._order_pairs = (None if structure.order is None
                             else np.where(structure.order))
        n = structure.carrier_size
        # The widest row of a batch: a relation's gathered tuples plus a unit.
        self._width = n + max(map(len, structure.relations), default=0)
        self._radix = lattice.size ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._tables: dict = {}
        self._coded: _Coded | None = None
        self._bot = LFunction((lattice.bottom,) * structure.carrier_size, lattice)
        self._top = LFunction((lattice.top,) * structure.carrier_size, lattice)

    def _relation_tables(self, i: int):
        """(spec, cols, slots, count) for relation ``i``: ``cols[k]`` holds
        the k-th input point of each tuple, row x of ``slots`` the tuples
        ending at x, padded with ``count``, the index of the unit column."""
        spec = self.structure.signature.rel_specs[i]
        tuples = list(self.structure.relations[i])
        preds = [[k for k, t in enumerate(tuples) if t[-1] == x]
                 for x in range(self.structure.carrier_size)]
        width = max(1, *map(len, preds))
        slots = np.array([p + [len(tuples)] * (width - len(p)) for p in preds],
                         dtype=np.intp)
        cols = [np.array([t[k] for t in tuples], dtype=np.intp)
                for k in range(spec.arity)]
        return spec, cols, slots, len(tuples)

    # -- element plumbing ----------------------------------------------------

    def function(self, values: Iterable[int]) -> LFunction:
        f = LFunction(values, self.lattice)
        if len(f.values) != self.structure.carrier_size:
            raise UnknownElement(f"{len(f.values)} values for a carrier of "
                                 f"{self.structure.carrier_size} points")
        return f

    def bot(self) -> LFunction:
        return self._bot

    def top(self) -> LFunction:
        return self._top

    def _row(self, a: LFunction) -> np.ndarray:
        """The value array of an element, which must live in this algebra."""
        if ((a.lattice is not self.lattice and a.lattice != self.lattice)
                or len(a.values) != self.structure.carrier_size):
            raise UnknownElement("function does not live in this algebra")
        return a._np

    def _element(self, row) -> LFunction:
        return LFunction(row, self.lattice)

    def is_order_preserving(self, a: LFunction) -> bool:
        return self._order_pairs is None or bool(self._monotone_rows(a._np[None])[0])

    def _monotone_rows(self, rows: np.ndarray):
        """Per value row of ``rows`` (shape (N, |X|)), whether it is order
        preserving; the structure must carry an order."""
        xs, ys = self._order_pairs
        return self.lattice.leq[rows[:, xs], rows[:, ys]].all(axis=-1)

    def space_size(self) -> int:
        return self.lattice.size ** self.structure.carrier_size

    def _check_budget(self, budget: int | None) -> None:
        cap = DEFAULT_BUDGET if budget is None else budget
        if self.space_size() > cap:
            raise BudgetExceeded(self.space_size(), cap)

    def elements(self, budget: int | None = None):
        """All carrier elements in lexicographic, carrier-index-major order.

        The order on lattice elements is their build index; when the
        algebra is ordered only order-preserving functions are yielded.
        Each is decoded from ``carrier_codes(budget)`` as it is yielded.
        """
        codes = self.carrier_codes(budget)
        step = max(1, _CHUNK_ENTRIES // max(1, self.structure.carrier_size))
        for start in range(0, len(codes), step):
            for values in self._decode(codes[start:start + step]).tolist():
                yield LFunction(values, self.lattice)

    def carrier_list(self, budget: int | None = None) -> list[LFunction]:
        """The carrier in ``elements()`` order, as a fresh list; the budget
        is checked on every call."""
        return list(self.elements(budget))

    def carrier_count(self, budget: int | None = None) -> int:
        if not self.ordered:
            return self.space_size()
        return len(self.carrier_codes(budget))

    def _enumeration(self, budget: int | None = None):
        """(count, codes): the carrier's size, and a map from positions in
        the ``elements()`` order, as an integer array, to codes."""
        if self.ordered:
            codes = self.carrier_codes(budget)
            return len(codes), codes.__getitem__
        return self.space_size(), lambda idx: idx

    def _generator_rows(self, dual: bool = False) -> np.ndarray:
        """Value rows of the join-irreducibles of the carrier, by j then x:
        j in J(L) on the up-set of the point x (just x when unordered) and
        bottom elsewhere; dually M(L) on down-sets and top.  Over a
        distributive L every element is the join (meet) of bottom (top)
        and those below (above) it."""
        lat, n = self.lattice, self.structure.carrier_size
        values, unit = lat.irreducibles[dual], (lat.top if dual else lat.bottom)
        order = self.structure.order if self.ordered else np.eye(n, dtype=bool)
        return np.where(order.T if dual else order, values[:, None, None], unit).reshape(-1, n)

    # -- integer codes ---------------------------------------------------------

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        """Codes of value rows of shape (..., |X|)."""
        return rows @ self._radix

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        """Value rows, shape (..., |X|), of an array of codes."""
        return codes[..., None] // self._radix % self.lattice.size

    def carrier_codes(self, budget: int | None = None) -> np.ndarray:
        """The codes of the carrier in increasing, that is ``elements()``,
        order; an ordered algebra filters all codes below the budget-checked
        ``space_size()`` in chunks of at most _CHUNK_ENTRIES values."""
        self._check_budget(budget)
        codes = np.arange(self.space_size())
        if not self.ordered:
            return codes
        width = 1 + self.structure.carrier_size + len(self._order_pairs[0])
        step = max(1, _CHUNK_ENTRIES // width)
        return np.concatenate([chunk[self._monotone_rows(self._decode(chunk))]
                               for chunk in np.split(codes, range(step, len(codes), step))])

    def _table(self, key) -> np.ndarray:
        """The code table of ``key``, one of "meet", "join", "neg", "imp"
        or a relation index: entry [c1, .., ck] is the code of the result
        on the arguments coded c1..ck.  Built on first use and kept."""
        table = self._tables.get(key)
        if table is None:
            if isinstance(key, str):
                arity, fn = {"meet": (2, self._meet), "join": (2, self._join),
                             "neg": (1, self._neg), "imp": (2, self._imp)}[key]
            else:
                arity, fn = self._rel[key][0].arity, lambda *args: self._eval(key, args)
            table = self._tables[key] = self._tabulate(arity, fn)
        return table

    def _tabulate(self, arity: int, fn) -> np.ndarray:
        """``fn`` over every ``arity``-tuple of functions, as codes, built
        in chunks of at most _CHUNK_ENTRIES values per array."""
        q = self.space_size()
        out = np.empty(q ** arity, dtype=np.min_scalar_type(q - 1))
        step = max(1, _CHUNK_ENTRIES // self._width)
        for start in range(0, q ** arity, step):
            idx, args = np.arange(start, min(start + step, q ** arity)), []
            for _ in range(arity):
                idx, digit = np.divmod(idx, q)
                args.append(self._decode(digit))
            out[start:start + step] = self._encode(fn(*args[::-1]))
        return out.reshape((q,) * arity)

    def coded(self) -> "_Coded":
        """This algebra's batched interface over codes."""
        if self._coded is None:
            self._coded = _Coded(self)
        return self._coded

    # -- random elements -----------------------------------------------------

    def _draw_rows(self, rng, count: int) -> np.ndarray:
        """``count`` uniform random carrier elements as value rows: the same
        rows, leaving ``rng`` in the same state, as drawing one
        ``rng.randrange(|L|)`` per point, row after row, and rejecting the
        rows that are not order preserving when the algebra is ordered.

        ``randrange(k)`` keeps the top ``k.bit_length()`` bits of one 32-bit
        word of the generator and rejects values >= k, so the words are
        read in bulk from a copy of the generator, and the generator is
        then advanced by exactly the words used.
        """
        k, n = self.lattice.size, self.structure.carrier_size
        shift = 32 - k.bit_length()
        probe = random.Random()
        probe.setstate(rng.getstate())
        words, more = np.empty(0, dtype=np.uint32), 2 * n * count + 64
        while True:
            words = np.concatenate([words, np.frombuffer(
                probe.getrandbits(32 * more).to_bytes(4 * more, "little"), dtype="<u4")])
            values = words >> shift
            kept = np.flatnonzero(values < k)  # the word behind each value
            whole = len(kept) // n * n
            rows = values[kept[:whole]].reshape(-1, n)
            ends = kept[n - 1:whole:n]  # the last word of each row
            if self.ordered:
                monotone = self._monotone_rows(rows)
                rows, ends = rows[monotone], ends[monotone]
            if len(rows) >= count:
                break
            more = len(words)
        if count:
            rng.getrandbits(32 * (int(ends[count - 1]) + 1))
        return rows[:count].astype(np.int64)

    def random_element(self, rng) -> LFunction:
        return LFunction(self._draw_rows(rng, 1)[0], self.lattice)

    # -- pointwise lattice structure ------------------------------------------
    # The underscored forms act on value arrays of any batch shape.

    def _meet(self, x, y):
        return self.lattice.meet_np[x, y]

    def _join(self, x, y):
        return self.lattice.join_np[x, y]

    def _neg(self, x):
        return self.lattice.heyting_table()[x, self.lattice.bottom]

    def _imp(self, x, y):
        return self.lattice.heyting_table()[x, y]

    def meet(self, a: LFunction, b: LFunction) -> LFunction:
        return self._element(self._meet(a._np, b._np))

    def join(self, a: LFunction, b: LFunction) -> LFunction:
        return self._element(self._join(a._np, b._np))

    def neg(self, a: LFunction) -> LFunction:
        return self._element(self._neg(a._np))

    def imp(self, a: LFunction, b: LFunction) -> LFunction:
        return self._element(self._imp(a._np, b._np))

    def le(self, a: LFunction, b: LFunction) -> bool:
        return a.le(b)

    # -- convolution operations ------------------------------------------------

    def conv(self, rel, args: Sequence[LFunction]) -> LFunction:
        """Join convolution of relation ``rel`` applied to ``args``."""
        i = self.structure.relation(rel)
        if self._rel[i][0].mode != JOIN:
            raise WrongMode(f"relation {self._rel[i][0].name!r} is meet-convolved")
        return self._apply(i, args)

    def dual_conv(self, rel, args: Sequence[LFunction]) -> LFunction:
        """Meet convolution of relation ``rel`` applied to ``args``."""
        i = self.structure.relation(rel)
        if self._rel[i][0].mode != MEET:
            raise WrongMode(f"relation {self._rel[i][0].name!r} is join-convolved")
        return self._apply(i, args)

    def op(self, rel, args: Sequence[LFunction]) -> LFunction:
        """Apply a relation's operation, dispatching on its declared mode."""
        return self._apply(self.structure.relation(rel), args)

    def op_resolver(self, name):
        """Pre-resolve a relation name to a one-argument applier."""
        i = self.structure.relation(name)
        return lambda args: self._apply(i, args)

    def _apply(self, i: int, args: Sequence[LFunction]) -> LFunction:
        return self._element(self._eval(i, [self._row(a) for a in args]))

    def _eval(self, i: int, args: Sequence[np.ndarray]) -> np.ndarray:
        """Relation ``i`` applied to value arrays of shape (N, |X|).

        Arguments broadcast against each other like numpy arrays, so a
        single function may be passed as shape (|X|,).
        """
        spec, cols, slots, count = self._rel[i]
        if len(args) != spec.arity:
            raise ArityMismatch(
                f"relation {spec.name!r} expects {spec.arity} arguments, got {len(args)}")
        lat = self.lattice
        if spec.mode == JOIN:
            inner, outer, unit, mark = lat.meet_np, lat.join_np, lat.bottom, lat.top
        else:
            inner, outer, unit, mark = lat.join_np, lat.meet_np, lat.top, lat.bottom
        if args:
            vals = args[0][..., cols[0]]
            for a, c in zip(args[1:], cols[1:]):
                vals = inner[vals, a[..., c]]
        else:  # every tuple contributes the empty inner fold
            vals = np.full(count, mark, dtype=np.int64)
        vals = np.concatenate(
            [vals, np.full(vals.shape[:-1] + (1,), unit, dtype=vals.dtype)], axis=-1)
        out = vals[..., slots[:, 0]]
        for j in range(1, slots.shape[1]):
            out = outer[out, vals[..., slots[:, j]]]
        return out


class _Coded:
    """A ConvAlgebra's batched interface over codes.

    A batch of N elements is an (N, 1) array of codes, so rows have width
    one; every operation is a lookup in one of the algebra's code tables.
    """

    _width = 1

    def __init__(self, algebra: ConvAlgebra):
        self.algebra = algebra
        self.lattice = algebra.lattice
        self.structure = algebra.structure

    def bot(self) -> LFunction:
        return self.algebra.bot()

    def top(self) -> LFunction:
        return self.algebra.top()

    def _row(self, a: LFunction) -> np.ndarray:
        return self.algebra._encode(self.algebra._row(a))[None]

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return codes[..., None]

    def _meet(self, x, y):
        return self.algebra._table("meet")[x, y]

    def _join(self, x, y):
        return self.algebra._table("join")[x, y]

    def _neg(self, x):
        return self.algebra._table("neg")[x]

    def _imp(self, x, y):
        return self.algebra._table("imp")[x, y]

    def _eval(self, i: int, args: Sequence[np.ndarray]) -> np.ndarray:
        spec = self.algebra._rel[i][0]
        if len(args) != spec.arity:
            raise ArityMismatch(
                f"relation {spec.name!r} expects {spec.arity} arguments, got {len(args)}")
        table = self.algebra._table(i)
        return table[tuple(args)] if args else table.reshape(1)


class SubsetAlgebra:
    """The complex algebra: subsets of the carrier with relational images.

    Join relations act by relational image; meet relations by the dual
    image (x is in the output iff every predecessor tuple meets the
    arguments somewhere).  Batched values are boolean arrays of shape
    (N, |X|), one subset per row.
    """

    def __init__(self, structure: RelStructure):
        self.structure = structure
        n = structure.carrier_size
        self._full = frozenset(range(n))
        self._width = n + max(map(len, structure.relations), default=0)
        # Per relation: the input points of each tuple, and its output as a row.
        self._images = []
        for spec, rel in zip(structure.signature.rel_specs, structure.relations):
            tuples = np.array(sorted(rel), dtype=np.intp).reshape(len(rel), spec.arity + 1)
            self._images.append((tuples[:, :-1].T, tuples[:, -1:] == np.arange(n)))

    def bot(self) -> frozenset:
        return frozenset()

    def top(self) -> frozenset:
        return self._full

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    # The same operators meet and join boolean arrays of rows.
    _meet, _join = meet, join

    def neg(self, a: frozenset) -> frozenset:
        return self._full - a

    def imp(self, a: frozenset, b: frozenset) -> frozenset:
        return (self._full - a) | b

    def le(self, a: frozenset, b: frozenset) -> bool:
        return a <= b

    def _row(self, a: frozenset) -> np.ndarray:
        _check_subset(a, self.structure.carrier_size)
        return np.isin(np.arange(self.structure.carrier_size), list(a))

    def _element(self, row) -> frozenset:
        return frozenset(x for x, bit in enumerate(row) if bit)

    def _neg(self, x):
        return ~x

    def _imp(self, x, y):
        return ~x | y

    def space_size(self) -> int:
        return 2 ** self.structure.carrier_size

    def elements(self, budget: int | None = None):
        cap = DEFAULT_BUDGET if budget is None else budget
        if self.space_size() > cap:
            raise BudgetExceeded(self.space_size(), cap)
        n = self.structure.carrier_size
        for mask in range(1 << n):
            yield frozenset(i for i in range(n) if mask >> i & 1)

    def carrier_list(self, budget: int | None = None) -> list[frozenset]:
        return list(self.elements(budget))

    def _enumeration(self, budget: int | None = None):
        """(count, codes), as for ConvAlgebra: the code of the subset at
        position m is m, whose set bits are its members."""
        return self.space_size(), lambda idx: idx

    def _decode(self, masks: np.ndarray) -> np.ndarray:
        """Boolean rows of an array of subset codes."""
        return (masks[..., None] >> np.arange(self.structure.carrier_size) & 1).astype(bool)

    def _draw_rows(self, rng, count: int) -> np.ndarray:
        """``count`` uniform random subsets as boolean rows, drawn as one
        ``rng.randrange`` of their code each and unpacked byte by byte, as
        a code has |X| bits, which may be more than an int64 holds."""
        q, width = self.space_size(), (self.structure.carrier_size + 7) // 8
        drawn = b"".join(rng.randrange(q).to_bytes(width, "little") for _ in range(count))
        bits = np.unpackbits(np.frombuffer(drawn, dtype=np.uint8).reshape(count, width),
                             axis=1, bitorder="little")
        return bits[:, :self.structure.carrier_size].astype(bool)

    def random_element(self, rng) -> frozenset:
        return self._element(self._draw_rows(rng, 1)[0])

    def op(self, rel, args: Sequence[frozenset]) -> frozenset:
        return self._apply(self.structure.relation(rel), args)

    def op_resolver(self, name):
        """Pre-resolve a relation name to a one-argument applier."""
        i = self.structure.relation(name)
        return lambda args: self._apply(i, args)

    def _apply(self, i: int, args: Sequence[frozenset]) -> frozenset:
        return self._element(self._eval(i, [self._row(a) for a in args]))

    def _eval(self, i: int, args: Sequence[np.ndarray]) -> np.ndarray:
        """Relational image of boolean argument arrays of shape (N, |X|)."""
        spec = self.structure.signature.rel_specs[i]
        if len(args) != spec.arity:
            raise ArityMismatch(
                f"relation {spec.name!r} expects {spec.arity} arguments, got {len(args)}")
        cols, into = self._images[i]
        # hit[.., t]: tuple t meets every argument (join) or misses them all (meet)
        hit = np.ones(len(into), dtype=bool)
        for a, c in zip(args, cols):
            hit = hit & (a[..., c] if spec.mode == JOIN else ~a[..., c])
        reached = hit @ into
        return reached if spec.mode == JOIN else ~reached


# -- canonical isomorphisms ---------------------------------------------------


def _check_subset(subset, carrier_size: int) -> None:
    if not frozenset(range(carrier_size)).issuperset(subset):
        raise IndexOutOfRange(f"{sorted(subset)} leaves the carrier 0..{carrier_size - 1}")


def _require_two_element(lat: FiniteLattice):
    if lat.size != 2:
        raise NotTwoElement(f"lattice has {lat.size} elements, need exactly 2")


def iso_phi(alpha: LFunction) -> frozenset:
    """Send a 2-valued function to the set of points where it is top."""
    _require_two_element(alpha.lattice)
    top = alpha.lattice.top
    return frozenset(x for x, v in enumerate(alpha.values) if v == top)


def iso_phi_inv(subset: frozenset, lattice: FiniteLattice, carrier_size: int) -> LFunction:
    _require_two_element(lattice)
    _check_subset(subset, carrier_size)
    return LFunction(
        [lattice.top if x in subset else lattice.bottom for x in range(carrier_size)],
        lattice)


def is_lattice_morphism(phi: Sequence[int], dom: FiniteLattice, cod: FiniteLattice):
    """Check bounds, binary meets and joins; returns (ok, witness)."""
    phi = [int(v) for v in phi]
    if len(phi) != dom.size or any(not 0 <= v < cod.size for v in phi):
        return False, {"kind": "not a total map"}
    if phi[dom.bottom] != cod.bottom:
        return False, {"kind": "bottom"}
    if phi[dom.top] != cod.top:
        return False, {"kind": "top"}
    for a in range(dom.size):
        for b in range(dom.size):
            if phi[dom.meet_table[a][b]] != cod.meet_table[phi[a]][phi[b]]:
                return False, {"kind": "meet", "pair": (dom.labels[a], dom.labels[b])}
            if phi[dom.join_table[a][b]] != cod.join_table[phi[a]][phi[b]]:
                return False, {"kind": "join", "pair": (dom.labels[a], dom.labels[b])}
    return True, None


def lift_lattice_morphism(phi: Sequence[int], cod: FiniteLattice,
                          alpha: LFunction, validate: bool = True) -> LFunction:
    """Post-compose a function with a lattice morphism, pointwise.

    On finite lattices preserving binary joins and bottom already gives
    preservation of arbitrary joins, so validation checks bounds and the
    binary tables only.
    """
    if validate:
        ok, witness = is_lattice_morphism(phi, alpha.lattice, cod)
        if not ok:
            raise NotAMorphism(f"map fails to be a lattice morphism: {witness}")
    return LFunction([phi[v] for v in alpha.values], cod)


def pullback_pmorphism(p: Sequence[int], dom: RelStructure, cod: RelStructure,
                       beta: LFunction, validate: bool = True) -> LFunction:
    """Pre-compose a function on the codomain with a p-morphism."""
    if validate:
        ok, witness = is_p_morphism(p, dom, cod)
        if not ok:
            raise NotAPMorphism(f"map fails the p-morphism condition: {witness}")
    return LFunction([beta.values[p[x]] for x in range(dom.carrier_size)],
                     beta.lattice)


def product_iso(alpha: LFunction) -> tuple[LFunction, LFunction]:
    """Split a function into a product lattice into its component functions."""
    lat = alpha.lattice
    if lat.factors is None:
        raise NotAProductLattice("function's lattice was not built as a product")
    first, second = lat.factors
    pairs = [lat.unpair_index(v) for v in alpha.values]
    return (LFunction([i for i, _ in pairs], first),
            LFunction([j for _, j in pairs], second))


def product_iso_inv(beta: LFunction, gamma: LFunction,
                    prod: FiniteLattice) -> LFunction:
    """Merge component functions back into the product lattice."""
    if prod.factors is None:
        raise NotAProductLattice("target lattice was not built as a product")
    if beta.lattice != prod.factors[0] or gamma.lattice != prod.factors[1]:
        raise NotAProductLattice("component lattices do not match the product factors")
    if len(beta.values) != len(gamma.values):
        raise ArityMismatch("component functions have different carriers")
    return LFunction([prod.pair_index(i, j)
                      for i, j in zip(beta.values, gamma.values)], prod)


def enumerate_functions(algebra: ConvAlgebra, budget: int | None = None):
    """Deterministic enumeration of the algebra's carrier (budget-guarded)."""
    return algebra.elements(budget)


def delta_decompose(alpha: LFunction) -> list[LFunction]:
    """One-point functions below alpha whose join recovers alpha."""
    lat = alpha.lattice
    out = []
    for x, v in enumerate(alpha.values):
        if v != lat.bottom:
            vals = [lat.bottom] * len(alpha.values)
            vals[x] = v
            out.append(LFunction(vals, lat))
    return out
