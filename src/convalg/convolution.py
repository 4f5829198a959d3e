"""Function spaces L^X, their convolution operations, and subset algebras.

The join convolution of an (n+1)-ary relation R sends functions a1..an to
the function whose value at x is the join over all (x1,..,xn,x) in R of
a1(x1) /\\ ... /\\ an(xn); the dual (meet) convolution swaps joins and meets.
Empty joins are bottom and empty meets are top throughout, which also fixes
the nullary conventions.

Operations act on batches: N functions as an (N, |X|) array of element
indices.  A convolution meets the argument values of each relation tuple
through the meet table and folds the tuples ending at each point through
the join table; single applications are batches of one.  Each argument is
gathered once, at the inputs of the j-th tuple ending at every point for
each j, and the fold runs over those |X|-wide slices; a point with fewer
tuples repeats its first, which the idempotent fold absorbs, and only the
points no tuple ends at are set to the unit.  That index is the whole
kernel and depends on the structure alone, which builds it when a
relation is first applied and keeps it for every lattice (see
RelStructure._kernel_index).

A wide call runs the same gather and fold on bytes: when L has at most 8
join-irreducibles, each value enters as the uint8 mask of those below it,
a tuple meets by AND, a point's slots fold by OR, and one lookup decodes
each output point (see FiniteLattice.byte_masks; meet mode is the dual,
over the meet-irreducibles).  Its arrays are an eighth of the table
fold's.  The call takes it when the product of its arguments' batches
times the gather width reaches _BYTES_MIN, read off their sizes in O(1).
Small calls keep the table fold, as the masks' lookups and their first
build cost as much as the bytes save there, and so do lattices with more
than 8 irreducibles of the mode's kind.

The subset algebra uses boolean relational images instead, also built on
first use and kept with the structure, and shares no code with that
kernel, so it stays an independent check of it.

Each function also has an integer code, its mixed-radix index
``sum v_i * |L|^(n-1-i)``, which is its position in the unordered
``elements()`` order; a carrier is an array of codes, which
``elements()`` decodes into LFunctions for input and output.  The code
tables of meet, join, neg and imp are the lattice's, built in closed
form once per |X| (see FiniteLattice.power_table).  A ConvAlgebra
tabulates each relation over codes on first use, one table of
``q^arity`` entries, where q = |L|^|X|, and keeps it.  Each relation
table is one broadcast evaluation of the kernel above: argument j runs
over the whole carrier on axis j (see _product_axes), in the chunks of
any grid (see _chunks), which keep whole trailing axes, so no index over
``q^arity`` is split into digits.
``coded()`` is the same batched interface over codes, used where a check
needs at least as many assignments as the tables have entries.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .catalog import chain
from .errors import (ArityMismatch, BudgetExceeded, IndexOutOfRange,
                     NotAMorphism, NotAPMorphism, NotAProductLattice,
                     NotTwoElement, UnknownElement)
from .lattice import FiniteLattice
from .structures import JOIN, MEET, RelStructure, _is_index, is_p_morphism

DEFAULT_BUDGET = 1_000_000

# No intermediate array of a batch holds more than this many values (see
# _chunks).  Samples start at 64 tuples: finite-support interleaves its
# draws per chunk, so these bounds fix them.
_CHUNK_ENTRIES = 1 << 18
_FIRST_SAMPLES = 64

# A convolution folds bytes (see FiniteLattice.byte_masks) from this many
# gathered values on.  Below it the masks' lookups, and their first build on
# a fresh lattice, cost as much as the bytes save, so single applications
# and small batches fold tables.
_BYTES_MIN = 8192

# The lattice 2, labelled "0" and "1", under every ConvAlgebra._two_valued.
_TWO = chain(2)


def resolve_budget(budget: int | None) -> int:
    """The evaluation budget: DEFAULT_BUDGET for None.  A budget below 1
    raises ValueError, since a check of no assignments decides nothing."""
    cap = DEFAULT_BUDGET if budget is None else budget
    if cap < 1:
        raise ValueError(f"budget must be at least 1, got {cap}")
    return cap


class LFunction:
    """An element of L^X: a tuple of lattice-element indices, one per point."""

    __slots__ = ("values", "lattice", "_np", "_hash")

    def __init__(self, values: Iterable[int], lattice: FiniteLattice):
        """The function of ``values``, each checked by ``lattice.check_element``."""
        self._fill(tuple(map(lattice.check_element, values)), lattice)

    @classmethod
    def _known(cls, values: tuple, lattice: FiniteLattice) -> "LFunction":
        """The function of ``values``, Python ints computed from checked
        elements or decoded from codes, so not checked again."""
        self = cls.__new__(cls)
        self._fill(values, lattice)
        return self

    def _fill(self, values: tuple, lattice: FiniteLattice) -> None:
        self.values, self.lattice = values, lattice
        self._np = np.array(values, dtype=np.int64)
        self._np.flags.writeable = False
        self._hash = hash((lattice, values))

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
        other = _values(other, self.lattice, len(self.values))
        return bool(self.lattice.leq[self._np, other].all())


def _values(a, lattice: FiniteLattice, n: int) -> np.ndarray:
    """The value array of ``a``, a function of ``n`` points into ``lattice``."""
    if (not isinstance(a, LFunction) or (a.lattice is not lattice and a.lattice != lattice)
            or len(a.values) != n):
        raise UnknownElement(f"{a!r} is not a function of {n} points into this lattice")
    return a._np


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
        self._width = structure._width
        n = structure.carrier_size
        self._radix = lattice.size ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._tables: dict = {}
        self._coded: _Coded | None = None

    @cached_property
    def _two_valued(self) -> "ConvAlgebra":
        """2^X over the same structure, ordered alike, built on first use
        and kept.  Sending 0 to bottom and 1 to top embeds it in this
        algebra."""
        return ConvAlgebra(_TWO, self.structure, self.ordered)

    @cached_property
    def _bot(self) -> LFunction:
        return LFunction._known((self.lattice.bottom,) * self.structure.carrier_size, self.lattice)

    @cached_property
    def _top(self) -> LFunction:
        return LFunction._known((self.lattice.top,) * self.structure.carrier_size, self.lattice)

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
        return _values(a, self.lattice, self.structure.carrier_size)

    def _element(self, row: np.ndarray) -> LFunction:
        """The element of a value row computed from this algebra's rows."""
        return LFunction._known(tuple(row.tolist()), self.lattice)

    def is_order_preserving(self, a: LFunction) -> bool:
        row = self._row(a)
        return self.structure.order is None or bool(self._monotone_rows(row[None])[0])

    def _monotone_rows(self, rows: np.ndarray):
        """Per value row of ``rows`` (shape (N, |X|)), whether it is order
        preserving; the structure must carry an order."""
        xs, ys = self.structure._order_pairs
        return self.lattice.leq[rows[:, xs], rows[:, ys]].all(axis=-1)

    def space_size(self) -> int:
        return self.lattice.size ** self.structure.carrier_size

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
                yield LFunction._known(tuple(values), self.lattice)

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
        bottom elsewhere; dually M(L) on down-sets and top.  Over any
        finite L every element is the join (meet) of bottom (top) and
        those below (above) it, since each element of L is the join of
        the join-irreducibles below it (the meet of the meet-irreducibles
        above it), and a monotone map's value at x is below its values on
        the up-set of x."""
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
        order; BudgetExceeded when there are more than the budget of them.

        Unordered, every code below ``space_size()`` is one.  An ordered
        algebra builds the codes of its monotone maps one point at a time,
        along a linear extension of the order: the maps on each prefix, a
        down-set, are those on the one before, each with every value at the
        new point above the join of its values at the points below (those
        it covers decide it), read back from its code.  Each extends to a
        monotone map on the whole carrier (top elsewhere), so the budget is
        checked before every step, and the work and memory are bounded by
        it.  Codes are int64, so a space of more than 2^63 functions raises
        BudgetExceeded whatever the budget.
        """
        cap, q = resolve_budget(budget), self.space_size()
        if not self.ordered:
            if q > cap:
                raise BudgetExceeded(q, cap)
            return np.arange(q)
        if q > 1 << 63:  # else the largest code wraps
            raise BudgetExceeded(q, cap, f"{q} functions have codes beyond int64, "
                                         f"whatever the budget ({cap})")
        lat, (below, xs), radix = self.lattice, self.structure._order_pairs, self._radix
        points = np.argsort(self.structure.order.sum(axis=0), kind="stable")  # by down-set size
        codes = np.zeros(1, dtype=np.int64)
        for x in points:
            least = np.full(len(codes), lat.bottom)  # the join of the values below x
            for y in below[xs == x]:  # the points x covers
                least = lat.join_np[least, codes // radix[y] % lat.size]
            # each code times the values above its least: a lower bound on the carrier's size
            if (count := int(np.bincount(least, minlength=lat.size) @ lat.leq.sum(axis=1))) > cap:
                raise BudgetExceeded(count, cap, f"the ordered carrier has at least {count} "
                                                 f"functions, budget is {cap}")
            codes, old, at = np.empty(count, dtype=np.int64), codes, 0
            for value in range(lat.size):  # into place, a value at a time: no index arrays
                keep = lat.leq[least, value]
                stop = at + np.count_nonzero(keep)
                np.add(old[keep], value * radix[x], out=codes[at:stop])
                at = stop
        codes.sort()
        return codes

    def _table(self, key) -> np.ndarray:
        """The code table of ``key``, one of "meet", "join", "neg", "imp"
        or a relation index: entry [c1, .., ck] is the code of the result
        on the arguments coded c1..ck.  The lattice operations' tables
        are the lattice's, shared by every algebra over it with as many
        points (see FiniteLattice.power_table); a relation's is built on
        first use and kept."""
        if isinstance(key, str):
            return self.lattice.power_table(key, self.structure.carrier_size)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._tabulate(key)
        return table

    def _tabulate(self, i: int) -> np.ndarray:
        """Relation ``i`` over every tuple of functions, as codes.  Each
        argument runs on an axis of its own (see _product_axes), in the
        chunks of a grid (see _chunks), so that one broadcast evaluation of
        the kernel fills a chunk."""
        q, arity = self.space_size(), self.structure.signature.rel_specs[i].arity
        out = np.empty(q ** arity, dtype=np.min_scalar_type(q - 1))
        for start, stop in _chunks(q ** arity, self, (q,) * arity):
            args = _product_axes([self._decode] * arity, (q,) * arity, start, stop)
            out[start:stop] = self._encode(self._eval(i, args)).reshape(-1)
        return out.reshape((q,) * arity)

    def coded(self) -> "_Coded":
        """This algebra's batched interface over codes."""
        if self._coded is None:
            self._coded = _Coded(self)
        return self._coded

    # -- random elements -----------------------------------------------------

    def _draw_rows(self, rng, count: int, budget: int | None = None) -> np.ndarray:
        """``count`` uniform random carrier elements as value rows: the same
        rows, leaving ``rng`` in the same state, as drawing one
        ``rng.randrange(|L|)`` per point, row after row, and rejecting the
        rows that are not order preserving when the algebra is ordered.
        BudgetExceeded once the rows drawn outnumber ``budget`` times one
        more than the rows kept, as then fewer than about one row in
        ``budget`` is order preserving: the rejections are bounded by the
        budget, and a sparse carrier is refused, not searched for.

        ``randrange(k)`` keeps the top ``k.bit_length()`` bits of one 32-bit
        word of the generator and rejects values >= k, so the words are
        read in bulk from a copy of the generator, in draws of at most
        _CHUNK_ENTRIES values and order comparisons, and the generator is
        then advanced by exactly the words used.
        """
        k, n, cap = self.lattice.size, self.structure.carrier_size, resolve_budget(budget)
        pairs = len(self.structure._order_pairs[0]) if self.ordered else 0
        shift, step = 32 - k.bit_length(), max(1, _CHUNK_ENTRIES // (n + pairs)) * n
        probe = random.Random(0)  # a fixed seed, as setstate replaces it
        probe.setstate(rng.getstate())
        # per draw, the rows kept and the last word of each; the values of a row begun
        found, ends = [np.empty((0, n), dtype=np.uint32)], [np.empty(0, dtype=np.intp)]
        rest, more, used, drawn, kept = found[0].reshape(-1), 2 * n * count + 64, 0, 0, 0
        while kept < count:
            if drawn > cap * (kept + 1):
                raise BudgetExceeded(drawn, cap, f"sampling drew {drawn} functions to keep {kept} "
                                     f"monotone ones, over {cap} draws per one kept and one more")
            more = min(more, step)
            values = np.frombuffer(probe.getrandbits(32 * more).to_bytes(4 * more, "little"),
                                   dtype="<u4") >> shift
            at = np.flatnonzero(values < k)  # the word behind each value
            values, begun = np.concatenate([rest, values[at]]), len(rest)
            whole = len(values) // n * n
            rows, rest, drawn = values[:whole].reshape(-1, n), values[whole:], drawn + whole // n
            last = used + at[n - 1 - begun:whole - begun:n]  # the last word of each row
            if self.ordered:
                monotone = self._monotone_rows(rows)
                rows, last = rows[monotone], last[monotone]
            found.append(rows)
            ends.append(last)
            used, kept, more = used + more, kept + len(rows), 2 * more
        if count:
            rng.getrandbits(32 * (int(np.concatenate(ends)[count - 1]) + 1))
        return np.concatenate(found)[:count].astype(np.int64)

    def random_element(self, rng) -> LFunction:
        return self._element(self._draw_rows(rng, 1)[0])

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
        return self._element(self._meet(self._row(a), self._row(b)))

    def join(self, a: LFunction, b: LFunction) -> LFunction:
        return self._element(self._join(self._row(a), self._row(b)))

    def neg(self, a: LFunction) -> LFunction:
        return self._element(self._neg(self._row(a)))

    def imp(self, a: LFunction, b: LFunction) -> LFunction:
        return self._element(self._imp(self._row(a), self._row(b)))

    def le(self, a: LFunction, b: LFunction) -> bool:
        return bool(self.lattice.leq[self._row(a), self._row(b)].all())

    # -- convolution operations ------------------------------------------------

    def conv(self, rel, args: Sequence[LFunction]) -> LFunction:
        """Join convolution of relation ``rel`` applied to ``args``."""
        return self._apply(self.structure.spec(rel, mode=JOIN)[0], args)

    def dual_conv(self, rel, args: Sequence[LFunction]) -> LFunction:
        """Meet convolution of relation ``rel`` applied to ``args``."""
        return self._apply(self.structure.spec(rel, mode=MEET)[0], args)

    def op(self, rel, args: Sequence[LFunction]) -> LFunction:
        """Apply a relation's operation, dispatching on its declared mode."""
        return self._apply(self.structure.relation(rel), args)

    def op_resolver(self, name):
        """Pre-resolve a relation name to a one-argument applier."""
        i = self.structure.relation(name)
        return lambda args: self._apply(i, args)

    def _apply(self, i: int, args: Sequence[LFunction]) -> LFunction:
        rows = [self._row(a) for a in args]
        return self._element(self._eval(self.structure.spec(i, rows)[0], rows))

    def _eval(self, i: int, args: Sequence[np.ndarray]) -> np.ndarray:
        """Relation ``i`` applied to value arrays of shape (N, |X|).

        The arguments are gathered at the structure's kernel index (see
        RelStructure._kernel_index) and combined through the tables of the
        relation's mode or, in a call of at least _BYTES_MIN gathered
        values, as the lattice's byte masks for that mode where it has them
        (see FiniteLattice.byte_masks).  Arguments broadcast against each
        other like numpy arrays, so a single function may be passed as shape
        (|X|,).  A
        relation whose tuples have no inputs gives its constant row, as a
        read-only view broadcast to the arguments' batch shape.  ``i`` and
        the arity of ``args`` are the structure's (see RelStructure.spec).
        """
        lat, index, n = self.lattice, self.structure._kernel_index(i), self.structure.carrier_size
        if self.structure.signature.rel_specs[i].mode == JOIN:
            inner, outer, unit, mark, dual = lat.meet_np, lat.join_np, lat.bottom, lat.top, False
        else:
            inner, outer, unit, mark, dual = lat.join_np, lat.meet_np, lat.top, lat.bottom, True
        if isinstance(index, np.ndarray):
            return np.broadcast_to(np.where(index, mark, unit), np.broadcast_shapes(
                *(a.shape[:-1] for a in args)) + (n,))
        cols, bare = index
        # the broadcast batch times the gather width, estimated as the product of
        # the arguments' batches: exact on product axes, more where they share one
        size = cols.shape[1]
        for a in args:
            size *= a.size // n
        if size < _BYTES_MIN or (masks := lat.byte_masks(dual)) is None:
            vals = args[0][..., cols[0]]
            for a, c in zip(args[1:], cols[1:]):
                vals = inner[vals, a[..., c]]
            out = vals[..., :n]
            for j in range(n, vals.shape[-1], n):
                out = outer[out, vals[..., j:j + n]]
        else:
            bits, decode = masks
            vals = bits[args[0]][..., cols[0]]
            for a, c in zip(args[1:], cols[1:]):
                vals = vals & bits[a][..., c]
            out = vals[..., :n]
            for j in range(n, vals.shape[-1], n):
                out |= vals[..., j:j + n]
            out = decode[out]
        if bare.size:
            out[..., bare] = unit
        return out


def _chunks(total: int, alg, counts=()):
    """Bounds (start, stop) covering range(total) in order.  A grid (non-
    empty ``counts``) runs in chunks of at most _CHUNK_ENTRIES values per
    array, each stop rounded down to a multiple of the largest product of
    trailing ``counts`` that fits the chunk, so that a grid over tables of
    those sizes (see terms._grid) puts whole axes on axes of their own.
    Samples (no ``counts``) come _FIRST_SAMPLES tuples first, then 8 times
    as many each, up to the limit."""
    limit = max(1, _CHUNK_ENTRIES // alg._width)
    start, rows = 0, limit if counts else _FIRST_SAMPLES
    while start < total:
        block = 1
        for count in reversed(counts):
            if block * count > rows:
                break
            block *= count
        stop = (start + rows) // block * block
        yield start, min(total, stop)
        start, rows = stop, min(rows * 8, limit)


def _product_axes(rows_at, counts, start: int, stop: int) -> list:
    """The tuples at positions start..stop-1 of ``product(range(counts[0]),
    .., range(counts[k-1]))``, one array of rows per tuple element,
    broadcast against each other: ``rows_at[i](positions)`` gives the rows,
    shape (..., w), of element i at an array of positions.

    With ``block`` the product of the last j counts, for the largest j that
    makes it divide both ``start`` and ``stop``, the last j elements each
    run over all their rows on an axis of their own, and the first k - j
    come from the mixed-radix digits of the B blocks of ``block``
    positions, with shape (B, 1, .., 1, w).  The tuples therefore broadcast
    to shape (B, counts[k-j], .., counts[k-1]), or to ``counts`` when
    j = k, and flattening that in C order gives them in ``product`` order.
    Consecutive elements with the same ``rows_at`` and count share their
    rows.
    """
    k, j, block = len(counts), 0, 1
    while j < k and not (start % (block * counts[k - 1 - j])
                         or stop % (block * counts[k - 1 - j])):
        j, block = j + 1, block * counts[k - 1 - j]
    idx, lead = np.arange(start // block, stop // block), []
    for i in range(k - j - 1, -1, -1):
        idx, digit = np.divmod(idx, counts[i])
        rows = rows_at[i](digit)
        lead.append(rows.reshape(rows.shape[:1] + (1,) * j + rows.shape[1:]))
    if not j:
        return lead[::-1]
    axes, blocks, last = [], int(j < k), None
    for i, m in enumerate(range(k - j, k)):
        if (rows_at[m], counts[m]) != last:  # else the rows of the element before
            last, rows = (rows_at[m], counts[m]), rows_at[m](np.arange(counts[m]))
        axes.append(rows.reshape((1,) * (blocks + i) + (counts[m],) + (1,) * (j - 1 - i)
                                 + rows.shape[1:]))
    return lead[::-1] + axes


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

    def _lookup(self, key, *args) -> np.ndarray:
        """``key``'s code table (see ConvAlgebra._table) at the broadcast
        arguments, read flat at the mixed-radix index of each tuple of
        codes, formed in intp: a code from a uint8 table times q wraps."""
        index, q = args[0].astype(np.intp), self.algebra.space_size()
        for a in args[1:]:
            index = index * q + a
        return self.algebra._table(key).reshape(-1).take(index)

    def _meet(self, x, y):
        return self._lookup("meet", x, y)

    def _join(self, x, y):
        return self._lookup("join", x, y)

    def _neg(self, x):
        return self.algebra._table("neg")[x]

    def _imp(self, x, y):
        return self._lookup("imp", x, y)

    def _eval(self, i: int, args: Sequence[np.ndarray]) -> np.ndarray:
        return self._lookup(i, *args) if args else self.algebra._table(i).reshape(1)


class SubsetAlgebra:
    """The complex algebra: subsets of the carrier with relational images.

    Join relations act by relational image; meet relations by the dual
    image (x is in the output iff every predecessor tuple meets the
    arguments somewhere).  Batched values are boolean arrays of shape
    (N, |X|), one subset per row.
    """

    def __init__(self, structure: RelStructure):
        self.structure = structure
        self._full = frozenset(range(structure.carrier_size))
        self._width = structure._width
        self._images = structure._images

    def _image(self, i: int):
        """(cols, into) for relation ``i``, kept with the structure from its
        first application: the input points of each tuple, its output row."""
        image = self._images.get(i)
        if image is None:
            rel, n = self.structure.relations[i], self.structure.carrier_size
            arity = self.structure.signature.rel_specs[i].arity
            tuples = np.array(sorted(rel), dtype=np.intp).reshape(len(rel), arity + 1)
            image = self._images[i] = (tuples[:, :-1].T, tuples[:, -1:] == np.arange(n))
        return image

    def bot(self) -> frozenset:
        return frozenset()

    def top(self) -> frozenset:
        return self._full

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return self._subset(a) & self._subset(b)

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return self._subset(a) | self._subset(b)

    def neg(self, a: frozenset) -> frozenset:
        return self._full - self._subset(a)

    def imp(self, a: frozenset, b: frozenset) -> frozenset:
        return (self._full - self._subset(a)) | self._subset(b)

    def le(self, a: frozenset, b: frozenset) -> bool:
        return self._subset(a) <= self._subset(b)

    def _subset(self, a: frozenset) -> frozenset:
        """``a``, which must be a set of carrier points."""
        if not isinstance(a, (set, frozenset)):
            raise UnknownElement(f"{a!r} is not a subset of the carrier")
        _check_subset(a, self.structure.carrier_size)
        return a

    def _row(self, a: frozenset) -> np.ndarray:
        a, row = self._subset(a), np.zeros(self.structure.carrier_size, dtype=bool)
        row[np.fromiter(a, dtype=np.intp, count=len(a))] = True
        return row

    def _element(self, row) -> frozenset:
        return frozenset(x for x, bit in enumerate(row) if bit)

    def _meet(self, x, y):
        return x & y

    def _join(self, x, y):
        return x | y

    def _neg(self, x):
        return ~x

    def _imp(self, x, y):
        return ~x | y

    def space_size(self) -> int:
        return 2 ** self.structure.carrier_size

    def elements(self, budget: int | None = None):
        cap = resolve_budget(budget)
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

    def _draw_rows(self, rng, count: int, budget: int | None = None) -> np.ndarray:
        """``count`` uniform random subsets as boolean rows, drawn as one
        ``rng.randrange`` of their code each and unpacked byte by byte, as
        a code has |X| bits, which may be more than an int64 holds; none
        is rejected, so no budget applies."""
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
        rows = [self._row(a) for a in args]
        return self._element(self._eval(self.structure.spec(i, rows)[0], rows))

    def _eval(self, i: int, args: Sequence[np.ndarray]) -> np.ndarray:
        """Relational image of boolean argument arrays of shape (N, |X|)."""
        join = self.structure.signature.rel_specs[i].mode == JOIN
        cols, into = self._image(i)
        # hit[.., t]: tuple t meets every argument (join) or misses them all (meet)
        hit = np.ones(len(into), dtype=bool)
        for a, c in zip(args, cols):
            hit = hit & (a[..., c] if join else ~a[..., c])
        reached = hit @ into
        return reached if join else ~reached


# -- canonical isomorphisms ---------------------------------------------------


def _check_subset(subset, carrier_size: int) -> None:
    if not all(_is_index(x, carrier_size) for x in subset):
        raise IndexOutOfRange(f"{set(subset)} leaves the integer carrier 0..{carrier_size - 1}")


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
    return LFunction._known(
        tuple(lattice.top if x in subset else lattice.bottom for x in range(carrier_size)),
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
    image = np.array(phi)
    pairs = np.ix_(image, image)
    # [a, b, k]: whether phi fails to preserve the meet (k = 0) or join of a, b
    bad = np.stack([image[dom.meet_np] != cod.meet_np[pairs],
                    image[dom.join_np] != cod.join_np[pairs]], axis=-1)
    if bad.any():
        a, b, k = np.argwhere(bad)[0]
        return False, {"kind": ("meet", "join")[k], "pair": (dom.labels[a], dom.labels[b])}
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
    return (LFunction._known(tuple(i for i, _ in pairs), first),
            LFunction._known(tuple(j for _, j in pairs), second))


def product_iso_inv(beta: LFunction, gamma: LFunction,
                    prod: FiniteLattice) -> LFunction:
    """Merge component functions back into the product lattice."""
    if prod.factors is None:
        raise NotAProductLattice("target lattice was not built as a product")
    if beta.lattice != prod.factors[0] or gamma.lattice != prod.factors[1]:
        raise NotAProductLattice("component lattices do not match the product factors")
    if len(beta.values) != len(gamma.values):
        raise ArityMismatch("component functions have different carriers")
    return LFunction._known(tuple(prod.pair_index(i, j)
                                  for i, j in zip(beta.values, gamma.values)), prod)


def enumerate_functions(algebra: ConvAlgebra, budget: int | None = None):
    """Deterministic enumeration of the algebra's carrier (budget-guarded)."""
    return algebra.elements(budget)


def delta_decompose(alpha: LFunction) -> list[LFunction]:
    """One-point functions below alpha whose join recovers alpha."""
    lat, n = alpha.lattice, len(alpha.values)
    return [LFunction._known((lat.bottom,) * x + (v,) + (lat.bottom,) * (n - 1 - x), lat)
            for x, v in enumerate(alpha.values) if v != lat.bottom]
