"""Relational structures of extended type.

A structure is a finite carrier 0..n-1 with named relations, each tagged
join-convolved or meet-convolved, and optionally a partial order on the
carrier.  Relation tuples carry the output in the LAST coordinate; an
operation of arity k is stored as a (k+1)-ary relation.  Nullary operations
are unary relations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (ArityMismatch, IndexOutOfRange, NotAGroup, OrderNotClosed,
                     SignatureMismatch, UnknownOperation, WrongMode)
from .lattice import _json_field, _transitive_closure

JOIN = "join"
MEET = "meet"


@dataclass(frozen=True)
class RelSpec:
    """One relation slot: operation arity (tuples have arity+1 entries)."""
    name: str
    arity: int
    mode: str = JOIN

    def __post_init__(self):
        if self.arity < 0:
            raise ArityMismatch(f"relation {self.name!r}: negative arity")
        if self.mode not in (JOIN, MEET):
            raise WrongMode(f"relation {self.name!r}: mode must be join or meet")


@dataclass(frozen=True)
class Signature:
    rel_specs: tuple[RelSpec, ...]

    def __post_init__(self):
        names = [s.name for s in self.rel_specs]
        if len(set(names)) != len(names):
            raise SignatureMismatch(f"duplicate relation names in {names}")

    def index(self, name: str) -> int:
        for i, s in enumerate(self.rel_specs):
            if s.name == name:
                return i
        raise UnknownOperation(f"no relation named {name!r}")

    def __len__(self):
        return len(self.rel_specs)


def _is_index(v, n: int) -> bool:
    """Whether ``v`` is a point of a carrier of ``n`` points: an integer in
    0..n-1, a numpy one included, but no bool, float or str."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < n


def signature(*specs: tuple) -> Signature:
    """Build a signature from (name, arity[, mode]) triples."""
    return Signature(tuple(RelSpec(*s) for s in specs))


class RelStructure:
    """Immutable relational structure, optionally ordered.

    relations[i] is a frozenset of (arity+1)-tuples of carrier indices.
    When an order is present, join relations must be up-closed and meet
    relations down-closed in the last coordinate; this is validated at
    build time.  No lattice changes a relation's name, arity or mode, so
    ``spec`` resolves every application of one, for every algebra over
    the structure.
    """

    def __init__(self, carrier_size: int, sig: Signature,
                 relations: Sequence[Iterable[tuple]],
                 order: np.ndarray | None = None):
        if carrier_size < 1:
            raise IndexOutOfRange("carrier must be nonempty")
        if len(relations) != len(sig):
            raise SignatureMismatch(
                f"{len(sig)} relation specs but {len(relations)} relation sets")
        self.carrier_size = carrier_size
        self.signature = sig
        rels, most = [], 0
        for spec, tuples in zip(sig.rel_specs, relations):
            want = spec.arity + 1
            clean, ends = set(), [0] * carrier_size
            for t in map(tuple, tuples):
                if len(t) != want:
                    raise ArityMismatch(
                        f"relation {spec.name!r}: tuple {t} has length "
                        f"{len(t)}, expected {want}")
                if not all(_is_index(v, carrier_size) for v in t):
                    raise IndexOutOfRange(
                        f"relation {spec.name!r}: tuple {t} leaves the integer carrier "
                        f"0..{carrier_size - 1}")
                t = tuple(map(int, t))
                ends[t[-1]] += t not in clean
                clean.add(t)
            rels.append(frozenset(clean))
            most = max(most, *ends)
        self.relations = tuple(rels)
        self.order = self._order_pairs = None
        if order is not None:
            self.order = order = np.asarray(order, dtype=bool).copy()
            order.flags.writeable = False
            if order.shape != (carrier_size, carrier_size) or not np.array_equal(
                    order, _transitive_closure(order)) or (order & order.T).sum() > carrier_size:
                raise OrderNotClosed("carrier order is not a partial order: it must be "
                                     "reflexive, transitive and antisymmetric")
            self._check_order_closure()
            # the covering pairs x < y, with nothing between, whose chains make up the order
            strict = order & ~np.eye(carrier_size, dtype=bool)
            self._order_pairs = np.where(strict & ~(strict @ strict))
        # The widest row of a batch: a relation's padded gather (see
        # _kernel_index), |X| per tuple ending at its busiest point, and its
        # |X| points.
        self._width = carrier_size * (1 + most)
        self._hash = hash((carrier_size, sig,
                           tuple(tuple(sorted(r)) for r in self.relations),
                           None if order is None else order.tobytes()))
        # per relation on first use: its convolution kernel, its subset images
        self._kernel_indices, self._images = {}, {}

    def _check_order_closure(self):
        leq = self.order
        for spec, rel in zip(self.signature.rel_specs, self.relations):
            for t in rel:
                prefix, out = t[:-1], t[-1]
                for y in range(self.carrier_size):
                    if spec.mode == JOIN and leq[out, y] and prefix + (y,) not in rel:
                        raise OrderNotClosed(
                            f"join relation {spec.name!r} not up-closed: "
                            f"{t} present, {prefix + (y,)} missing",
                            relation=spec.name, witness=t)
                    if spec.mode == MEET and leq[y, out] and prefix + (y,) not in rel:
                        raise OrderNotClosed(
                            f"meet relation {spec.name!r} not down-closed: "
                            f"{t} present, {prefix + (y,)} missing",
                            relation=spec.name, witness=t)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, RelStructure)
                and self.carrier_size == other.carrier_size
                and self.signature == other.signature
                and self.relations == other.relations
                and ((self.order is None) == (other.order is None))
                and (self.order is None or np.array_equal(self.order, other.order)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rels = ", ".join(
            f"{s.name}:{s.arity}{'+' if s.mode == JOIN else '-'}({len(r)})"
            for s, r in zip(self.signature.rel_specs, self.relations))
        tag = ", ordered" if self.order is not None else ""
        return f"RelStructure(|X|={self.carrier_size}, {rels}{tag})"

    def relation(self, name_or_index) -> int:
        if isinstance(name_or_index, str):
            return self.signature.index(name_or_index)
        i = int(name_or_index)
        if not 0 <= i < len(self.signature):
            raise UnknownOperation(f"no relation at index {i}")
        return i

    def spec(self, rel, args=None, mode=None):
        """(index, RelSpec) of the relation ``rel``, a name or an index:
        UnknownOperation when there is none, WrongMode when it is not
        convolved in ``mode``, if given, and ArityMismatch when ``args``,
        if given, are not as many as its arity."""
        i = self.relation(rel)
        spec = self.signature.rel_specs[i]
        if mode is not None and spec.mode != mode:
            raise WrongMode(f"relation {spec.name!r} is {spec.mode}-convolved")
        if args is not None and len(args) != spec.arity:
            raise ArityMismatch(
                f"relation {spec.name!r} expects {spec.arity} arguments, got {len(args)}")
        return i, spec

    def _kernel_index(self, i: int):
        """Relation ``i``'s convolution kernel, which no lattice enters,
        built on first use and kept: when no tuple has an input, a boolean
        row of the points some tuple ends at, else (cols, bare), where
        ``cols[k][j * |X| + x]`` is the k-th input of the j-th tuple ending
        at x, a point's first tuple repeated where it has fewer, and ``bare``
        the points no tuple ends at, whose entries the unit replaces."""
        index = self._kernel_indices.get(i)
        if index is None:
            rel, arity = list(self.relations[i]), self.signature.rel_specs[i].arity
            preds = [[] for _ in range(self.carrier_size)]
            for t in rel:
                preds[t[-1]].append(t[:-1])
            if not (arity and rel):
                index = np.array([bool(p) for p in preds])
            else:
                width = max(map(len, preds))
                padded = [p + p[:1] * (width - len(p)) if p else [rel[0][:-1]] * width
                          for p in preds]
                index = (np.array(padded, dtype=np.intp).transpose(2, 1, 0).reshape(arity, -1),
                         np.array([x for x, p in enumerate(preds) if not p], dtype=np.intp))
            self._kernel_indices[i] = index
        return index

    def predecessors(self, i: int, x: int) -> list[tuple]:
        """Input tuples of relation i whose output coordinate is x."""
        return sorted(t[:-1] for t in self.relations[i] if t[-1] == x)


def build_structure(carrier_size: int, sig: Signature,
                    relations: Sequence[Iterable[tuple]],
                    order_pairs: Iterable[tuple[int, int]] | None = None) -> RelStructure:
    """Validated constructor; order pairs are closed transitively."""
    order = None
    if order_pairs is not None:
        rel = np.zeros((carrier_size, carrier_size), dtype=bool)
        for a, b in order_pairs:
            if not (_is_index(a, carrier_size) and _is_index(b, carrier_size)):
                raise IndexOutOfRange(f"order pair ({a}, {b}) leaves the integer carrier")
            rel[a, b] = True
        order = _transitive_closure(rel)
    return RelStructure(carrier_size, sig, relations, order)


def from_group(mult_table: Sequence[Sequence[int]]) -> RelStructure:
    """A group as a structure: ternary '*', binary 'conv', unary 'id'.

    The table is fully validated (closure, associativity, identity,
    inverses); the output sits in the last coordinate of each tuple.
    """
    n = len(mult_table)
    if n == 0:
        raise NotAGroup("empty multiplication table", axiom="closure")
    table = [[int(v) for v in row] for row in mult_table]
    if any(len(row) != n for row in table):
        raise NotAGroup("multiplication table is not square", axiom="closure")
    if any(not 0 <= v < n for row in table for v in row):
        raise NotAGroup("table entry outside the carrier", axiom="closure")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroup(
                        f"associativity fails at ({a}, {b}, {c})",
                        axiom="associativity")
    identity = next(
        (e for e in range(n)
         if all(table[e][a] == a and table[a][e] == a for a in range(n))),
        None)
    if identity is None:
        raise NotAGroup("no two-sided identity", axiom="identity")
    inverse = {}
    for a in range(n):
        inv = next((b for b in range(n)
                    if table[a][b] == identity and table[b][a] == identity), None)
        if inv is None:
            raise NotAGroup(f"element {a} has no inverse", axiom="inverses")
        inverse[a] = inv

    sig = signature(("*", 2, JOIN), ("conv", 1, JOIN), ("id", 0, JOIN))
    mult = {(a, b, table[a][b]) for a in range(n) for b in range(n)}
    conv = {(a, inverse[a]) for a in range(n)}
    ident = {(identity,)}
    return RelStructure(n, sig, [mult, conv, ident])


def full_structure(n: int, extended: bool = False) -> RelStructure:
    """Carrier n with the all-pairs binary relation.

    Plain variant: one join relation 'f'.  Extended variant: the same
    relation twice, join-convolved as 'dia' and meet-convolved as 'box'.
    """
    if n < 1:
        raise IndexOutOfRange("carrier must be nonempty")
    nabla = {(a, b) for a in range(n) for b in range(n)}
    if extended:
        sig = signature(("dia", 1, JOIN), ("box", 1, MEET))
        return RelStructure(n, sig, [nabla, nabla])
    return RelStructure(n, signature(("f", 1, JOIN)), [nabla])


def is_p_morphism(p: Sequence[int], dom: RelStructure, cod: RelStructure):
    """Test the predecessor-set condition; returns (ok, witness).

    For every relation i and x in dom the set of predecessor tuples of
    p(x) in cod must equal the pointwise image of the predecessor tuples
    of x in dom.  Ordered structures additionally require p to preserve
    the carrier order.  The witness names the first failure.
    """
    if dom.signature != cod.signature:
        raise SignatureMismatch("structures do not share a signature")
    if (dom.order is None) != (cod.order is None):
        raise SignatureMismatch("one structure is ordered, the other is not")
    p = [int(v) for v in p]
    if len(p) != dom.carrier_size:
        raise IndexOutOfRange("map must be total on the domain carrier")
    if any(not 0 <= v < cod.carrier_size for v in p):
        raise IndexOutOfRange("map leaves the codomain carrier")

    if dom.order is not None:
        for x in range(dom.carrier_size):
            for y in range(dom.carrier_size):
                if dom.order[x, y] and not cod.order[p[x], p[y]]:
                    return False, {"kind": "order", "pair": (x, y)}
    for i, spec in enumerate(dom.signature.rel_specs):
        for x in range(dom.carrier_size):
            left = {t[:-1] for t in cod.relations[i] if t[-1] == p[x]}
            right = {tuple(p[v] for v in t[:-1])
                     for t in dom.relations[i] if t[-1] == x}
            if left != right:
                return False, {
                    "kind": "predecessors", "relation": spec.name, "x": x,
                    "left_only": sorted(left - right),
                    "right_only": sorted(right - left),
                }
    return True, None


def disjoint_union(x: RelStructure, y: RelStructure) -> RelStructure:
    """Tagged union: y's indices are shifted past x's; no cross tuples."""
    if x.signature != y.signature:
        raise SignatureMismatch("structures do not share a signature")
    if (x.order is None) != (y.order is None):
        raise SignatureMismatch("one structure is ordered, the other is not")
    n = x.carrier_size
    rels = []
    for rx, ry in zip(x.relations, y.relations):
        rels.append(set(rx) | {tuple(v + n for v in t) for t in ry})
    order = None
    if x.order is not None:
        m = y.carrier_size
        order = np.zeros((n + m, n + m), dtype=bool)
        order[:n, :n] = x.order
        order[n:, n:] = y.order
    return RelStructure(n + y.carrier_size, x.signature, rels, order)


# -- JSON interchange -------------------------------------------------------


def structure_from_json(doc) -> RelStructure:
    """Load {"carrier": n, "relations": [...], "order": [[a,b], ...]?}.

    A field of the wrong shape raises ValueError.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    carrier = _json_field(doc["carrier"], "carrier must be an integer", int)
    specs = []
    rels = []
    for entry in _json_field(doc["relations"], "relations must be an array of objects",
                             list, dict):
        specs.append((_json_field(entry["name"], "a relation name must be a string", str),
                      _json_field(entry["arity"], "a relation arity must be an integer", int),
                      _json_field(entry.get("mode", JOIN), "a relation mode must be a string",
                                  str)))
        tuples = _json_field(entry["tuples"], "tuples must be an array", list)
        rels.append([tuple(_json_field(t, "each tuple must be an array of integers", list, int))
                     for t in tuples])
    order_pairs = doc.get("order")
    if order_pairs is not None:
        order_pairs = [
            tuple(_json_field(p, "each order pair must be an array of 2 integers", list, int, 2))
            for p in _json_field(order_pairs, "order must be an array of pairs", list)]
    return build_structure(carrier, signature(*specs), rels, order_pairs)


def structure_to_json(s: RelStructure) -> dict:
    doc = {
        "carrier": s.carrier_size,
        "relations": [
            {"name": spec.name, "arity": spec.arity, "mode": spec.mode,
             "tuples": [list(t) for t in sorted(rel)]}
            for spec, rel in zip(s.signature.rel_specs, s.relations)
        ],
    }
    if s.order is not None:
        doc["order"] = [[a, b] for a in range(s.carrier_size)
                        for b in range(s.carrier_size) if s.order[a, b]]
    return doc
