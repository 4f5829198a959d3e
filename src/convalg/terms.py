"""Negation-free term language with optional Heyting extension.

Grammar (s-expressions): atoms are variable names, keywords ``bot`` and
``top``, forms ``(meet t t)``, ``(join t t)``, ``(op NAME t ...)``,
``(neg t)``, ``(imp t t)``.  ``(var x)`` is accepted as an alternate
spelling of a bare variable; the printer always emits the bare form.

Terms evaluate over a convolution algebra, a subset algebra, or a bare
lattice, which is treated as L^1 over a one-point structure with no
relations.  One evaluator serves single evaluations and equation checks: it
walks the term once per batch of assignments, each variable bound to an
array of value rows, and calls the algebra's batched operations.
Equations are decided by exhaustive enumeration of assignments in a
documented order, by enumerating the irreducible generators of L^X when
the equation is linear in every variable (see _generators), or by seeded
sampling; the least counterexample in enumeration order is reported, so
failures are reproducible.

An exhaustive check over a convolution algebra whose grid outgrows its
first chunk runs on integer codes and the algebra's code tables (see
``convolution``) when every table the equation needs has fewer entries
than the grid has assignments.  That is settled before the search
starts, and the grid positions, and so the verdict, are the same either
way.  A check over the generators stays on value rows and forms no
codes.  Sampled checks draw value rows in bulk, bit-exactly as one
``randrange`` per point would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

import numpy as np

from .convolution import (_CHUNK_ENTRIES, DEFAULT_BUDGET, ConvAlgebra,
                          SubsetAlgebra)
from .errors import (ArityMismatch, BudgetExceeded, NotHeyting,
                     TermSyntaxError, UnboundVariable, UnknownOperation)
from .lattice import FiniteLattice
from .structures import JOIN, MEET, RelStructure, Signature


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Meet:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Join:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class RelOp:
    name: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Neg:
    arg: "Term"


@dataclass(frozen=True)
class Imp:
    lhs: "Term"
    rhs: "Term"


Term = Union[Var, Bot, Top, Meet, Join, RelOp, Neg, Imp]

_KEYWORDS = {"bot", "top", "meet", "join", "op", "neg", "imp", "var"}


def _subterms(t: Term):
    """``t`` and every term below it."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        if isinstance(t, RelOp):
            todo.extend(t.args)
        elif isinstance(t, Neg):
            todo.append(t.arg)
        elif isinstance(t, (Meet, Join, Imp)):
            todo += (t.lhs, t.rhs)


def term_variables(t: Term) -> set[str]:
    return {s.name for s in _subterms(t) if isinstance(s, Var)}


def uses_heyting(t: Term) -> bool:
    """True when the term leaves the negation-free fragment."""
    return any(isinstance(s, (Neg, Imp)) for s in _subterms(t))


def to_sexpr(t: Term) -> str:
    """Canonical printer; parse(to_sexpr(t)) round-trips."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, Top):
        return "top"
    if isinstance(t, Meet):
        return f"(meet {to_sexpr(t.lhs)} {to_sexpr(t.rhs)})"
    if isinstance(t, Join):
        return f"(join {to_sexpr(t.lhs)} {to_sexpr(t.rhs)})"
    if isinstance(t, Neg):
        return f"(neg {to_sexpr(t.arg)})"
    if isinstance(t, Imp):
        return f"(imp {to_sexpr(t.lhs)} {to_sexpr(t.rhs)})"
    parts = " ".join(to_sexpr(a) for a in t.args)
    return f"(op {t.name} {parts})" if parts else f"(op {t.name})"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise TermSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok == ")":
        raise TermSyntaxError("unexpected ')'")
    if tok != "(":
        return tok, pos + 1
    items = []
    pos += 1
    while pos < len(tokens) and tokens[pos] != ")":
        item, pos = _read(tokens, pos)
        items.append(item)
    if pos >= len(tokens):
        raise TermSyntaxError("missing ')'")
    return items, pos + 1


def _build(node, sig: Signature | None) -> Term:
    if isinstance(node, str):
        if node == "bot":
            return Bot()
        if node == "top":
            return Top()
        if node in _KEYWORDS:
            raise TermSyntaxError(f"keyword {node!r} used as a variable")
        return Var(node)
    if not node:
        raise TermSyntaxError("empty form '()'")
    head = node[0]
    if not isinstance(head, str):
        raise TermSyntaxError("form head must be a symbol")
    rest = node[1:]
    if head == "var":
        if len(rest) != 1 or not isinstance(rest[0], str):
            raise TermSyntaxError("(var NAME) takes one symbol")
        return _build(rest[0], sig)
    if head in ("meet", "join", "imp"):
        if len(rest) != 2:
            raise TermSyntaxError(f"({head} t t) takes two subterms")
        cls = {"meet": Meet, "join": Join, "imp": Imp}[head]
        return cls(_build(rest[0], sig), _build(rest[1], sig))
    if head == "neg":
        if len(rest) != 1:
            raise TermSyntaxError("(neg t) takes one subterm")
        return Neg(_build(rest[0], sig))
    if head == "op":
        if not rest or not isinstance(rest[0], str):
            raise TermSyntaxError("(op NAME t ...) needs an operation name")
        name = rest[0]
        args = tuple(_build(a, sig) for a in rest[1:])
        if sig is not None:
            spec = next((s for s in sig.rel_specs if s.name == name), None)
            if spec is None:
                raise UnknownOperation(f"signature has no operation {name!r}")
            if spec.arity != len(args):
                raise ArityMismatch(
                    f"operation {name!r} takes {spec.arity} arguments, got {len(args)}")
        return RelOp(name, args)
    raise TermSyntaxError(f"unknown form head {head!r}")


def parse_term(text: str, sig: Signature | None = None) -> Term:
    tokens = _tokenize(text)
    if not tokens:
        raise TermSyntaxError("empty input")
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise TermSyntaxError(f"trailing input after term: {tokens[pos:]}")
    return _build(node, sig)


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def variables(self) -> list[str]:
        return sorted(term_variables(self.lhs) | term_variables(self.rhs))

    def uses_heyting(self) -> bool:
        return uses_heyting(self.lhs) or uses_heyting(self.rhs)

    def __str__(self):
        return f"{to_sexpr(self.lhs)} = {to_sexpr(self.rhs)}"


def parse_equation(doc, sig: Signature | None = None) -> Equation:
    """Load {"lhs": "<s-expr>", "rhs": "<s-expr>"}."""
    return Equation(parse_term(doc["lhs"], sig), parse_term(doc["rhs"], sig))


# -- evaluation ---------------------------------------------------------------


Algebra = Union[ConvAlgebra, SubsetAlgebra, FiniteLattice]

# Chunks of assignments are sized so that no intermediate array holds more
# than _CHUNK_ENTRIES values.  The first chunk is small, so that an early
# counterexample costs little; later chunks grow to that limit.  A grid no
# larger than the first chunk builds no code tables.
_FIRST_ROWS = 64


def _batch_algebra(algebra):
    """(batch algebra, element -> row, row -> element) for any algebra.

    A bare lattice L is evaluated as L^1 over a one-point structure with an
    empty signature; its elements stay lattice indices.
    """
    if isinstance(algebra, FiniteLattice):
        point = ConvAlgebra(algebra, RelStructure(1, Signature(()), []))
        return (point, lambda v: np.array([algebra.check_element(v)]),
                lambda row: int(row[0]))
    return algebra, algebra._row, algebra._element


def _check_heyting(algebra):
    if not isinstance(algebra, SubsetAlgebra) and not algebra.lattice.is_distributive:
        raise NotHeyting("neg/imp need a distributive lattice")


def _value(t: Term, alg, env: dict):
    """Value array of ``t``; ``env`` maps variables to arrays of rows."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariable(f"variable {t.name!r} is not assigned") from None
    if isinstance(t, Bot):
        return alg._row(alg.bot())
    if isinstance(t, Top):
        return alg._row(alg.top())
    if isinstance(t, Meet):
        return alg._meet(_value(t.lhs, alg, env), _value(t.rhs, alg, env))
    if isinstance(t, Join):
        return alg._join(_value(t.lhs, alg, env), _value(t.rhs, alg, env))
    if isinstance(t, Neg):
        _check_heyting(alg)
        return alg._neg(_value(t.arg, alg, env))
    if isinstance(t, Imp):
        _check_heyting(alg)
        return alg._imp(_value(t.lhs, alg, env), _value(t.rhs, alg, env))
    return alg._eval(alg.structure.relation(t.name),
                     [_value(x, alg, env) for x in t.args])


def eval_term(t: Term, algebra: Algebra, assignment: dict):
    """Compositional evaluation; relation symbols dispatch by their mode."""
    alg, to_row, to_element = _batch_algebra(algebra)
    env = {name: to_row(v) for name, v in assignment.items()}
    return to_element(_value(t, alg, env))


def _chunks(total: int, alg):
    """Bounds (start, stop) covering range(total) in order: a small first
    chunk, then growing ones of at most _CHUNK_ENTRIES values per array."""
    start, rows = 0, _FIRST_ROWS
    while start < total:
        stop = min(total, start + rows)
        yield start, stop
        start, rows = stop, min(rows * 8, max(1, _CHUNK_ENTRIES // alg._width))


def _grid(alg, k: int, enumeration, table=None):
    """(total, rows) over an ``_enumeration`` (count, codes): ``rows(start,
    stop, into=alg)`` gives one array of ``into``'s rows per position for
    k-tuples start..stop-1 in ``itertools.product`` order.  Over an array
    ``table`` of ``alg``'s value rows instead (``enumeration`` None), it
    indexes them outright, so no code is formed."""
    count, codes = enumeration if table is None else (len(table), None)

    def rows(start, stop, into=alg):
        idx, digits = np.arange(start, stop), []
        for _ in range(k):
            idx, digit = np.divmod(idx, count)
            digits.append(into._decode(codes(digit)) if table is None else table[digit])
        return digits[::-1]
    return count ** k, rows


def _samples(alg, k: int, rng):
    """``rows`` as for _grid, over consecutive random k-tuples from ``rng``."""
    def rows(start, stop):
        drawn = alg._draw_rows(rng, (stop - start) * k)
        return list(drawn.reshape(stop - start, k, alg.structure.carrier_size)
                    .swapaxes(0, 1))
    return rows


def _assignments(alg, k: int, mode: str, cap: int, samples: int | None = None, seed=0):
    """(total, rows, sampling) for the k-tuples a search tries: the
    exhaustive grid of _grid when ``mode`` is 'exhaustive' (BudgetExceeded
    beyond ``cap``), or 'auto' and it fits ``cap``; else ``samples`` tuples,
    min(cap, 10_000) by default, drawn from ``seed``, a seed or a generator
    the caller also draws from.  ``sampling`` is {} for the grid, else
    {"samples": total, "seed": seed}.  The carrier is enumerated once.
    """
    if mode not in ("auto", "exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "sample":
        try:
            total, rows = _grid(alg, k, alg._enumeration(cap) if k else (1, None))
        except BudgetExceeded:  # an ordered carrier too large to enumerate
            if mode == "exhaustive":
                raise
        else:
            if total <= cap:
                return total, rows, {}
            if mode == "exhaustive":
                raise BudgetExceeded(total, cap)
    total = samples if samples is not None else min(cap, 10_000)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return total, _samples(alg, k, rng), {"samples": total, "seed": seed}


def _first_failure(total: int, alg, rows, broken):
    """(position, rows) of the first of the tuples 0..total-1 of ``rows``
    (as for _grid) at which the batched predicate ``broken`` holds, with one
    row per tuple element; (None, None) when it holds at none.  Chunks are
    sized for ``alg``'s rows."""
    for start, stop in _chunks(total, alg):
        args = rows(start, stop)
        hits = np.flatnonzero(broken(*args))
        if hits.size:
            j = int(hits[0])
            return start + j, [a[j] for a in args]
    return None, None


def _linear(t: Term, v: str, modes: dict, dual: bool) -> bool:
    """Whether ``t`` preserves binary joins in the variable ``v`` (meets
    when ``dual``), by the syntactic rule: a subterm without ``v`` and
    ``v`` itself are linear; a join (meet) of linear terms is; so are a
    meet (join) and a join-mode (meet-mode) relation when exactly one
    argument holds ``v`` and it is linear.  The last two steps rest on L
    being distributive."""
    if isinstance(t, Var) or v not in term_variables(t):
        return True
    plus, times, mode = (Meet, Join, MEET) if dual else (Join, Meet, JOIN)
    if isinstance(t, plus):
        return _linear(t.lhs, v, modes, dual) and _linear(t.rhs, v, modes, dual)
    if isinstance(t, times):
        args = (t.lhs, t.rhs)
    elif isinstance(t, RelOp) and modes.get(t.name) == mode:
        args = t.args
    else:
        return False
    holders = [a for a in args if v in term_variables(a)]
    return len(holders) == 1 and _linear(holders[0], v, modes, dual)


def _generators(alg, eq: Equation, names: list[str], cap: int):
    """The value rows, in code order, of generators on which ``eq`` holds
    iff it holds on all of L^X, or None.

    When L is distributive every element of L^X is the join of bottom and
    the ``j`` at one point ``x`` (bottom elsewhere) below it, j in J(L),
    and the lattice operations and join-mode relations preserve binary
    joins in each argument.  So an equation whose sides are join-linear in
    every variable (see _linear) holds iff it holds on bottom and those
    elements; dually for meet-linear sides with M(L), top and meet-mode
    relations.  None unless ``alg`` is an unordered convolution algebra
    over a distributive lattice, ``eq`` is linear, and the reduced grid
    fits ``cap``.  Linearity excludes ``neg`` and ``imp`` of a variable.
    The rows are sorted without codes, which need not fit in int64 when
    the grid over L^X is far beyond ``cap``.
    """
    if (not isinstance(alg, ConvAlgebra) or alg.ordered
            or not alg.lattice.is_distributive):
        return None
    modes = {s.name: s.mode for s in alg.structure.signature.rel_specs}
    for dual in (False, True):
        if all(_linear(t, v, modes, dual) for t in (eq.lhs, eq.rhs) for v in names):
            break
    else:
        return None
    lat = alg.lattice
    if (1 + len(lat.irreducibles[dual]) * alg.structure.carrier_size) ** len(names) > cap:
        return None
    unit = np.full((1, alg.structure.carrier_size), lat.top if dual else lat.bottom)
    rows = np.vstack([unit, alg._generator_rows(dual)])
    return rows[np.lexsort(rows.T[::-1])]


def _tabled(alg, eq: Equation, total: int):
    """The code interface of a convolution algebra when each code table
    ``eq`` can need (q^2 entries for the lattice operations, q^arity for a
    relation) has fewer entries than the ``total`` assignments, else None."""
    if not isinstance(alg, ConvAlgebra):
        return None
    q = alg.space_size()
    if q * q >= total:  # first, as it costs no walk over the terms
        return None
    arity = {s.name: s.arity for s in alg.structure.signature.rel_specs}
    names = {s.name for t in (eq.lhs, eq.rhs) for s in _subterms(t) if isinstance(s, RelOp)}
    if any(q ** arity.get(name, 0) >= total for name in names):
        return None
    return alg.coded()


# -- validity checking ---------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of an equation check.

    status is one of valid_exhaustive, valid_sampled, counterexample.
    The assignment of a counterexample re-evaluates to distinct sides.
    ``samples`` and ``seed`` are set when assignments were drawn, and
    ``generators`` when the grid ran over the generators of _generators.
    """

    status: str
    assignment: dict | None = None
    tried: int = 0
    samples: int | None = None
    seed: int | None = None
    budget: int | None = None
    generators: int | None = None

    @property
    def is_valid(self) -> bool:
        return self.status in ("valid_exhaustive", "valid_sampled")

    @property
    def decided(self) -> bool:
        """False for a sampled validity, which proves nothing."""
        return self.status != "valid_sampled"

    def to_json(self) -> dict:
        out = {"status": self.status, "stats": {"assignments": self.tried}}
        if self.budget is not None:
            out["stats"]["budget"] = self.budget
        if self.generators is not None:
            out["stats"]["path"] = "irreducibles"
            out["stats"]["generators"] = self.generators
        if self.samples is not None:
            out["samples"] = self.samples
            out["seed"] = self.seed
        if self.assignment is not None:
            out["assignment"] = {k: describe_element(v)
                                 for k, v in sorted(self.assignment.items())}
        return out


def describe_element(elem):
    """JSON-friendly rendering of a carrier element: a function's labels, a
    subset's sorted members, and a lattice index as it is."""
    if hasattr(elem, "labels") and callable(elem.labels):
        return elem.labels()
    if isinstance(elem, frozenset):
        return sorted(elem)
    return elem


def check_equation(eq: Equation, algebra: Algebra, mode: str = "auto",
                   samples: int | None = None, seed: int = 0,
                   budget: int | None = None) -> Verdict:
    """Decide an equation over the algebra's carrier.

    mode 'exhaustive' raises BudgetExceeded when the assignment space is
    larger than the budget; mode 'sample' draws ``samples`` assignments
    from a generator seeded with ``seed``; mode 'auto' picks exhaustive
    when affordable, else the grid over the generators of _generators
    when the equation qualifies and that grid fits the budget (an exact
    verdict, with ``generators`` set), and otherwise samples.  Sampling
    is sound (reported counterexamples are real) but not complete.
    Ordered algebras are sampled by drawing functions and rejecting the
    non-monotone ones, so sampling never enumerates their carrier.

    The path is chosen once, before the search: the grid over value rows;
    the same grid over codes when it outgrows its first chunk of
    _FIRST_ROWS assignments and _tabled holds; the grid over the
    generators; or the samples.  Both sides are evaluated over chunks of
    assignments at once: the exhaustive grid in ``itertools.product``
    order of the carrier or of the generators (so the first mismatch is
    the least counterexample in that order), or the samples in the order
    they are drawn.
    """
    cap = DEFAULT_BUDGET if budget is None else budget
    if cap < 1:
        raise ValueError(f"budget must be at least 1, got {cap}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    alg, _, to_element = _batch_algebra(algebra)
    names = eq.variables()
    total, rows, sampling = _assignments(alg, len(names), mode, cap, samples, seed)
    target, generators = alg, None  # the interface the rows are given in
    if sampling and mode == "auto" and (table := _generators(alg, eq, names, cap)) is not None:
        generators, sampling = len(table), {}
        total, rows = _grid(alg, len(names), None, table)
    elif not sampling and total > _FIRST_ROWS and (coded := _tabled(alg, eq, total)):
        target, rows = coded, lambda start, stop, grid=rows: grid(start, stop, coded)

    def broken(*values):
        env = dict(zip(names, values))
        return np.any(_value(eq.lhs, target, env) != _value(eq.rhs, target, env), axis=-1)

    position, found = _first_failure(total, alg, rows, broken)
    if position is None:
        status = "valid_sampled" if sampling else "valid_exhaustive"
        return Verdict(status, tried=total, budget=cap, generators=generators, **sampling)
    if target is not alg:
        found = [alg._decode(code[0]) for code in found]
    return Verdict("counterexample",
                   assignment={k: to_element(v) for k, v in zip(names, found)},
                   tried=position + 1, budget=cap, generators=generators, **sampling)
