"""Negation-free term language with optional Heyting extension.

Grammar (s-expressions): atoms are variable names, keywords ``bot`` and
``top``, forms ``(meet t t)``, ``(join t t)``, ``(op NAME t ...)``,
``(neg t)``, ``(imp t t)``.  ``(var x)`` is accepted as an alternate
spelling of a bare variable; the printer always emits the bare form.

Terms evaluate over a convolution algebra, a subset algebra, or a bare
lattice, which is treated as L^1 over a one-point structure with no
relations.  One evaluator serves single evaluations, equation checks and
the relation-algebra checker's De Morgan bounds: terms compile into a
straight-line plan with one step per distinct subterm (see _Plan), which
an Equation builds once and keeps, and the plan runs once per batch of
assignments, each variable bound to an array of value rows, calling the
algebra's batched operations; the structure resolves each relation
application at its step (see RelStructure.spec).
Equations are decided on one of seven paths, which the verdict names (see
_route): the exhaustive grid of assignments over value rows or over
integer codes, the grid over tables of the algebra's own value rows (the
elements that are index 0 at every point but one, or, per variable, the
irreducible generators of L^X or the whole carrier), the grid of 2^X, the
free lattice at each point (see _free), or seeded samples.  Which
variables range over generators follows from how each occurs in the
equation (see _Plan.occurrences and _families), and the De Morgan scans
of the relation-algebra checker take their domains from the same rule
(see _bounded_below).  The least counterexample in enumeration order is
reported, so failures are reproducible.

An exhaustive grid binds each variable to a numpy axis of its own: a
chunk of assignments keeps its trailing variables as full axes, as many
as the products of their domain sizes dividing its bounds allow (chunks
are aligned to them), and takes the others from the mixed-radix digits
of its blocks (see ``convolution._chunks`` and ``_product_axes``).  Each
subterm then broadcasts over the sub-grid of its own variables only, and
flattening the chunk in C order gives the assignments in
``itertools.product`` order.  An exhaustive check over a convolution
algebra whose grid outgrows _TABLE_MIN assignments runs on integer
codes and the algebra's code tables (see ``convolution``) when every
table the equation needs has no more entries than the grid has
assignments.  That is settled before the search starts, and the grid
positions, and so the verdict, are the same either way.  A check over tables stays
on value rows and forms no codes.  Sampled checks stay flat and draw
value rows in bulk, bit-exactly as one ``randrange`` per point would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Union

import numpy as np

from .convolution import (ConvAlgebra, SubsetAlgebra, _chunks, _product_axes,
                          resolve_budget)
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


# ``neg`` and the antecedent of ``imp`` flip monotone and antitone
_FLIP = {"linear": "antitone", "monotone": "antitone", "antitone": "monotone",
         "mixed": "mixed"}


class _Plan:
    """Terms compiled into a straight-line program with one step per
    distinct subterm: a step is (op, name, args), where op is one of
    'var', 'bot', 'top', 'meet', 'join', 'neg', 'imp' and 'op', name the
    variable's or relation's name, and args the positions of the steps
    it reads, each before it.  Subterms are shared when they have the
    same op, name and argument steps, so a subterm that occurs twice is
    evaluated once.  ``roots`` are the steps of the compiled terms, and
    ``names`` (sorted), ``operations`` and ``heyting`` record the
    variables, the relations applied, and whether neg or imp occurs."""

    __slots__ = ("steps", "roots", "names", "operations", "heyting")

    def __init__(self, *terms: Term):
        steps, index, roots = [], {}, []
        for t in terms:
            # reversed pre-order is post-order: a node's arguments, first
            # to last, are the top of the stack of steps when it comes
            stack = []
            for node in reversed(list(_subterms(t))):
                cls = type(node)
                if cls is Var:
                    key = ("var", node.name, ())
                elif cls is RelOp:
                    cut = len(stack) - len(node.args)
                    key = ("op", node.name, tuple(stack[cut:]))
                    del stack[cut:]
                elif cls is Neg:
                    key = ("neg", None, (stack.pop(),))
                elif cls is Bot or cls is Top:
                    key = (cls.__name__.lower(), None, ())
                else:
                    rhs = stack.pop()
                    key = (cls.__name__.lower(), None, (stack.pop(), rhs))
                step = index.get(key)
                if step is None:
                    step = index[key] = len(steps)
                    steps.append(key)
                stack.append(step)
            roots.append(stack.pop())
        self.steps, self.roots = tuple(steps), tuple(roots)
        self.names = sorted(name for op, name, _ in steps if op == "var")
        self.operations = frozenset(name for op, name, _ in steps if op == "op")
        self.heyting = any(op in ("neg", "imp") for op, _, _ in steps)

    def occurrences(self, modes: dict, distributive: bool) -> dict:
        """How each step depends on each variable it is not free of, in one
        pass over the steps: {dual: one {variable: class} per step}, given
        the relations' ``modes`` by name and whether L is ``distributive``.
        A class is 'linear' (preserving binary joins; meets when ``dual``),
        'monotone', 'antitone' or 'mixed'.  By the syntactic rule: a
        variable is linear in itself; a join (meet) is linear when its
        arguments are linear or free; so are a meet (join) and a join-mode
        (meet-mode) relation when exactly one argument holds the variable
        and it is linear, and the others are free of it over a
        distributive L, ground (no variable at all) over any other.  A
        ground term is bottom or top at each point, and x ∧ ⊥, x ∧ ⊤ (x ∨ ⊥,
        x ∨ ⊤) preserve joins (meets) in any lattice; a unary relation has
        no other argument.  Otherwise every operation is monotone in each
        argument, but ``neg`` and the antecedent of ``imp`` flip monotone
        and antitone; linear counts as monotone there."""
        out = {False: [], True: []}
        for op, name, args in self.steps:
            # or every argument but one is ground: holds no variable
            alone = distributive or sum(1 for a in args if out[False][a]) <= 1
            for dual, classes in out.items():
                plus, times, mode = ("meet", "join", MEET) if dual else ("join", "meet", JOIN)
                held = {name: ["linear"]} if op == "var" else {}
                flip = op in ("neg", "imp")  # in the first argument
                for k, a in enumerate(args):
                    for v, c in classes[a].items():
                        held.setdefault(v, []).append(_FLIP[c] if flip and k == 0 else c)
                classes.append({v: "linear" if (
                    op in ("var", plus) and set(h) == {"linear"} or h == ["linear"] and alone and (
                        op == times or op == "op" and modes.get(name) == mode))
                    else "monotone" if set(h) <= {"linear", "monotone"}
                    else "antitone" if set(h) == {"antitone"} else "mixed"
                    for v, h in held.items()})
        return out

    def run(self, alg, env: dict) -> list:
        """The value arrays of the roots over the batch algebra ``alg``;
        ``env`` maps variables to arrays of rows."""
        if self.heyting:
            _check_heyting(alg)
        vals = []
        for op, name, args in self.steps:
            if op == "var":
                try:
                    value = env[name]
                except KeyError:
                    raise UnboundVariable(f"variable {name!r} is not assigned") from None
            elif op == "op":
                value = alg._eval(alg.structure.spec(name, args)[0], [vals[a] for a in args])
            elif op == "join":
                value = alg._join(vals[args[0]], vals[args[1]])
            elif op == "meet":
                value = alg._meet(vals[args[0]], vals[args[1]])
            elif op == "neg":
                value = alg._neg(vals[args[0]])
            elif op == "imp":
                value = alg._imp(vals[args[0]], vals[args[1]])
            else:
                value = alg._row(alg.bot() if op == "bot" else alg.top())
            vals.append(value)
        return [vals[r] for r in self.roots]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    @cached_property
    def _plan(self) -> _Plan:
        """Both sides compiled together from one walk over them, kept with
        the equation."""
        return _Plan(self.lhs, self.rhs)

    def variables(self) -> list[str]:
        return list(self._plan.names)

    def operations(self) -> frozenset[str]:
        """The names of the relations the equation applies."""
        return self._plan.operations

    def uses_heyting(self) -> bool:
        """True when the equation leaves the negation-free fragment."""
        return self._plan.heyting

    def __str__(self):
        return f"{to_sexpr(self.lhs)} = {to_sexpr(self.rhs)}"


def parse_equation(doc, sig: Signature | None = None) -> Equation:
    """Load {"lhs": "<s-expr>", "rhs": "<s-expr>"}."""
    return Equation(parse_term(doc["lhs"], sig), parse_term(doc["rhs"], sig))


# -- evaluation ---------------------------------------------------------------


Algebra = Union[ConvAlgebra, SubsetAlgebra, FiniteLattice]

# A grid of at most this many assignments costs less on value rows than
# the code tables would.
_TABLE_MIN = 256


# One point and no relations: L^1 is L, and the subsets of it are 2.
_POINT = RelStructure(1, Signature(()), [])


def _batch_algebra(algebra):
    """(batch algebra, element -> row, row -> element) for any algebra.

    A bare lattice L is evaluated as L^1 over a one-point structure with an
    empty signature; its elements stay lattice indices.
    """
    if isinstance(algebra, FiniteLattice):
        point = ConvAlgebra(algebra, _POINT)
        return (point, lambda v: np.array([algebra.check_element(v)]),
                lambda row: int(row[0]))
    return algebra, algebra._row, algebra._element


def _check_heyting(algebra):
    if not isinstance(algebra, SubsetAlgebra) and not algebra.lattice.is_distributive:
        raise NotHeyting("neg/imp need a distributive lattice")


def eval_term(t: Term, algebra: Algebra, assignment: dict):
    """Compositional evaluation; relation symbols dispatch by their mode."""
    alg, to_row, to_element = _batch_algebra(algebra)
    env = {name: to_row(v) for name, v in assignment.items()}
    return to_element(_Plan(t).run(alg, env)[0])


def _grid(alg, k: int, enumeration, tables=None):
    """(total, rows) over an ``_enumeration`` (count, codes) for each of k
    variables: ``rows(start, stop, into=alg)`` gives one array of
    ``into``'s rows per position for k-tuples start..stop-1 in
    ``itertools.product`` order, each variable on an axis of its own where
    the chunk allows (see _product_axes), so a subterm runs only over the
    sub-grid of its own variables.  A chunk decodes the carrier once for
    its full axes, and one code per block for each other variable.  Over
    ``tables`` instead (``enumeration`` None), one array of ``alg``'s value
    rows per variable, of any lengths, it indexes them outright, so no code
    is formed.  ``rows.counts`` are the sizes per variable, which
    _first_failure's chunks align to."""
    if tables is None:
        count, codes = enumeration
        counts = (count,) * k
    else:
        counts = tuple(map(len, tables))
        getters = [t.__getitem__ for t in tables]

    def rows(start, stop, into=alg):
        at = getters if tables is not None else [lambda idx: into._decode(codes(idx))] * k
        return _product_axes(at, counts, start, stop)
    rows.counts = counts
    return math.prod(counts), rows


def _samples(alg, k: int, rng, cap: int):
    """``rows`` as for _grid, over consecutive random k-tuples drawn within
    ``cap`` (see ConvAlgebra._draw_rows) from ``rng``, or from a generator
    seeded by it at the first draw, flat, shape (N, |X|), so ``rows.counts``
    is empty."""
    def rows(start, stop):
        nonlocal rng
        rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        drawn = alg._draw_rows(rng, (stop - start) * k, cap)
        return list(drawn.reshape(stop - start, k, alg.structure.carrier_size)
                    .swapaxes(0, 1))
    rows.counts = ()
    return rows


def _assignments(alg, k: int, mode: str, cap: int, samples: int | None = None, seed=0):
    """(total, rows, path) for the k-tuples a search tries: path 'grid',
    the exhaustive grid of _grid, when ``mode`` is 'exhaustive'
    (BudgetExceeded beyond ``cap``), or 'auto' and it fits ``cap``; else
    'samples', ``samples`` tuples, min(cap, 10_000) by default, drawn from
    ``seed``, a seed or a generator the caller also draws from.  The
    carrier is enumerated once.
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
                return total, rows, "grid"
            if mode == "exhaustive":
                raise BudgetExceeded(total, cap)
    total = samples if samples is not None else min(cap, 10_000)
    return total, _samples(alg, k, seed, cap), "samples"


def _first_failure(total: int, alg, rows, broken):
    """(position, rows) of the first of the tuples 0..total-1 of ``rows``
    (as for _grid) at which the batched predicate ``broken`` holds, with one
    row per tuple element; (None, None) when it holds at none.  Chunks are
    sized for ``alg``'s rows and aligned to ``rows.counts`` (see _chunks).
    ``broken`` gets a chunk's arrays as ``rows`` gives them, all with the
    same number of axes, and answers in (a shape that broadcasts to) their
    broadcast shape, which C order flattens into tuple order."""
    for start, stop in _chunks(total, alg, rows.counts):
        args = rows(start, stop)
        hit = broken(*args)
        hits = np.flatnonzero(hit)
        if hits.size:
            shape = [max(n) for n in zip(*(a.shape[:-1] for a in args))]
            if hit.size != stop - start:  # an answer constant along some axis
                hits = np.flatnonzero(np.broadcast_to(hit, shape))
            at = np.unravel_index(hits[0], shape)
            # an axis of length 1 holds one row for every position along it
            return start + int(hits[0]), [a[tuple(i % n for i, n in zip(at, a.shape))]
                                          for a in args]
    return None, None


def _disjoint(plan: _Plan):
    """The steps (t, s) when the equation of ``plan`` reads t ∨ ¬s = ¬s,
    either side and either joinand first (¬s is one shared step), else None."""
    for lhs, rhs in (plan.roots, plan.roots[::-1]):
        (op, _, args), (neg, _, arg) = plan.steps[lhs], plan.steps[rhs]
        if op == "join" and neg == "neg" and rhs in args:
            return args[args[1] != rhs], arg[0]
    return None


def _domains(alg, families: list, cap: int):
    """One array of value rows per variable, by ``families``: for False,
    bottom and the join-irreducibles of the carrier (see
    ConvAlgebra._generator_rows), for True top and the meet-irreducibles,
    each sorted into code order, and for None the carrier itself; or None
    when the grid over them has more than ``cap`` tuples.  The generator
    rows are sorted without codes, which need not fit in int64 when the
    grid over L^X is far beyond ``cap``."""
    lat, n = alg.lattice, alg.structure.carrier_size
    reduced = math.prod(1 + len(lat.irreducibles[f]) * n for f in families if f is not None)
    if reduced > cap:
        return None
    tables = {}
    for dual in set(families) - {None}:
        unit = np.full((1, n), lat.top if dual else lat.bottom)
        rows = np.vstack([unit, alg._generator_rows(dual)])
        tables[dual] = rows[np.lexsort(rows.T[::-1])]
    if None in families:
        try:
            tables[None] = alg._decode(alg.carrier_codes(cap // reduced))
        except BudgetExceeded:
            return None
        if reduced * len(tables[None]) ** families.count(None) > cap:
            return None
    return [tables[f] for f in families]


def _families(alg, eq: Equation):
    """The domain of each variable of ``eq`` for _domains: False for
    bottom and the join-irreducible generators, True for top and the
    meet-irreducible ones, None for the carrier; on the grid over them
    ``eq`` holds iff it holds on all of L^X.  None when no variable is
    reduced.

    Over any finite L each element of the carrier is the join of bottom
    and the ``j`` on the up-set of one point ``x`` (just ``x`` when
    unordered), bottom elsewhere, below it, j in J(L), as each element of
    L is the join of the join-irreducibles below it; dually for the meet
    of top and M(L) on down-sets.  A variable ranges over bottom and
    those generators when, for any values of the other variables:
    (a) both sides are linear in it (see _Plan.occurrences; over a
    non-distributive L the other arguments of a meet or relation must be
    ground), so they preserve the join; dually top and M(L) for
    meet-linear sides.  One family serves case (a), the one in which more
    variables are linear, joins on a tie, so an equation linear in every
    variable has one table; or
    (b) ``eq`` reads t ∨ ¬s = ¬s, that is t ∧ s = ⊥, with t antitone in
    it or free of it and s linear in it or free of it: for
    v = ⊥ ∨ ⋁ j_k, t(v) ∧ s(v) ≤ (t(⊥) ∧ s(⊥)) ∨ ⋁ t(j_k) ∧ s(j_k),
    which needs L distributive.
    Since either holds whatever the other variables are, the reductions
    of several variables compose.  Every other variable ranges over the
    carrier.  None unless ``alg`` is a convolution algebra; case (b)
    needs it unordered too.
    """
    if not isinstance(alg, ConvAlgebra):
        return None
    plan = eq._plan
    occurs = plan.occurrences({s.name: s.mode for s in alg.structure.signature.rel_specs},
                              alg.lattice.is_distributive)
    (lhs, rhs), names = plan.roots, plan.names
    linear = {dual: {v for v in names if occurs[dual][lhs].get(v) in (None, "linear")
                     and occurs[dual][rhs].get(v) in (None, "linear")}
              for dual in (False, True)}
    dual = len(linear[True]) > len(linear[False])
    disjoint = None if alg.ordered or not alg.lattice.is_distributive else _disjoint(plan)
    case_b = set() if disjoint is None else {
        v for v in names if occurs[False][disjoint[0]].get(v) in (None, "antitone")
        and occurs[False][disjoint[1]].get(v) in (None, "linear")}
    families = [dual if v in linear[dual] else False if v in case_b else None for v in names]
    return None if families.count(None) == len(names) else families


@cache
def _bounds_plan(bounds: tuple) -> _Plan:
    """One plan of the sides of ``bounds`` for _bounded_below, x <= ¬s
    read as x ∧ s <= ⊥, compiled once per process."""
    return _Plan(*(side for x, y in bounds
                   for side in ((Meet(x, y.arg), Bot()) if isinstance(y, Neg) else (x, y))))


def _bounded_below(alg, bounds: list, names: list[str], cap: int):
    """One array of value rows per variable of ``names`` for a scan of the
    inequalities ``bounds``, pairs (x, y) of terms for x <= y: bottom and
    the join-irreducibles of the carrier (see _domains) for a variable
    that every bound decides below it, the carrier for the others; or
    None.

    A bound x <= y holds at v iff it holds at every generator below v
    when x is join-linear in v and y free of it, as x(v) is then the join
    of bottom and x at those generators; a bound x <= ¬s counts as
    x ∧ s <= ⊥.  So the bounds agree at every tuple of the carrier iff
    they agree on this grid, and a disagreement on it is one of the
    carrier.  None unless ``alg`` is an unordered convolution algebra
    over a distributive lattice, some variable is reduced, and the grid
    fits ``cap``.
    """
    if (not isinstance(alg, ConvAlgebra) or alg.ordered
            or not alg.lattice.is_distributive):
        return None
    plan = _bounds_plan(tuple(bounds))
    occurs = plan.occurrences({s.name: s.mode for s in alg.structure.signature.rel_specs},
                              True)[False]
    families = [False if all(occurs[x].get(v) in (None, "linear") and v not in occurs[y]
                             for x, y in zip(plan.roots[::2], plan.roots[1::2]))
                else None for v in names]
    return None if families.count(None) == len(names) else _domains(alg, families, cap)


def _two_valued(alg, eq: Equation, names: list[str], cap: int):
    """The route of ``eq`` on 'two-valued', searched on 2^X
    (``alg._two_valued``) by 2^X's own _route in mode 'auto': a
    refutation is one tuple, the rows found, evaluated there once more,
    with ``back`` composed with 0 -> bottom, 1 -> top; a valid search is
    no tuple, with 2^X's ``tried``, and stands only over a distributive
    L.  A route on 'free' is returned as it is, as that verdict holds for
    every L.  None otherwise, and unless ``alg`` is a convolution algebra
    over an L of more than 2 elements, Boolean if ``eq`` uses neg or imp.
    0 -> bottom, 1 -> top embeds 2^X in L^X, monotone maps included, so
    a counterexample on 2^X is one on L^X.  Validity carries over by the
    paper's variety theorem: the maps phi_j(a) = {x : j <= a(x)}, j in
    J(L), are jointly injective homomorphisms from L^X to 2^X over a
    distributive L (j is join-prime, and an atom when L is Boolean) that
    keep maps monotone.
    """
    if (not isinstance(alg, ConvAlgebra) or alg.lattice.size <= 2
            or (eq.uses_heyting() and not alg.lattice.is_boolean)):
        return None
    two, lat = alg._two_valued, alg.lattice
    route = path, target, total, rows, inner, facts = _route(two, eq, names, "auto", cap, None, 0)
    if path in ("samples", "free"):
        return None if path == "samples" else route
    position, found = _first_failure(total, two, rows, _mismatch(eq, names, target))
    if position is None and not lat.is_distributive:
        return None
    one = lambda start, stop: [row[None] for row in found]  # noqa: E731
    one.counts = ()

    def back(_, rows):
        at, rows = inner(position, rows)
        return at, [np.where(row == two.lattice.top, lat.top, lat.bottom) for row in rows]
    return "two-valued", target, int(position is not None), one, back, {"tried": facts["tried"]}


def _free(alg, eq: Equation, cap: int):
    """|X|, the number of points compared, when the sides of ``eq`` are
    equal in the free bounded lattice at each point, so in L^X for every
    L, monotone maps and subsets alike; else None, also when ``eq`` uses
    neg or imp, applies a relation ``alg`` lacks or at another arity (its
    search raises then), or outgrows ``cap`` nodes and arguments.  By the
    definition of convolution a term is at a point x a lattice polynomial
    in its variables' values: a join-mode relation the join over its
    tuples (y_1..y_n, x) of the meet of its arguments at y_1..y_n, a
    meet-mode one the dual.  A node (kind, arguments) is hash-consed; a
    join or a meet holds a set of arguments of other kinds, with bottom
    and top, the empty join and meet, absorbed.  p <= q by Whitman's
    solution of the word problem for free lattices (Ann. Math. 1941).
    """
    plan, structure = eq._plan, alg.structure
    if plan.heyting:
        return None
    nodes, size, n = {}, 0, structure.carrier_size

    def node(kind, args):
        nonlocal size
        if (kind, args) not in nodes:
            nodes[kind, args], size = (kind, args), size + 1 + len(args)
        return nodes[kind, args]
    bot, top = node("join", frozenset()), node("meet", frozenset())

    def fold(kind, parts):
        zero, flat = top if kind == "join" else bot, set()
        for p in parts:
            if p is zero:
                return zero
            flat |= p[1] if p[0] == kind else {p}  # the unit is the empty fold
        return flat.pop() if len(flat) == 1 else node(kind, frozenset(flat))

    @cache
    def leq(p, q):
        (pk, ps), (qk, qs) = p, q
        return p is q or (all(leq(a, q) for a in ps) if pk == "join"
                          else all(leq(p, b) for b in qs) if qk == "meet"
                          else pk == "meet" and any(leq(a, q) for a in ps)
                          or qk == "join" and any(leq(p, b) for b in qs))

    vals = []  # one polynomial per point for each step
    for op, name, args in plan.steps:
        if op == "var":
            row = [node((name, x), ()) for x in range(n)]
        elif op != "op":  # bottom and top are the empty join and meet
            kind = {"bot": "join", "top": "meet"}.get(op, op)
            row = [fold(kind, [vals[a][x] for a in args]) for x in range(n)]
        else:
            try:
                i, spec = structure.spec(name, args)
            except (UnknownOperation, ArityMismatch):
                return None
            plus, times = ("join", "meet") if spec.mode == JOIN else ("meet", "join")
            ending = [[] for _ in range(n)]
            for t in structure.relations[i]:
                ending[t[-1]].append(fold(times, [vals[a][y] for a, y in zip(args, t)]))
            row = [fold(plus, parts) for parts in ending]
        vals.append(row)
        if size > cap:
            return None
    lhs, rhs = (vals[root] for root in plan.roots)
    return n if all(leq(p, q) and leq(q, p) for p, q in zip(lhs, rhs)) else None


def _tabled(alg, eq: Equation, total: int):
    """The code interface of a convolution algebra when each code table
    ``eq`` can need (q^2 entries for the lattice operations, q^arity for a
    relation) has no more entries than the ``total`` assignments, else
    None: a table costs one broadcast evaluation of its operation, no more
    than the grid, and later equations over the algebra reuse it."""
    if not isinstance(alg, ConvAlgebra):
        return None
    q = alg.space_size()
    if q * q > total or any(q ** s.arity > total for s in alg.structure.signature.rel_specs
                            if s.name in eq.operations()):
        return None
    return alg.coded()


def _one_point_rows(alg, eq: Equation):
    """The value rows, in code order, of the elements of ``alg`` that are
    index 0 at every point but the least significant one of the codes,
    when the least tuple on which ``eq`` fails, if any, is made of them;
    else None.

    Without ``op`` an equation applies only operations that act point by
    point.  A tuple fails iff it fails at some point; moving its values
    there to the least significant point, with index 0 (which need not be
    bottom) elsewhere, keeps it failing and makes no code larger.  So the
    least failing tuple of the whole grid lies in the grid over these
    rows: the |L| elements with their value at the last point of an
    unordered L^X, and the subsets {} and {0}.  A nullary ``op`` differs
    from point to point, the monotone maps of an ordered algebra are not
    closed under the move, and a one-point carrier is its own table, so
    none of them qualifies.
    """
    if (eq.operations() or alg.structure.carrier_size < 2
            or getattr(alg, "ordered", False)):
        return None
    return alg._decode(np.arange(2 if isinstance(alg, SubsetAlgebra) else alg.lattice.size))


def _mismatch(eq: Equation, names: list[str], alg):
    """The batched predicate, for _first_failure over ``alg``'s rows bound
    to ``names``, that the two sides of ``eq`` differ."""
    plan = eq._plan

    def broken(*values):
        lhs, rhs = plan.run(alg, dict(zip(names, values)))
        return (lhs != rhs).any(axis=-1)
    return broken


def _route(alg, eq: Equation, names: list[str], mode: str, cap: int,
           samples: int | None, seed, two_valued: bool = True):
    """(path, target, total, rows, back, facts): the path on which ``eq``
    is decided over ``alg``, the interface ``target`` whose rows ``rows``
    gives for the ``total`` tuples of the search (see _grid), ``back``,
    which maps the position and rows of its first failure (see
    _first_failure) to the whole grid's position and ``alg``'s value rows,
    and the fields of the verdict, with ``tried`` for a valid one.  The
    only code that picks a path, in this order.

    When the grid of all assignments fits ``cap``, and always in mode
    'exhaustive', which raises BudgetExceeded beyond it: over the table
    of _one_point_rows when that applies ('one-point'), where a position
    counts in the carrier size per variable; over codes when _tabled
    holds for a grid that outgrows _TABLE_MIN assignments ('codes');
    else over value rows ('grid').  Over ``cap`` in mode 'auto': over the
    _domains of the _families when every variable is reduced and that
    grid fits ('generators'); else on 2^X by _two_valued ('two-valued', or
    'free' as it is), unless ``two_valued`` is False; else over those
    domains with some variables over the carrier ('generators', their
    names in ``reduced``), a larger grid than 2^X's; else valid with no
    search left when _free holds ('free'), which rests on no theorem that
    a checker tests.  Otherwise, as in mode 'sample', ``samples``
    assignments drawn from ``seed`` ('samples').
    """
    k, target, tables, facts = len(names), alg, None, {}
    back = lambda position, found: (position, found)  # noqa: E731
    total, rows, path = _assignments(alg, k, mode, cap, samples, seed)
    if path == "grid" and (table := _one_point_rows(alg, eq)) is not None:
        q, n = alg.space_size(), len(table)
        path, tables, facts["tried"] = "one-point", [table] * k, q ** k
        # the position's k digits, read in base q
        back = lambda position, found: (  # noqa: E731
            sum(position // n ** j % n * q ** j for j in range(k)), found)
    elif path == "grid" and total > _TABLE_MIN and (coded := _tabled(alg, eq, total)):
        path, target, rows = "codes", coded, partial(rows, into=coded)
        rows.counts = rows.func.counts
        back = lambda position, found: (  # noqa: E731
            position, [alg._decode(code[0]) for code in found])
    elif path == "samples" and mode == "auto":
        families = _families(alg, eq)
        full = families is not None and None not in families
        if full and (tables := _domains(alg, families, cap)) is not None:
            path = "generators"
        elif two_valued and (two := _two_valued(alg, eq, names, cap)) is not None:
            path, target, total, rows, back, facts = two
        elif families is not None and not full and (
                tables := _domains(alg, families, cap)) is not None:
            path = "generators"
        elif (tried := _free(alg, eq, cap)) is not None:
            path, total, facts["tried"] = "free", 0, tried
        if path == "generators":
            reduced = [v for v, f in zip(names, families) if f is not None]
            facts.update(generators=len(tables[names.index(reduced[0])]),
                         reduced=None if full else reduced)
    if path == "samples":
        facts.update(samples=total, seed=seed)
    if tables is not None:
        total, rows = _grid(alg, k, None, tables)
    return path, target, total, rows, back, {"budget": cap, "tried": total, **facts}


# -- validity checking ---------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of an equation check on the path that decided it: grid,
    codes, one-point, generators, two-valued, free or samples (see
    _route).  Its status follows: counterexample when there is an
    assignment, which re-evaluates to distinct sides, else valid_sampled
    on the samples path and valid_exhaustive on the others.  ``tried``
    counts the assignments searched, or the points compared on the free
    path.  ``samples`` and ``seed`` are set on the samples path, and
    ``generators``, the size of a table of generators, on the generators
    path, with ``reduced``, the variables that range over it, when the
    others range over the carrier.
    """

    path: str
    assignment: dict | None = None
    tried: int = 0
    samples: int | None = None
    seed: int | None = None
    budget: int | None = None
    generators: int | None = None
    reduced: list | None = None

    def __post_init__(self):
        if self.path not in ("grid", "codes", "one-point", "generators", "two-valued",
                             "free", "samples"):
            raise ValueError(f"unknown path {self.path!r}")

    @property
    def status(self) -> str:
        if self.assignment is not None:
            return "counterexample"
        return "valid_sampled" if self.path == "samples" else "valid_exhaustive"

    @property
    def is_valid(self) -> bool:
        return self.assignment is None

    @property
    def decided(self) -> bool:
        """False for a sampled validity, which proves nothing."""
        return self.status != "valid_sampled"

    def to_json(self) -> dict:
        out = {"status": self.status, "stats": {"assignments": self.tried}}
        if self.budget is not None:
            out["stats"]["budget"] = self.budget
        if self.path == "generators":
            out["stats"].update(path="irreducibles", generators=self.generators)
        if self.reduced is not None:
            out["stats"]["reduced"] = self.reduced
        if self.path in ("two-valued", "free"):
            out["stats"]["path"] = self.path
        if self.path == "samples":
            out.update(samples=self.samples, seed=self.seed)
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
                   budget: int | None = None, two_valued: bool = True) -> Verdict:
    """Decide an equation over the algebra's carrier on the path that
    _route chooses once, before the search, and the verdict names.

    Both sides are evaluated over chunks of assignments at once: an
    exhaustive grid in ``itertools.product`` order of the carrier or of
    the tables (so the first mismatch is the least counterexample in that
    order, on value rows, codes or one point alike), or the samples in
    the order they are drawn.  A counterexample on 2^X sends 0 to bottom
    and 1 to top, and, like the generators', is not the least of the
    whole grid.  Sampling is sound (reported counterexamples are real)
    but not complete; ordered algebras are sampled by drawing functions
    and rejecting the non-monotone ones, so sampling never enumerates
    their carrier; BudgetExceeded, as for a grid over the budget in mode
    'exhaustive', when fewer than about one function drawn in ``budget``
    is monotone.  With ``two_valued`` False no verdict is decided on 2^X,
    which the checks that test the variety theorem ask for.  Nothing in
    this module calls check_equation: each call from outside is one
    verdict.
    """
    cap = resolve_budget(budget)
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    alg, _, to_element = _batch_algebra(algebra)
    names = eq.variables()
    path, target, total, rows, back, facts = _route(alg, eq, names, mode, cap, samples, seed,
                                                    two_valued)
    position, found = _first_failure(total, alg, rows, _mismatch(eq, names, target))
    if position is None:
        return Verdict(path, **facts)
    position, found = back(position, found)
    return Verdict(path, assignment={name: to_element(v) for name, v in zip(names, found)},
                   **{**facts, "tried": position + 1})
