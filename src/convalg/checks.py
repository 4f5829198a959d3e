"""Mechanical verifiers for the workbench's structural laws.

Each checker returns a Report: status "pass" or "fail" with a concrete
finite witness on failure.  Checkers only assert laws under their
hypotheses (typically a distributive lattice); outside them they run the
same computation and report status "observed" without asserting.

Checkers state laws; check_equation decides each equation, and its
verdict names the path: a check is exhaustive when its assignment space,
or an equation's grid over generators or over 2^X, or its polynomials in
the free lattice fit the budget (default 10^6), else it samples and
records that in its stats.  A sampled validity proves nothing, so no
checker reports "fail" on one.
"""

from __future__ import annotations

import json
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, product

import numpy as np

from .catalog import cyclic_group
from .convolution import (_TWO, ConvAlgebra, SubsetAlgebra,
                          is_lattice_morphism, iso_phi,
                          lift_lattice_morphism, product_iso,
                          product_iso_inv, pullback_pmorphism,
                          resolve_budget)
from .errors import NotHeyting, SignatureMismatch
from .lattice import FiniteLattice, _blocks, build_lattice
from .structures import (JOIN, MEET, RelStructure, Signature, build_structure,
                         disjoint_union, full_structure, is_p_morphism, signature)
from .terms import (Bot, Equation, Join, Meet, Neg, RelOp, Top, Var,
                    _assignments, _bounded_below, _first_failure,
                    _grid, _Plan, check_equation, describe_element)


@dataclass
class Report:
    checker: str
    instance: str
    status: str  # "pass" | "fail" | "observed"
    witness: object = None
    stats: dict = field(default_factory=dict)

    @classmethod
    def of(cls, checker: str, instance: str, failures: list, stats: dict,
           asserted: bool = True) -> Report:
        """The report on a law: "observed" when it is not asserted, else
        "fail" when there are failures, else "pass"; the first failure,
        if any, is the witness."""
        status = "fail" if failures else "pass"
        return cls(checker, instance, status if asserted else "observed",
                   witness=failures[0] if failures else None, stats=stats)

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        out = {"checker": self.checker, "instance": self.instance,
               "status": self.status, "stats": self.stats}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _op(name: str):
    """The term builder of the relation ``name``: its arguments to its application."""
    return lambda *args: RelOp(name, args)


def _labels(lat: FiniteLattice, row) -> list[str]:
    return [lat.labels[v] for v in row]


def _code_labels(algebra: ConvAlgebra, code) -> list[str]:
    """The labels of the value row of the element of ``algebra`` coded ``code``."""
    return _labels(algebra.lattice, algebra._decode(np.asarray(code)))


def _describe_assignment(env: dict) -> dict:
    return {k: describe_element(v) for k, v in sorted(env.items())}


def _eq_verdicts(algebra, equations, seed=0, budget=None):
    """Decide each law of a list of (label, Equation) over an algebra.

    Returns (failures, stats), a failure naming the law and its
    counterexample.
    """
    verdicts = [check_equation(eq, algebra, seed=seed, budget=budget) for _, eq in equations]
    failures = [{"law": label, "equation": str(eq),
                 "assignment": _describe_assignment(v.assignment)}
                for (label, eq), v in zip(equations, verdicts) if not v.is_valid]
    return failures, {"assignments": sum(v.tried for v in verdicts), **_law_counts(verdicts)}


def _law_counts(verdicts) -> dict:
    """The stats counting ``sampled_laws``, the verdicts on the samples
    path, then ``reduced_laws``, ``two_valued_laws`` and ``free_laws``,
    those on the generators, two-valued and free paths, each only when
    there are any."""
    paths = Counter(v.path for v in verdicts)
    counts = {"reduced_laws": paths["generators"], "two_valued_laws": paths["two-valued"],
              "free_laws": paths["free"]}
    return {"sampled_laws": paths["samples"], **{k: n for k, n in counts.items() if n}}


# -- operator laws (additivity / multiplicativity) ---------------------------


def _masked_fold(table, unit, items, masks):
    """``unit`` folded through the binary table ``table`` with items[j]
    wherever masks[j] holds, in increasing j.  Items and masks broadcast
    against each other after their first axis, which gives the shape of
    the result."""
    out = np.full(np.broadcast_shapes(np.shape(items)[1:], np.shape(masks)[1:]), unit)
    for item, mask in zip(items, masks):
        out = np.where(mask, table[out, item], out)
    return out


def _complete_law(algebra: ConvAlgebra, i: int, cap: int):
    """("exhaustive", witness) of the complete law of relation ``i`` over
    its code table, or ("over budget", None), building no table, when that
    takes more than ``cap`` lookups; the lattice must be distributive.

    The carrier's join-irreducibles, j in J(L) on the up-set of x (just x
    when unordered) and bottom elsewhere, are then join-prime, so argument
    k is completely additive iff the value at every a, the other arguments
    fixed, is the join of the values at the generators below a (bottom at
    a = bottom).  Meet relations take the dual.  The witness is the first
    failing (a, fixed) in code order, for the least such k.
    """
    lat, spec = algebra.lattice, algebra.structure.signature.rel_specs[i]
    n, join = algebra.structure.carrier_size, spec.mode == JOIN
    unit, fold = (lat.bottom, lat.join_np) if join else (lat.top, lat.meet_np)
    if algebra.space_size() ** spec.arity * len(lat.irreducibles[not join]) * n > cap:
        return "over budget", None
    gens = algebra._generator_rows(dual=not join)
    codes = algebra.carrier_codes(cap)
    rows = algebra._decode(codes)
    pairs = (gens[:, None], rows) if join else (rows, gens[:, None])
    below = lat.leq[pairs].all(axis=-1)[..., None, None]  # [g, a]: g on a's side
    gens = algebra._encode(gens)
    others = (slice(None),) + np.ix_(*[codes] * (spec.arity - 1))
    for k in range(spec.arity):
        at_k = np.moveaxis(algebra._table(i), k, 0)
        want = at_k[codes][others].reshape(len(codes), -1)
        images = algebra._decode(at_k[gens][others].reshape(len(gens), 1, want.shape[1]))
        got = algebra._encode(_masked_fold(fold, unit, images, below))
        bad = np.flatnonzero(got != want)
        if bad.size:
            a, *fixed = np.unravel_index(bad[0], (len(codes),) * spec.arity)
            return "exhaustive", {"law": f"irreducibles@{k}",
                                  "arg": _labels(lat, rows[a]),
                                  "fixed": [_labels(lat, rows[j]) for j in fixed]}
    return "exhaustive", None


@cache
def _operator_laws(name: str, arity: int, mode: str) -> tuple:
    """(label, Equation) of the binary and the empty law at each argument
    of a relation ``name`` of ``arity`` and ``mode``, built once per process."""
    comb, unit = (Join, Bot()) if mode == JOIN else (Meet, Top())

    def at(k, arg):  # the operation with argument k set to ``arg``, z_j elsewhere
        return RelOp(name, tuple(arg if j == k else Var(f"z{j}") for j in range(arity)))
    x, y = Var("x"), Var("y")
    return tuple(law for k in range(arity) for law in (
        (f"binary@{k}", Equation(at(k, comb(x, y)), comb(at(k, x), at(k, y)))),
        (f"empty@{k}", Equation(at(k, unit), unit))))


def check_operator(algebra: ConvAlgebra, rel, budget: int | None = None,
                   seed: int = 0, instance: str | None = None) -> Report:
    """Additivity (join relations) or multiplicativity (meet relations).

    Over a distributive lattice, when it fits the budget, the complete law
    is decided exhaustively from the join-irreducibles of the carrier (see
    _complete_law), and that alone decides.  Elsewhere the binary law and
    the empty-family law at each argument position are decided as
    equations; on a finite lattice those two together give complete
    additivity.
    """
    cap = resolve_budget(budget)
    i, spec = algebra.structure.spec(rel)
    additive = spec.mode == JOIN
    name = instance or f"{spec.name}:{spec.arity}{'+' if additive else '-'}"
    hypothesis = algebra.lattice.is_distributive
    law, witness = _complete_law(algebra, i, cap) if hypothesis and spec.arity else (None, None)
    if law == "exhaustive":
        failures, stats = [witness] if witness else [], {"complete_law": law}
    else:
        failures, stats = _eq_verdicts(algebra, _operator_laws(spec.name, spec.arity, spec.mode),
                                       seed=seed, budget=cap)
        if law:
            stats["complete_law"] = law
    stats["positions"] = spec.arity
    if spec.arity == 0:
        stats["note"] = "nullary operation, laws hold vacuously"
    if not hypothesis:
        stats["laws_hold"] = not failures
    return Report.of("operator", name, failures, stats, asserted=hypothesis)


# -- finite support ------------------------------------------------------------


def check_finitely_supported(algebra: ConvAlgebra, rel,
                             budget: int | None = None, seed: int = 0,
                             instance: str | None = None) -> Report:
    """Delta reconstruction of operation outputs.

    Join convolutions: the output at any argument tuple equals the join
    over all point combinations of the operation applied to one-point
    restrictions (value kept at one point, bottom elsewhere).  Meet
    convolutions obey the dual law with co-one-point restrictions (value
    kept at one point, top elsewhere) and a meet.  Each argument is also
    met (resp. joined) with a seeded random element, and the output there
    must stay below (resp. above) the output; on a finite carrier, where
    every function has finite support, the general form reduces to that.
    One predicate over the batched operations decides it, on codes for
    an exhaustive scan when no code table is larger than the budget or
    the scan's applications: the tuples, draws and chunks are the same.
    """
    cap = resolve_budget(budget)
    i, spec = algebra.structure.spec(rel)
    name = instance or f"{spec.name}:{spec.arity}"
    lat = algebra.lattice
    n_car = algebra.structure.carrier_size
    joinish = spec.mode == JOIN
    if spec.arity == 0:
        return Report.of("finite-support", name, [],
                         {"note": "nullary operation, no arguments"})

    k, q = spec.arity, algebra.space_size()
    rng = random.Random(seed)
    total, rows, path = _assignments(algebra, k, "auto", cap, min(2000, cap), rng)
    coded = path == "grid" and max(q * q, q ** k) <= min(cap, total * n_car ** k)
    target = algebra.coded() if coded else algebra
    into = lambda r: algebra._encode(r)[..., None] if coded else r  # noqa: E731
    values = lambda r: algebra._decode(r[0]) if coded else r  # noqa: E731
    fold, side = (target._join, target._meet) if joinish else (target._meet, target._join)
    fill = lat.bottom if joinish else lat.top
    # row x: top (bottom) at x and fill elsewhere, so side(a, keep[x]) is a's restriction to x
    keep = into(np.where(np.eye(n_car, dtype=bool), lat.top if joinish else lat.bottom, fill))
    unit = into(np.full(n_car, fill))

    def with_comparands(start, stop):
        """The chunk's tuples and their comparands, drawn in tuple order
        and shaped like the chunk."""
        args = rows(start, stop, into=target) if coded else rows(start, stop)
        shape = np.broadcast_shapes(*(a.shape[:-1] for a in args))
        drawn = algebra._draw_rows(rng, (stop - start) * k, cap).reshape(stop - start, k, n_car)
        return args + [side(a, into(r.reshape(shape + (n_car,))))
                       for a, r in zip(args, drawn.swapaxes(0, 1))]
    with_comparands.counts = rows.counts

    def outputs(args):
        """The output on ``args`` and the fold of the outputs on their deltas."""
        rhs = unit
        for xs in product(range(n_car), repeat=k):
            rhs = fold(rhs, target._eval(i, [side(a, keep[x]) for a, x in zip(args, xs)]))
        return target._eval(i, args), rhs

    def broken(*args_and_comparands):
        lhs, rhs = outputs(args_and_comparands[:k])
        out = target._eval(i, args_and_comparands[k:])
        low = out if joinish else lhs
        return ((lhs != rhs) | (target._meet(out, lhs) != low)).any(axis=-1)

    # chunked as over value rows, whichever interface runs the scan
    position, found = _first_failure(total, algebra, with_comparands, broken)
    failures = []
    if position is not None:
        args, bent = found[:k], found[k:]
        lhs, rhs = outputs(args)
        witness = {"args": [_labels(lat, values(a)) for a in args]}
        if (lhs != rhs).any():
            witness.update(output=_labels(lat, values(lhs)), delta_fold=_labels(lat, values(rhs)))
        else:
            witness["comparand"] = [_labels(lat, values(b)) for b in bent]
        failures.append(witness)
    return Report.of("finite-support", name, failures,
                     {"tuples": total if position is None else position + 1,
                      "mode": "sampled" if path == "samples" else "exhaustive",
                      "form": "delta-join" if joinish else "delta-meet"})


# -- closure / interior correspondence ----------------------------------------


def _relation_scan(structure: RelStructure, i: int = 0):
    rel = structure.relations[i]
    n = structure.carrier_size
    reflexive = all((x, x) in rel for x in range(n))
    transitive = all((a, c) in rel
                     for (a, b) in rel for (b2, c) in rel if b == b2)
    return reflexive, transitive


@cache
def _closure_laws(rname: str) -> tuple:
    """(label, algebra, Equation, scan) rows of check_closure_correspondence
    for a relation named ``rname``, built once per name: the law is
    decided over the join convolution (0), the meet one (1) or the join
    one over the dual lattice (2), and must be valid iff the scan says
    the relation is reflexive or transitive, or always for None; x <= y
    is x v y = y."""
    f, x, y = _op(rname), Var("x"), Var("y")
    increasing, idempotent = Equation(Join(x, f(x)), f(x)), Equation(Join(f(f(x)), f(x)), f(x))
    return (("reflexive/closure", 0, increasing, "reflexive"),
            ("transitive/closure", 0, idempotent, "transitive"),
            ("operator/join", 0, Equation(f(Join(x, y)), Join(f(x), f(y))), None),
            ("operator/zero", 0, Equation(f(Bot()), Bot()), None),
            ("reflexive/interior", 1, Equation(Meet(x, f(x)), f(x)), "reflexive"),
            ("transitive/interior", 1, Equation(Meet(f(x), f(f(x))), f(x)), "transitive"),
            ("dual-operator/meet", 1, Equation(f(Meet(x, y)), Meet(f(x), f(y))), None),
            ("dual-operator/one", 1, Equation(f(Top()), Top()), None),
            ("reflexive/dual-lattice", 2, increasing, "reflexive"),
            ("transitive/dual-lattice", 2, idempotent, "transitive"))


def check_closure_correspondence(lat: FiniteLattice, frame: RelStructure,
                                 budget: int | None = None,
                                 instance: str | None = None) -> Report:
    """Unary convolution is a closure operator iff the relation is a preorder.

    Both sides of each biconditional are computed independently: the
    inequalities run as equation checks over L^X, reflexivity and
    transitivity by scanning the relation.  The dual statement is checked
    three ways: the meet convolution over L, the join convolution over the
    order dual of L, and the interior laws themselves.  A sampled validity
    of an inequality is not held against a scan that says it should fail;
    the biconditionals so skipped are listed in the stats as ``undecided``.
    """
    budget = resolve_budget(budget)
    if not lat.is_distributive:
        raise NotHeyting("closure correspondence is stated for distributive lattices")
    if len(frame.signature) != 1 or frame.signature.rel_specs[0].arity != 1:
        raise SignatureMismatch("frame must carry exactly one binary relation")
    rname = frame.signature.rel_specs[0].name
    reflexive, transitive = _relation_scan(frame)
    name = instance or f"|X|={frame.carrier_size},R({len(frame.relations[0])})"

    join_frame = RelStructure(frame.carrier_size,
                              signature((rname, 1, JOIN)), [frame.relations[0]])
    meet_frame = RelStructure(frame.carrier_size,
                              signature((rname, 1, MEET)), [frame.relations[0]])
    algebras = (ConvAlgebra(lat, join_frame), ConvAlgebra(lat, meet_frame),
                ConvAlgebra(lat.dual(), join_frame))
    scans = {"reflexive": reflexive, "transitive": transitive, None: True}
    tried, undecided = 0, []
    for label, which, eq, scan in _closure_laws(rname):
        v, expect = check_equation(eq, algebras[which], budget=budget), scans[scan]
        tried += v.tried
        if v.is_valid != expect and not v.decided:
            undecided.append(label)
        elif v.is_valid != expect:
            witness = {"biconditional": label, "equation": str(eq),
                       "equation_valid": v.is_valid,
                       "relation_scan": {"reflexive": reflexive,
                                         "transitive": transitive}}
            if v.assignment is not None:
                witness["assignment"] = _describe_assignment(v.assignment)
            return Report.of("closure-correspondence", name, [witness],
                             {"assignments": tried})
    stats = {"assignments": tried, "reflexive": reflexive, "transitive": transitive}
    if undecided:
        stats["undecided"] = undecided
    return Report.of("closure-correspondence", name, [], stats)


# -- monadic algebra -----------------------------------------------------------


@cache
def _monadic_laws() -> tuple:
    """(label, Equation) of the monadic axioms, built once per process."""
    dia, box, x, y = _op("dia"), _op("box"), Var("x"), Var("y")
    return (
        ("closure/increasing", Equation(Join(x, dia(x)), dia(x))),
        ("closure/idempotent", Equation(dia(dia(x)), dia(x))),
        ("closure/zero", Equation(dia(Bot()), Bot())),
        ("closure/additive", Equation(dia(Join(x, y)), Join(dia(x), dia(y)))),
        ("interior/decreasing", Equation(Meet(x, box(x)), box(x))),
        ("interior/idempotent", Equation(box(box(x)), box(x))),
        ("interior/one", Equation(box(Top()), Top())),
        ("interior/multiplicative", Equation(box(Meet(x, y)), Meet(box(x), box(y)))),
        ("axiom1", Equation(box(dia(x)), dia(x))),
        ("axiom2", Equation(dia(box(x)), box(x))),
        ("axiom3", Equation(dia(Meet(dia(x), y)), Meet(dia(x), dia(y)))),
    )


def check_monadic_axioms(lat: FiniteLattice, n: int,
                         budget: int | None = None,
                         instance: str | None = None) -> Report:
    """Quantifier pair over the all-pairs relation: closure, interior, and
    the three interaction axioms.

    Also verifies the pointwise description directly, over the whole
    carrier when it fits the budget and over seeded samples otherwise
    (stats ``pointwise``: "sampled"): the join convolution sends a function
    to the constant at its join, the meet convolution to the constant at
    its meet.
    """
    cap = resolve_budget(budget)
    if not lat.is_distributive:
        raise NotHeyting("monadic axioms are stated over Heyting-capable lattices")
    structure = full_structure(n, extended=True)
    algebra = ConvAlgebra(lat, structure)
    name = instance or f"n={n}"

    def images(rows):
        return [algebra._eval(structure.relation(r), [rows]) for r in ("dia", "box")]

    def broken(rows):
        dia, box = images(rows)
        points = np.moveaxis(rows, -1, 0)
        cj = reduce(lambda acc, v: lat.join_np[acc, v], points, lat.bottom)
        cm = reduce(lambda acc, v: lat.meet_np[acc, v], points, lat.top)
        return ((dia != cj[..., None]) | (box != cm[..., None])).any(axis=-1)

    total, rows, path = _assignments(algebra, 1, "auto", cap)
    pointwise = {"pointwise": "sampled"} if path == "samples" else {}
    position, found = _first_failure(total, algebra, rows, broken)
    if position is not None:
        alpha, = found
        dia, box = images(alpha)
        return Report.of("monadic", name, [{
            "alpha": _labels(lat, alpha), "dia": _labels(lat, dia), "box": _labels(lat, box)}],
            pointwise)

    failures, stats = _eq_verdicts(algebra, _monadic_laws(), budget=cap)
    return Report.of("monadic", name, failures, {**stats, **pointwise})


# -- the all-pairs frame equation ----------------------------------------------


@cache
def _nabla_law() -> Equation:
    """f(a) /\\ f(b) = f(f(a) /\\ b), built once per process."""
    f, a, b = _op("f"), Var("a"), Var("b")
    return Equation(Meet(f(a), f(b)), f(Meet(f(a), b)))


def check_nabla_equation(lat: FiniteLattice, n: int,
                         budget: int | None = None,
                         instance: str | None = None) -> Report:
    """f(a) /\\ f(b) = f(f(a) /\\ b) over the all-pairs frame.

    Asserted valid for distributive lattices (finiteness supplies the
    frame law); for non-distributive lattices the outcome is reported
    without assertion, since the stated equivalence concerns distributive
    lattices only.
    """
    budget = resolve_budget(budget)
    structure = full_structure(n)
    algebra = ConvAlgebra(lat, structure)
    name = instance or f"n={n}"

    v = check_equation(_nabla_law(), algebra, budget=budget)
    failures = [] if v.is_valid else [{"assignment": _describe_assignment(v.assignment)}]
    return Report.of("nabla-equation", name, failures,
                     {"assignments": v.tried, "verdict": v.status},
                     asserted=lat.is_distributive)


# -- associativity over the two-element group -----------------------------------


@cache
def _associativity_law() -> Equation:
    """(x * y) * z = x * (y * z), built once per process."""
    star, x, y, z = _op("*"), Var("x"), Var("y"), Var("z")
    return Equation(star(star(x, y), z), star(x, star(y, z)))


def check_z2_associativity(lat: FiniteLattice, budget: int | None = None,
                           instance: str | None = None) -> Report:
    """Associativity of the convolved group operation iff distributivity.

    Both sides of the biconditional are decided independently: the
    associativity equation without 2^X, distributivity by a fresh
    triple scan of the tables.  A sampled validity proves nothing, so it
    is reported "observed", with the verdict in the stats.  A pass carries
    no witness: when a non-distributive lattice passes, its counterexample
    to associativity is the stat ``counterexample``.
    """
    budget = resolve_budget(budget)
    algebra = ConvAlgebra(lat, cyclic_group(2))
    name = instance or f"|L|={lat.size}"

    v = check_equation(_associativity_law(), algebra, budget=budget, two_valued=False)
    associative = v.is_valid

    meet, join = lat.meet_np, lat.join_np
    distributive = all(  # [a, b, c]: a /\ (b \/ c) = (a /\ b) \/ (a /\ c)
        (meet[rows, join] == join[meet[rows, :, None], meet[rows, None]]).all()
        for rows in _blocks(lat.size, lat.size ** 2))

    stats = {"assignments": v.tried, "associative": associative,
             "distributive": distributive}
    counterexample = None if associative else {"assignment": _describe_assignment(v.assignment)}
    failures = []
    if not v.decided:
        stats["verdict"] = v.status
    elif associative != distributive:
        failures.append({"associative": associative, "distributive": distributive,
                         "counterexample": counterexample})
    elif counterexample is not None:
        stats["counterexample"] = counterexample
    return Report.of("z2-associativity", name, failures, stats, asserted=v.decided)


# -- relation-algebra axioms over group convolutions ----------------------------


@cache
def _relation_algebra_laws() -> tuple:
    """(label, Equation) of axioms 1-7, and the three bounds (x, y), x <= y,
    of each De Morgan scan, by whether the first uses c'' (else c'), with
    one plan of their sides; built once per process."""
    semi, conv, unit = _op("*"), _op("conv"), RelOp("id", ())
    a, b, c = Var("a"), Var("b"), Var("c")
    equations = (
        ("1:associative", Equation(semi(a, semi(b, c)), semi(semi(a, b), c))),
        ("2:right-unit", Equation(semi(a, unit), a)),
        ("2:left-unit", Equation(semi(unit, a), a)),
        ("3:left-additive", Equation(semi(Join(a, b), c), Join(semi(a, c), semi(b, c)))),
        ("3:right-additive", Equation(semi(a, Join(b, c)), Join(semi(a, b), semi(a, c)))),
        ("4:involution", Equation(conv(conv(a)), a)),
        ("5:converse-join", Equation(conv(Join(a, b)), Join(conv(a), conv(b)))),
        ("6:converse-product", Equation(conv(semi(a, b)), semi(conv(b), conv(a)))),
        ("7:triangle", Equation(Join(semi(conv(a), Neg(semi(a, b))), Neg(b)), Neg(b))),
    )
    scans = []
    for negneg in (False, True):
        bounds = ((semi(a, b), Neg(Neg(c)) if negneg else c),
                  (semi(conv(a), Neg(c)), Neg(b)), (semi(Neg(c), conv(b)), Neg(a)))
        scans.append((bounds, _Plan(*(side for bound in bounds for side in bound))))
    return equations, tuple(scans)


def _expect_group_signature(structure: RelStructure):
    names = [s.name for s in structure.signature.rel_specs]
    if names != ["*", "conv", "id"]:
        raise SignatureMismatch(
            f"expected a group structure with relations ['*', 'conv', 'id'], got {names}")


def check_relation_algebra(lat: FiniteLattice, group: RelStructure,
                           budget: int | None = None, seed: int = 0,
                           instance: str | None = None) -> Report:
    """Relation-algebra style axioms for the convolved group operations.

    Axioms 1-7 and the double-negation form of De Morgan's law must hold
    over any distributive lattice; the original De Morgan form must hold
    exactly when the lattice is Boolean.  Checks are exhaustive within
    budget.  Beyond it, check_equation decides laws 1-7 on tables of
    irreducible generators when they fit (stats ``reduced_laws``): laws
    1-6 are linear in every variable, and law 7, conv(a);-(a;b) v -b = -b,
    ranges over the carrier in a and over the generators in b.  Each
    De Morgan scan compares three bounds, each decided below a and b, so
    it runs over generator pairs (a, b) and the carrier in c, the grid of
    terms._bounded_below, when the whole grid does not fit; it needs
    join-mode relations over an unordered algebra, which the checker
    builds.  What fits in neither way is seeded-sampled, and a sampled
    scan that finds no witness to the original form does not decide that
    it holds, so it reports ``original_de_morgan_holds`` as None.
    """
    cap = resolve_budget(budget)
    if not lat.is_distributive:
        raise NotHeyting("the axioms use the pseudocomplement")
    _expect_group_signature(group)
    algebra = ConvAlgebra(lat, group)
    name = instance or f"|L|={lat.size},|G|={group.carrier_size}"
    equations, scans = _relation_algebra_laws()
    failures, stats = _eq_verdicts(algebra, equations, seed=seed, budget=cap)

    def below(x, y):
        """Whether x <= y at every point, for value arrays that broadcast:
        the number of points at which y is above x, a float32 product of
        x's up-set indicators and y's one-hot rows over (point, element)
        pairs, is |X|; exact below 2^24 points."""
        up = lat.leq[x].reshape(x.shape[:-1] + (-1,)).astype(np.float32)
        hot = (y[..., None] == np.arange(lat.size)).reshape(y.shape[:-1] + (-1,))
        return np.einsum("...k,...k->...", up, hot.astype(np.float32)) == x.shape[-1]

    def triple_agreement(first_uses_negneg: bool):
        """Scan the three-way equivalence of De Morgan's inequalities
        a;b <= c'' (c' in the original form), conv(a);-c <= -b and
        -c;conv(b) <= -a, over the grid of _bounded_below when the full
        one is over the budget."""
        bounds, plan = scans[first_uses_negneg]

        def truths(*triple):
            values = plan.run(algebra, dict(zip(names, triple)))
            return [below(x, y) for x, y in zip(values[::2], values[1::2])]

        def broken(*triple):
            one, two, three = truths(*triple)
            return (one != two) | (two != three)

        names = ["a", "b", "c"]
        total, triples, path = _assignments(algebra, 3, "auto", cap, seed=seed)
        # over generators, c leads, so that each chunk holds whole axes of
        # a and b, and each bound runs once over its own sub-grid
        if path == "samples" and (
                tables := _bounded_below(algebra, bounds, ["c", "a", "b"], cap)) is not None:
            names, path = ["c", "a", "b"], "grid"
            total, triples = _grid(algebra, 3, None, tables)
        how = "sampled" if path == "samples" else "exhaustive"
        position, found = _first_failure(total, algebra, triples, broken)
        if position is None:
            return None, how
        found = dict(zip(names, found))
        return {**{name: _labels(lat, found[name]) for name in "abc"},
                "bounds": [bool(x) for x in truths(*found.values())]}, how

    witness8p, how8p = triple_agreement(first_uses_negneg=True)
    stats["de_morgan_scan"] = how8p
    if witness8p is not None:
        failures.append({"law": "8':modified-de-morgan", **witness8p})

    witness8, how8 = triple_agreement(first_uses_negneg=False)
    original_holds = None if witness8 is None and how8 == "sampled" else witness8 is None
    stats["original_de_morgan_holds"] = original_holds
    stats["lattice_boolean"] = lat.is_boolean
    if original_holds is not None and original_holds != lat.is_boolean:
        failures.append({"law": "8:original-de-morgan",
                         "holds": original_holds,
                         "boolean": lat.is_boolean, "witness": witness8})
    elif witness8 is not None:
        stats["de_morgan_witness"] = witness8

    return Report.of("relation-algebra", name, failures, stats)


# -- residuation over group convolutions ----------------------------------------


def check_residuation(lat: FiniteLattice, group: RelStructure,
                      budget: int | None = None,
                      instance: str | None = None) -> Report:
    """Residuals of the convolved product and their laws, over code tables.

    a\\b is the join of {c : a;c <= b} and b/a the join of {c : c;a <= b};
    both are computed for every pair at once, as a join-fold over the
    carrier masked by the product table and the pointwise order of codes.
    The checker verifies the residuation law (one comparison over all
    triples), the description of the residuals at the complement of the
    unit, the double-negation identity, and that collapsing to the identity
    happens exactly for Boolean lattices.  The first failure in carrier
    order is reported, with the number of elements that passed before it.
    The residuals and the law compare every triple of the carrier, so a
    carrier of q elements with q^3 over the budget leaves the laws
    unchecked: the report is "observed", with q and the budget in its stats.
    """
    cap = resolve_budget(budget)
    if not lat.is_distributive:
        raise NotHeyting("residuation checks use the pseudocomplement")
    _expect_group_signature(group)
    algebra = ConvAlgebra(lat, group)
    name = instance or f"|L|={lat.size},|G|={group.carrier_size}"
    if algebra.space_size() ** 3 > cap:
        return Report.of("residuation", name, [],
                         {"elements": algebra.space_size(), "budget": cap}, asserted=False)
    codes = algebra.carrier_codes(cap)
    rows = algebra._decode(codes)
    leq = lat.leq[rows[:, None], rows[None, :]].all(axis=-1)
    product_table = algebra._table(group.relation("*"))
    join, neg = algebra._table("join"), algebra._table("neg")
    converse = algebra._table(group.relation("conv"))
    unit = algebra._table(group.relation("id"))[()]
    zero_prime = neg[unit]

    def residuals(products):
        """fits[x, y, c]: products[x, c] <= y; and the join of those c."""
        fits = leq[products[:, None, :], codes[:, None]]
        bot = algebra._encode(algebra.bot()._np)
        return fits, _masked_fold(join, bot, codes, np.moveaxis(fits, -1, 0))

    fits, over = residuals(product_table)  # over[a, b] = a\\b
    _, under = residuals(product_table.T)  # under[a, b] = b/a
    neg_conv = neg[converse]
    nn = neg[neg]
    left = over[under[:, zero_prime], zero_prime]
    right = under[over[:, zero_prime], zero_prime]
    at_complement = (over[:, zero_prime] == neg_conv) & (neg_conv == under[:, zero_prime])
    double_negation = (left == nn) & (nn == right)
    bad = np.flatnonzero(~(at_complement & double_negation & (over[unit] == codes)))
    if bad.size:
        a = int(bad[0])
        if not at_complement[a]:
            witness = {"law": "residual-at-unit-complement",
                       "a": _code_labels(algebra, a),
                       "a\\0'": _code_labels(algebra, over[a, zero_prime]),
                       "0'/a": _code_labels(algebra, under[a, zero_prime]),
                       "neg(conv(a))": _code_labels(algebra, neg_conv[a])}
        elif not double_negation[a]:
            witness = {"law": "double-negation", "a": _code_labels(algebra, a),
                       "(0'/a)\\0'": _code_labels(algebra, left[a]),
                       "negneg": _code_labels(algebra, nn[a])}
        else:  # unit law: 1' \\ a = a
            witness = {"law": "unit", "a": _code_labels(algebra, a)}
        return Report.of("residuation", name, [witness], {"checked": a})

    checked = len(codes)
    uncollapsed = np.flatnonzero(left != codes)
    collapses = not uncollapsed.size
    if collapses != lat.is_boolean:
        return Report.of("residuation", name,
                         [{"law": "gbi-collapse", "collapses": collapses,
                           "boolean": lat.is_boolean}], {"checked": checked})

    # a;c <= b iff c <= a\\b, for every triple (a, b, c)
    broken = np.flatnonzero(fits != leq[codes, over[..., None]])
    if broken.size:
        a, b, c = np.unravel_index(broken[0], fits.shape)
        return Report.of("residuation", name, [{
            "law": "residuation", "a": _code_labels(algebra, a),
            "b": _code_labels(algebra, b), "c": _code_labels(algebra, c)}], {"checked": checked})
    stats = {"elements": checked, "collapses_to_identity": collapses,
             "boolean": lat.is_boolean}
    if not collapses:
        stats["collapse_witness"] = _code_labels(algebra, uncollapsed[0])
    return Report.of("residuation", name, [], stats)


# -- equation transfer -----------------------------------------------------------


def _transfer(algebra, pool, budget, seed, reference=(), agree=None):
    """Decide each law of ``pool`` over ``algebra``, never on 2^X.  Returns
    the verdicts, the assignments they tried, and (label, equation,
    verdict, reference verdict, counterexample) for each law on which
    ``agree(valid, valid in reference)`` fails; that counts only between
    decided verdicts, not against a sampled validity.  The counterexample
    is {"assignment": ...} when the verdict refutes the law, else {}."""
    verdicts = [check_equation(eq, algebra, budget=budget, seed=seed, two_valued=False)
                for _, eq in pool]
    broken = [(label, eq, v, r, {} if v.is_valid else
               {"assignment": _describe_assignment(v.assignment)})
              for (label, eq), v, r in zip(pool, verdicts, reference)
              if v.decided and r.decided and not agree(v.is_valid, r.is_valid)]
    return verdicts, sum(v.tried for v in verdicts), broken


def check_equation_transfer(lattices, structure: RelStructure, pool,
                            budget: int | None = None, seed: int = 0,
                            instance: str | None = None) -> Report:
    """Verdicts over L^X against the two-element base and the subset algebra.

    pool is a list of (label, Equation) in the negation-free fragment.
    Distributive lattices must agree with the base exactly; other lattices
    are only required to transfer validity downward (valid in L^X implies
    valid over subsets).  Each comparison is one _transfer.
    """
    budget = resolve_budget(budget)
    lattices = list(lattices)
    name = instance or f"|X|={structure.carrier_size},pool={len(pool)}"
    for label, eq in pool:
        if eq.uses_heyting():
            raise NotHeyting(f"equation {label!r} leaves the negation-free fragment")
    subsets, tried, _ = _transfer(SubsetAlgebra(structure), pool, budget, seed)
    base, n, broken = _transfer(ConvAlgebra(_TWO, structure), pool, budget, seed,
                                subsets, operator.eq)
    tried += n
    failures = [{"equation": label, "lattice": "2", "base": v.status, "subsets": r.status}
                for label, _, v, r, _ in broken]
    for lat in lattices:
        _, n, broken = _transfer(ConvAlgebra(lat, structure), pool, budget, seed, base,
                                 operator.eq if lat.is_distributive else operator.le)
        tried += n
        failures += [{"equation": label, "text": str(eq), "lattice_size": lat.size,
                      "over_L": v.status, "over_2": r.status, **witness}
                     for label, eq, v, r, witness in broken]
    return Report.of("equation-transfer", name, failures,
                     {"assignments": tried, "lattices": len(lattices),
                      "equations": len(pool)})


def check_type2_transfer(lattice: FiniteLattice, structure: RelStructure, pool,
                         budget: int | None = None, seed: int = 0,
                         instance: str | None = None) -> Report:
    """Verdicts over L^X against the subset algebra, which must agree
    exactly, in one _transfer: pool is a list of (label, Equation)."""
    budget = resolve_budget(budget)
    name = instance or f"|L|={lattice.size},|X|={structure.carrier_size}"
    subsets, tried, _ = _transfer(SubsetAlgebra(structure), pool, budget, seed)
    verdicts, n, broken = _transfer(ConvAlgebra(lattice, structure), pool, budget, seed,
                                    subsets, operator.eq)
    failures = [{"equation": label, "convolution": v.status, "subsets": r.status, **witness}
                for label, _, v, r, witness in broken]
    return Report.of("type2-transfer", name, failures,
                     {"assignments": tried + n, "equations": len(pool),
                      **_law_counts(verdicts), "seed": seed})


# -- homomorphisms between algebras ------------------------------------------------


def _homomorphism_witness(dom: ConvAlgebra, images: np.ndarray, cod):
    """Whether the map sending the element of an unordered ``dom`` coded c
    to the value row ``images[c]`` of ``cod`` is a homomorphism.

    The ``dom`` side is read from its code tables, the ``cod`` side is
    computed by ``cod``'s own batched operations, once per operation over
    the images broadcast on one axis per argument, so a comparison holds
    q^arity x |X| values, q = |dom|.  Bounds come first, then meets and
    joins over pairs, then each relation over argument tuples, in
    ``product`` order, which is C order.  Returns (witness, checked,
    sides): the first failure or None, the pairs and tuples compared up
    to it, and the value rows of both sides of a failed operation.
    """
    def differ(table, value):
        return (images[table] != value).any(axis=-1)

    def axes(arity):  # the images of argument m on axis m
        return [images.reshape((1,) * m + (-1,) + (1,) * (arity - 1 - m) + images.shape[1:])
                for m in range(arity)]

    def first(bad):
        # The first tuple where ``bad`` holds, and the tuples up to it.
        hits = np.flatnonzero(bad)
        if not hits.size:
            return None, bad.size
        return tuple(map(int, np.unravel_index(hits[0], bad.shape))), int(hits[0]) + 1

    if not all(np.array_equal(images[dom._encode(dom._row(d))], cod._row(c))
               for d, c in ((dom.bot(), cod.bot()), (dom.top(), cod.top()))):
        return {"kind": "bounds"}, 0, None
    a, b = axes(2)
    meets = differ(dom._table("meet"), cod._meet(a, b))
    pair, checked = first(meets | differ(dom._table("join"), cod._join(a, b)))
    if pair is not None:
        return ({"kind": "meet" if meets[pair] else "join",
                 "f": _code_labels(dom, pair[0]), "g": _code_labels(dom, pair[1])},
                checked, None)
    for i, spec in enumerate(dom.structure.signature.rel_specs):
        table, j = dom._table(i), cod.structure.relation(spec.name)
        args, count = first(differ(table, cod._eval(j, axes(spec.arity))))
        checked += count
        if args is not None:
            return ({"kind": "operation", "relation": spec.name,
                     "args": [_code_labels(dom, c) for c in args]}, checked,
                    (images[table[args]], cod._eval(j, [images[c] for c in args])))
    return None, checked, None


def check_subset_isomorphism(structure: RelStructure,
                             instance: str | None = None) -> Report:
    """The top-set map is a bijective homomorphism from the two-element
    convolution algebra onto the subset algebra, for every relation mode,
    as one claim row of _claim_witness: ``iso_phi`` once per element, each
    image coded by its members' bits, the subset side by the subset
    algebra's own relational images (``checked`` counts the comparisons)."""
    name = instance or repr(structure)
    algebra, subsets = ConvAlgebra(_TWO, structure), SubsetAlgebra(structure)
    codes = np.array([sum(1 << x for x in iso_phi(f)) for f in algebra.elements()])
    witness, checked, sides = _claim_witness(algebra, codes, subsets, True, True)
    if sides is not None:
        witness["function_side"], witness["subset_side"] = (
            np.flatnonzero(side).tolist() for side in sides)
    elif witness is not None:  # bijectivity, bounds, meet or join, with no count
        return Report.of("subset-iso", name, [
            {"kind": "not a bijection"} if witness["kind"] == "one-one/onto" else witness], {})
    return Report.of("subset-iso", name, [witness] if witness else [], {"checked": checked})


# -- functorial behaviour ----------------------------------------------------------


def _codes(algebra: ConvAlgebra, functions) -> np.ndarray:
    """The codes in ``algebra`` of LFunctions over its lattice."""
    return algebra._encode(np.array([f.values for f in functions], dtype=np.int64))


def _claim_witness(dom: ConvAlgebra, codes: np.ndarray, cod: ConvAlgebra | SubsetAlgebra,
                   one_one: bool | None, onto: bool | None):
    """The first failure of the claim that the map sending the element of
    an unordered ``dom`` coded c to the one of ``cod``, an unordered
    convolution or subset algebra, coded ``codes[c]`` is one-one and onto
    where claimed (True or False, or None for not claimed), decided first
    from the counts of the codes (a code past ``cod``'s last leaves one at
    zero), and a homomorphism: (witness, checked, sides), as from
    _homomorphism_witness, or nothing checked before a one-one/onto one."""
    hits = np.bincount(codes, minlength=cod.space_size())
    found = bool(hits.max() <= 1), bool(hits.all())
    if any(c not in (None, f) for c, f in zip((one_one, onto), found)):
        return {"kind": "one-one/onto", "one_one": found[0], "onto": found[1]}, 0, None
    return _homomorphism_witness(dom, cod._decode(codes), cod)


def _split_claims(algebra: ConvAlgebra, first: ConvAlgebra, second: ConvAlgebra):
    """``product_iso`` on an algebra over ``first``'s lattice times
    ``second``'s is a homomorphism onto each factor's algebra, one-one only
    when the other is trivial, and ``product_iso_inv`` merges it back."""
    carrier = algebra.carrier_list()
    split = [product_iso(alpha) for alpha in carrier]
    merged = _codes(algebra, (product_iso_inv(b, c, algebra.lattice) for b, c in split))
    bad = np.flatnonzero(merged != algebra.carrier_codes())
    witness = {"kind": "split-merge", "alpha": carrier[bad[0]].labels()} if bad.size else None
    return witness, [(algebra, _codes(factor, (parts[k] for parts in split)), factor,
                      algebra.space_size() == factor.space_size(), True)
                     for k, factor in enumerate((first, second))]


def _lift_claims(phi, dom: ConvAlgebra, cod: ConvAlgebra):
    """Lifting ``phi``, a lattice morphism between the algebras' lattices,
    is a homomorphism, one-one and onto exactly when phi is."""
    ok, detail = is_lattice_morphism(phi, dom.lattice, cod.lattice)
    if not ok:
        return {"kind": "validation", "detail": detail}, []
    codes = _codes(cod, (lift_lattice_morphism(phi, cod.lattice, alpha, validate=False)
                         for alpha in dom.elements()))
    image = len(set(phi)) ** dom.structure.carrier_size  # the maps into phi's image
    return None, [(dom, codes, cod, image == dom.space_size(), image == cod.space_size())]


def _pullback_claims(p, dom: ConvAlgebra, cod: ConvAlgebra):
    """Pulling back along ``p``, a p-morphism from ``cod``'s structure to
    ``dom``'s, is a homomorphism, one-one exactly when p is onto and onto
    exactly when p is one-one (both, over a one-element lattice)."""
    ok, detail = is_p_morphism(p, cod.structure, dom.structure)
    if not ok:
        return {"kind": "p-morphism validation", "detail": detail}, []
    codes = _codes(cod, (pullback_pmorphism(p, cod.structure, dom.structure, beta, validate=False)
                         for beta in dom.elements()))
    image = dom.lattice.size ** len(set(p))  # the maps constant on p's fibres
    return None, [(dom, codes, cod, image == dom.space_size(), image == cod.space_size())]


def _decided(claims: list) -> dict:
    """{subcheck: witness} for the (subcheck, built) pairs of ``claims``,
    ``built`` listing a (witness, rows) per map: the first witness met in
    building a map, such as a failed validation, or found by _claim_witness
    on one of its claim rows; None when there is none."""
    return {label: next((w for witness, rows in built for w in chain(
        [witness], (_claim_witness(*row)[0] for row in rows)) if w), None)
        for label, built in claims}


def _fixed_claims() -> list:
    """(subcheck, built) of the claims of check_structural_isos that read
    no lattice given to it, with one algebra per (lattice, structure)."""
    two, z2, algebra = _TWO, cyclic_group(2), cache(ConvAlgebra)
    chain3 = build_lattice(["0", "m", "1"], [("0", "m"), ("m", "1")])

    def lifts(*maps):
        return [_lift_claims(phi, algebra(dom, z2), algebra(cod, z2)) for phi, dom, cod in maps]
    return [("product-split", [_split_claims(algebra(two.product(two), z2),
                                             algebra(two, z2), algebra(two, z2))]),
            ("morphism-lift", lifts(([0, 1, 1], chain3, two))),
            ("one-one-onto", lifts(([0, 2], two, chain3), ([0, 0, 1], chain3, two),
                                   ([0, 1, 2], chain3, chain3), ([0, 0, 2], chain3, chain3)))]


@cache
def _fixed_witnesses() -> dict:
    """_decided on _fixed_claims, built and decided once per process."""
    return _decided(_fixed_claims())


def _lattice_claims(lat: FiniteLattice) -> list:
    """(subcheck, built) of the claims of check_structural_isos over ``lat``."""
    frame_sig = signature(("f", 1, JOIN))
    fx = RelStructure(1, frame_sig, [{(0, 0)}])
    fy = RelStructure(2, frame_sig, [{(0, 1), (1, 1)}])
    union = ConvAlgebra(lat, disjoint_union(fx, fy))
    # a function is its values on the blocks, so the pair of restrictions
    # is one-one: the union's algebra is the product of the blocks'
    rows, cut = union._decode(union.carrier_codes()), fx.carrier_size
    blocks = [(ConvAlgebra(lat, fx), rows[:, :cut]), (ConvAlgebra(lat, fy), rows[:, cut:])]
    z4, z2 = (RelStructure(g.carrier_size, Signature(g.signature.rel_specs[:2]), g.relations[:2])
              for g in map(cyclic_group, (4, 2)))  # their * and conv
    return [("coproduct-to-product", [(None, [(union, block._encode(part), block, None, True)
                                              for block, part in blocks])]),
            ("pmorphism-pullback", [_pullback_claims([0, 1, 0, 1], ConvAlgebra(lat, z2),
                                                     ConvAlgebra(lat, z4))])]


def check_structural_isos(lattice: FiniteLattice | None = None,
                          instance: str | None = None) -> Report:
    """Functorial behaviour on fixed small instances: each claim on a map
    is decided as _decided says, those of _fixed_claims once per process,
    and order-preserving carriers are closed under every operation.  The
    tests sweep the claim builders over more maps."""
    lat = lattice if lattice is not None else build_lattice(
        ["0", "m", "1"], [("0", "m"), ("m", "1")])
    name = instance or f"|L|={lat.size}"
    found = {**_fixed_witnesses(), **_decided(_lattice_claims(lat))}
    subchecks = {label: found[label] for label in (
        "product-split", "coproduct-to-product", "morphism-lift", "one-one-onto",
        "pmorphism-pullback")}

    # Ordered structures: operation images are order preserving and the
    # order-preserving carrier is closed under everything.
    ordered = build_structure(2, signature(("dia", 1, JOIN), ("box", 1, MEET)), [
        {(0, 0), (0, 1), (1, 1)}, {(0, 0), (1, 0), (1, 1)}], order_pairs=[(0, 1)])  # up, down
    plain = ConvAlgebra(lat, ordered)
    restricted = ConvAlgebra(lat, ordered, ordered=True)
    rels = ("dia", "box")
    rows = plain._decode(plain.carrier_codes())
    # [alpha, r]: whether the image of alpha under rels[r] is order preserving
    bad = np.argwhere(~np.stack([plain._monotone_rows(plain._eval(r, [rows]))
                                 for r in map(ordered.relation, rels)], axis=-1))
    codes = restricted.carrier_codes()
    if len(bad):
        witness = {"kind": "image-not-monotone", "relation": rels[bad[0][1]],
                   "alpha": _labels(lat, rows[bad[0][0]])}
    elif not all(np.isin(restricted._table(op)[np.ix_(codes, codes)], codes).all()
                 for op in ("meet", "join")):
        witness = {"kind": "carrier-not-closed"}
    else:
        # [alpha, r]: whether rels[r] maps the carrier's alpha into the carrier
        bad = np.argwhere(~np.stack([np.isin(restricted._table(r)[codes], codes)
                                     for r in map(ordered.relation, rels)], axis=-1))
        witness = {"kind": "carrier-not-closed", "relation": rels[bad[0][1]]} if len(bad) else None
    subchecks["ordered-closure"] = witness

    failures = [{"subcheck": label, "witness": w}
                for label, w in subchecks.items() if w is not None]
    return Report.of("structural-isos", name, failures, {"subchecks": list(subchecks)})


def default_equation_pool(sig) -> list:
    """Negation-free candidate equations (valid and invalid) for a signature:
    the lattice laws, then each relation's, built once per process."""
    return [law for key in [(None, 0, None), *((s.name, s.arity, s.mode) for s in sig.rel_specs)]
            for law in _pool_laws(*key)]


@cache
def _pool_laws(f: str | None, arity: int, mode: str | None) -> tuple:
    """The (label, Equation) pairs of default_equation_pool for a relation
    ``f`` of ``arity`` and ``mode``, or for the lattice when ``f`` is None."""
    x, y = Var("x"), Var("y")
    if f is None:
        return (
            ("meet-commutes", Equation(Meet(x, y), Meet(y, x))),
            ("join-commutes", Equation(Join(x, y), Join(y, x))),
            ("absorb-mj", Equation(Meet(x, Join(x, y)), x)),
            ("absorb-jm", Equation(Join(x, Meet(x, y)), x)),
            ("meet-idem", Equation(Meet(x, x), x)),
            ("join-idem", Equation(Join(x, x), x)),
            ("meet-top", Equation(Meet(x, Top()), x)),
            ("join-bot", Equation(Join(x, Bot()), x)),
        )

    op = _op(f)
    if arity == 1 and mode == JOIN:
        return (
            (f"{f}-additive", Equation(op(Join(x, y)), Join(op(x), op(y)))),
            (f"{f}-zero", Equation(op(Bot()), Bot())),
            (f"{f}-meet-hom", Equation(op(Meet(x, y)), Meet(op(x), op(y)))),
            (f"{f}-increasing", Equation(Join(x, op(x)), op(x))),
            (f"{f}-idempotent", Equation(op(op(x)), op(x))),
        )
    if arity == 1 and mode == MEET:
        return (
            (f"{f}-multiplicative", Equation(op(Meet(x, y)), Meet(op(x), op(y)))),
            (f"{f}-one", Equation(op(Top()), Top())),
            (f"{f}-join-hom", Equation(op(Join(x, y)), Join(op(x), op(y)))),
            (f"{f}-decreasing", Equation(Meet(x, op(x)), op(x))),
        )
    if arity == 2 and mode == JOIN:
        return (
            (f"{f}-left-additive",
             Equation(op(Join(x, y), y), Join(op(x, y), op(y, y)))),
            (f"{f}-left-zero", Equation(op(Bot(), x), Bot())),
            (f"{f}-right-zero", Equation(op(x, Bot()), Bot())),
            (f"{f}-commutes", Equation(op(x, y), op(y, x))),
            (f"{f}-left-meet-hom",
             Equation(op(Meet(x, y), y), Meet(op(x, y), op(y, y)))),
        )
    if arity == 2 and mode == MEET:
        return (
            (f"{f}-left-multiplicative",
             Equation(op(Meet(x, y), y), Meet(op(x, y), op(y, y)))),
            (f"{f}-left-one", Equation(op(Top(), x), Top())),
            (f"{f}-commutes", Equation(op(x, y), op(y, x))),
        )
    if arity == 0:
        mark = op()
        return (
            (f"{f}-join-idem", Equation(Join(mark, mark), mark)),
            (f"{f}-meet-top", Equation(Meet(mark, Top()), mark)),
        )
    return ()


@cache
def type2_equation_pool() -> tuple:
    """The (label, Equation) pairs of the truth-value grid laws, built once
    per process."""
    x, y, z = Var("x"), Var("y"), Var("z")
    cap, cup, star = _op("min"), _op("max"), _op("neg")
    one0, one1 = RelOp("c0", ()), RelOp("c1", ())
    return (
        ("cap-commutes", Equation(cap(x, y), cap(y, x))),
        ("cup-commutes", Equation(cup(x, y), cup(y, x))),
        ("cap-assoc", Equation(cap(cap(x, y), z), cap(x, cap(y, z)))),
        ("cup-assoc", Equation(cup(cup(x, y), z), cup(x, cup(y, z)))),
        ("cap-idem", Equation(cap(x, x), x)),
        ("cup-idem", Equation(cup(x, x), x)),
        ("star-involution", Equation(star(star(x)), x)),
        ("de-morgan", Equation(star(cap(x, y)), cup(star(x), star(y)))),
        ("cup-unit", Equation(cup(x, one0), x)),
        ("cap-unit", Equation(cap(x, one1), x)),
        ("absorption", Equation(cap(x, cup(x, y)), x)),
        ("cap-absorbing", Equation(cap(x, one0), one0)),
    )
