"""Mechanical verifiers for the workbench's structural laws.

Each checker returns a Report: status "pass" or "fail" with a concrete
finite witness on failure.  Checkers only assert laws under their
hypotheses (typically a distributive lattice); outside them they run the
same computation and report status "observed" without asserting.

Checkers state laws; check_equation decides how each equation is checked.
Budgets: a check is exhaustive when its assignment space fits the budget
(default 10^6 evaluations), an equation may then run exactly over the
irreducible generators, and otherwise the check falls back to seeded
sampling, recording that downgrade in its stats.  A sampled validity
proves nothing, so no checker reports "fail" on one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import product

import numpy as np

from .convolution import (DEFAULT_BUDGET, ConvAlgebra, SubsetAlgebra,
                          is_lattice_morphism, iso_phi,
                          lift_lattice_morphism, product_iso,
                          product_iso_inv, pullback_pmorphism)
from .errors import NotHeyting, SignatureMismatch
from .lattice import FiniteLattice, build_lattice
from .structures import (JOIN, MEET, RelStructure, build_structure,
                         disjoint_union, from_group, full_structure,
                         is_p_morphism, signature)
from .terms import (Bot, Equation, Join, Meet, Neg, RelOp, Top, Var,
                    _assignments, _first_failure, _grid, check_equation,
                    describe_element)


@dataclass
class Report:
    checker: str
    instance: str
    status: str  # "pass" | "fail" | "observed"
    witness: object = None
    stats: dict = field(default_factory=dict)

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


def _chain2() -> FiniteLattice:
    return build_lattice(["0", "1"], [("0", "1")])


def _z2_structure() -> RelStructure:
    return from_group([[0, 1], [1, 0]])


def _labels(lat: FiniteLattice, row) -> list[str]:
    return [lat.labels[v] for v in row]


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
    """The stats counting ``sampled_laws``, the verdicts drawn from
    samples, and ``reduced_laws``, those decided over the irreducible
    generators, the latter only when there are any."""
    stats = {"sampled_laws": sum(v.samples is not None for v in verdicts)}
    reduced = sum(v.generators is not None for v in verdicts)
    if reduced:
        stats["reduced_laws"] = reduced
    return stats


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


def check_operator(algebra: ConvAlgebra, rel, budget: int | None = None,
                   seed: int = 0, instance: str | None = None) -> Report:
    """Additivity (join relations) or multiplicativity (meet relations).

    For each argument position the binary law and the empty-family law are
    checked over all assignments; on a finite lattice those two together
    give complete additivity.  Over a distributive lattice the complete
    law is also decided exhaustively from the join-irreducibles of the
    carrier (see _complete_law), when that fits the budget; outside it
    the binary and empty laws are the whole check.
    """
    cap = DEFAULT_BUDGET if budget is None else budget
    i = algebra.structure.relation(rel)
    spec = algebra.structure.signature.rel_specs[i]
    additive = spec.mode == JOIN
    name = instance or f"{spec.name}:{spec.arity}{'+' if additive else '-'}"
    hypothesis = algebra.lattice.is_distributive

    comb, unit = (Join, Bot()) if additive else (Meet, Top())

    def at(k, arg):  # the operation with argument k set to ``arg``, z_j elsewhere
        return RelOp(spec.name, tuple(arg if j == k else Var(f"z{j}")
                                      for j in range(spec.arity)))
    x, y = Var("x"), Var("y")
    equations = [law for k in range(spec.arity) for law in (
        (f"binary@{k}", Equation(at(k, comb(x, y)), comb(at(k, x), at(k, y)))),
        (f"empty@{k}", Equation(at(k, unit), unit)))]
    failures, stats = _eq_verdicts(algebra, equations, seed=seed, budget=cap)
    stats["positions"] = spec.arity

    if spec.arity == 0:
        stats["note"] = "nullary operation, laws hold vacuously"
    elif hypothesis:
        stats["complete_law"], witness = _complete_law(algebra, i, cap)
        if witness is not None:
            failures.append(witness)

    status = "pass" if not failures else "fail"
    if not hypothesis:
        status = "observed"
        stats["laws_hold"] = not failures
    return Report("operator", name, status,
                  witness=failures[0] if failures else None, stats=stats)


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
    """
    cap = DEFAULT_BUDGET if budget is None else budget
    i = algebra.structure.relation(rel)
    spec = algebra.structure.signature.rel_specs[i]
    name = instance or f"{spec.name}:{spec.arity}"
    lat = algebra.lattice
    n_car = algebra.structure.carrier_size
    joinish = spec.mode == JOIN
    if spec.arity == 0:
        return Report("finite-support", name, "pass",
                      stats={"note": "nullary operation, no arguments"})

    k = spec.arity
    rng = random.Random(seed)
    total, rows, sampling = _assignments(algebra, k, "auto", cap, min(2000, cap), rng)
    side = lat.meet_np if joinish else lat.join_np
    fill = lat.bottom if joinish else lat.top
    fold = lat.join_np if joinish else lat.meet_np
    points = np.arange(n_car)

    def with_comparands(start, stop):
        args = rows(start, stop)
        drawn = algebra._draw_rows(rng, (stop - start) * k).reshape(stop - start, k, n_car)
        return args + [side[a, r] for a, r in zip(args, drawn.swapaxes(0, 1))]

    def outputs(args):
        """The output on ``args`` and the fold of the outputs on their deltas."""
        lhs = algebra._eval(i, args)
        rhs = np.full_like(lhs, fill)
        for xs in product(range(n_car), repeat=k):
            deltas = [np.where(points == x, a, fill) for a, x in zip(args, xs)]
            rhs = fold[rhs, algebra._eval(i, deltas)]
        return lhs, rhs

    def broken(*args_and_comparands):
        lhs, rhs = outputs(args_and_comparands[:k])
        out = algebra._eval(i, args_and_comparands[k:])
        sided = (lat.leq[out, lhs] if joinish else lat.leq[lhs, out]).all(axis=-1)
        return (lhs != rhs).any(axis=-1) | ~sided

    position, found = _first_failure(total, algebra, with_comparands, broken)
    witness = None
    if position is not None:
        args, bent = found[:k], found[k:]
        lhs, rhs = outputs(args)
        witness = {"args": [_labels(lat, a) for a in args]}
        if (lhs != rhs).any():
            witness.update(output=_labels(lat, lhs), delta_fold=_labels(lat, rhs))
        else:
            witness["comparand"] = [_labels(lat, b) for b in bent]
    status = "pass" if witness is None else "fail"
    return Report("finite-support", name, status, witness=witness,
                  stats={"tuples": total if position is None else position + 1,
                         "mode": "sampled" if sampling else "exhaustive",
                         "form": "delta-join" if joinish else "delta-meet"})


# -- closure / interior correspondence ----------------------------------------


def _relation_scan(structure: RelStructure, i: int = 0):
    rel = structure.relations[i]
    n = structure.carrier_size
    reflexive = all((x, x) in rel for x in range(n))
    transitive = all((a, c) in rel
                     for (a, b) in rel for (b2, c) in rel if b == b2)
    return reflexive, transitive


def check_closure_correspondence(lat: FiniteLattice, frame: RelStructure,
                                 budget: int | None = None,
                                 instance: str | None = None) -> Report:
    """Unary convolution is a closure operator iff the relation is a preorder.

    Both sides of each biconditional are computed independently: the
    inequalities run as equation checks over L^X, reflexivity and
    transitivity by scanning the relation.  The dual statement is checked
    three ways: the meet convolution over L, the join convolution over the
    order dual of L, and the interior laws themselves.  A sampled validity
    of an inequality is not held against a scan that says it should fail.
    """
    if not lat.is_distributive:
        raise NotHeyting("closure correspondence is stated for distributive lattices")
    if len(frame.signature) != 1 or frame.signature.rel_specs[0].arity != 1:
        raise SignatureMismatch("frame must carry exactly one binary relation")
    rname = frame.signature.rel_specs[0].name
    reflexive, transitive = _relation_scan(frame)
    name = instance or f"|X|={frame.carrier_size},R({len(frame.relations[0])})"

    def f(t):
        return RelOp(rname, (t,))

    x = Var("x")
    join_frame = RelStructure(frame.carrier_size,
                              signature((rname, 1, JOIN)), [frame.relations[0]])
    meet_frame = RelStructure(frame.carrier_size,
                              signature((rname, 1, MEET)), [frame.relations[0]])
    conv = ConvAlgebra(lat, join_frame)
    dual_conv = ConvAlgebra(lat, meet_frame)
    dual_lat_conv = ConvAlgebra(lat.dual(), join_frame)

    # a <= f(a)  /  f(f(a)) <= f(a), with x <= y encoded as x v y = y.
    checks = [
        ("reflexive/closure", conv, Equation(Join(x, f(x)), f(x)), reflexive),
        ("transitive/closure", conv, Equation(Join(f(f(x)), f(x)), f(x)), transitive),
        ("operator/join", conv,
         Equation(f(Join(x, Var("y"))), Join(f(x), f(Var("y")))), True),
        ("operator/zero", conv, Equation(f(Bot()), Bot()), True),
        ("reflexive/interior", dual_conv, Equation(Meet(x, f(x)), f(x)), reflexive),
        ("transitive/interior", dual_conv,
         Equation(Meet(f(x), f(f(x))), f(x)), transitive),
        ("dual-operator/meet", dual_conv,
         Equation(f(Meet(x, Var("y"))), Meet(f(x), f(Var("y")))), True),
        ("dual-operator/one", dual_conv, Equation(f(Top()), Top()), True),
        ("reflexive/dual-lattice", dual_lat_conv,
         Equation(Join(x, f(x)), f(x)), reflexive),
        ("transitive/dual-lattice", dual_lat_conv,
         Equation(Join(f(f(x)), f(x)), f(x)), transitive),
    ]
    tried = 0
    for label, algebra, eq, expect in checks:
        v = check_equation(eq, algebra, budget=budget)
        tried += v.tried
        if v.decided and v.is_valid != expect:
            witness = {"biconditional": label, "equation": str(eq),
                       "equation_valid": v.is_valid,
                       "relation_scan": {"reflexive": reflexive,
                                         "transitive": transitive}}
            if v.assignment is not None:
                witness["assignment"] = _describe_assignment(v.assignment)
            return Report("closure-correspondence", name, "fail",
                          witness=witness, stats={"assignments": tried})
    return Report("closure-correspondence", name, "pass",
                  stats={"assignments": tried, "reflexive": reflexive,
                         "transitive": transitive})


# -- monadic algebra -----------------------------------------------------------


def check_monadic_axioms(lat: FiniteLattice, n: int,
                         budget: int | None = None,
                         instance: str | None = None) -> Report:
    """Quantifier pair over the all-pairs relation: closure, interior, and
    the three interaction axioms.

    Also verifies the pointwise description directly, over the whole
    carrier (BudgetExceeded beyond the budget): the join convolution sends
    a function to the constant at its join, the meet convolution to the
    constant at its meet.
    """
    if not lat.is_distributive:
        raise NotHeyting("monadic axioms are stated over Heyting-capable lattices")
    structure = full_structure(n, extended=True)
    algebra = ConvAlgebra(lat, structure)
    name = instance or f"n={n}"

    def images(rows):
        return [algebra._eval(structure.relation(r), [rows]) for r in ("dia", "box")]

    def broken(rows):
        dia, box = images(rows)
        cj = reduce(lambda acc, v: lat.join_np[acc, v], rows.T, np.full(len(rows), lat.bottom))
        cm = reduce(lambda acc, v: lat.meet_np[acc, v], rows.T, np.full(len(rows), lat.top))
        return ((dia != cj[:, None]) | (box != cm[:, None])).any(axis=-1)

    cap = DEFAULT_BUDGET if budget is None else budget
    total, rows, _ = _assignments(algebra, 1, "exhaustive", cap)
    position, found = _first_failure(total, algebra, rows, broken)
    if position is not None:
        alpha, = found
        dia, box = images(alpha)
        return Report("monadic", name, "fail", stats={}, witness={
            "alpha": _labels(lat, alpha), "dia": _labels(lat, dia), "box": _labels(lat, box)})

    def dia(t):
        return RelOp("dia", (t,))

    def box(t):
        return RelOp("box", (t,))

    x, y = Var("x"), Var("y")
    equations = [
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
    ]
    failures, stats = _eq_verdicts(algebra, equations, budget=budget)
    status = "pass" if not failures else "fail"
    return Report("monadic", name, status,
                  witness=failures[0] if failures else None, stats=stats)


# -- the all-pairs frame equation ----------------------------------------------


def check_nabla_equation(lat: FiniteLattice, n: int,
                         budget: int | None = None,
                         instance: str | None = None) -> Report:
    """f(a) /\\ f(b) = f(f(a) /\\ b) over the all-pairs frame.

    Asserted valid for distributive lattices (finiteness supplies the
    frame law); for non-distributive lattices the outcome is reported
    without assertion, since the stated equivalence concerns distributive
    lattices only.
    """
    structure = full_structure(n)
    algebra = ConvAlgebra(lat, structure)
    name = instance or f"n={n}"

    def f(t):
        return RelOp("f", (t,))

    a, b = Var("a"), Var("b")
    eq = Equation(Meet(f(a), f(b)), f(Meet(f(a), b)))
    v = check_equation(eq, algebra, budget=budget)
    stats = {"assignments": v.tried, "verdict": v.status}
    if not lat.is_distributive:
        return Report("nabla-equation", name, "observed",
                      witness=None if v.is_valid
                      else {"assignment": _describe_assignment(v.assignment)},
                      stats=stats)
    if v.is_valid:
        return Report("nabla-equation", name, "pass", stats=stats)
    return Report("nabla-equation", name, "fail",
                  witness={"assignment": _describe_assignment(v.assignment)},
                  stats=stats)


# -- associativity over the two-element group -----------------------------------


def check_z2_associativity(lat: FiniteLattice, budget: int | None = None,
                           instance: str | None = None) -> Report:
    """Associativity of the convolved group operation iff distributivity.

    Both sides of the biconditional are decided independently: the
    associativity equation by check_equation, distributivity by a fresh
    triple scan of the tables.  A sampled validity proves nothing, so it
    is reported "observed", with the verdict in the stats.
    """
    algebra = ConvAlgebra(lat, _z2_structure())
    name = instance or f"|L|={lat.size}"

    def star(u, v):
        return RelOp("*", (u, v))

    x, y, z = Var("x"), Var("y"), Var("z")
    eq = Equation(star(star(x, y), z), star(x, star(y, z)))
    v = check_equation(eq, algebra, budget=budget)
    associative = v.is_valid

    meet, join = lat.meet_table, lat.join_table
    distributive = all(
        meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        for a in range(lat.size) for b in range(lat.size) for c in range(lat.size))

    stats = {"assignments": v.tried, "associative": associative,
             "distributive": distributive}
    witness = None
    if not associative:
        witness = {"assignment": _describe_assignment(v.assignment)}
    if not v.decided:
        return Report("z2-associativity", name, "observed",
                      stats={**stats, "verdict": v.status})
    if associative != distributive:
        return Report("z2-associativity", name, "fail",
                      witness={"associative": associative,
                               "distributive": distributive,
                               "counterexample": witness}, stats=stats)
    return Report("z2-associativity", name, "pass", witness=witness, stats=stats)


# -- relation-algebra axioms over group convolutions ----------------------------


def _group_terms():
    def semi(u, v):
        return RelOp("*", (u, v))

    def conv(u):
        return RelOp("conv", (u,))

    return semi, conv, RelOp("id", ())


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
    budget; beyond it, laws 1-6, which are linear in every variable, run
    exactly over the irreducible generators when those fit the budget
    (stats ``reduced_laws``), and the rest, law 7 and the De Morgan scans
    among them, are seeded-sampled.  A sampled scan that finds no witness
    to the original form does not decide that it holds.
    """
    if not lat.is_distributive:
        raise NotHeyting("the axioms use the pseudocomplement")
    _expect_group_signature(group)
    algebra = ConvAlgebra(lat, group)
    name = instance or f"|L|={lat.size},|G|={group.carrier_size}"
    semi, conv, unit = _group_terms()
    a, b, c = Var("a"), Var("b"), Var("c")

    equations = [
        ("1:associative", Equation(semi(a, semi(b, c)), semi(semi(a, b), c))),
        ("2:right-unit", Equation(semi(a, unit), a)),
        ("2:left-unit", Equation(semi(unit, a), a)),
        ("3:left-additive", Equation(semi(Join(a, b), c),
                                     Join(semi(a, c), semi(b, c)))),
        ("3:right-additive", Equation(semi(a, Join(b, c)),
                                      Join(semi(a, b), semi(a, c)))),
        ("4:involution", Equation(conv(conv(a)), a)),
        ("5:converse-join", Equation(conv(Join(a, b)), Join(conv(a), conv(b)))),
        ("6:converse-product", Equation(conv(semi(a, b)), semi(conv(b), conv(a)))),
        ("7:triangle", Equation(Join(semi(conv(a), Neg(semi(a, b))), Neg(b)),
                                Neg(b))),
    ]
    failures, stats = _eq_verdicts(algebra, equations, seed=seed, budget=budget)

    star = group.relation("*")
    converse = group.relation("conv")

    cap = DEFAULT_BUDGET if budget is None else budget

    def triple_agreement(first_uses_negneg: bool):
        """Scan the three-way equivalence of De Morgan's inequalities."""
        def bounds(fa, fb, fc):
            nc = algebra._neg(fc)
            bound = algebra._neg(nc) if first_uses_negneg else fc
            return (lat.leq[algebra._eval(star, [fa, fb]), bound].all(axis=-1),
                    lat.leq[algebra._eval(star, [algebra._eval(converse, [fa]), nc]),
                            algebra._neg(fb)].all(axis=-1),
                    lat.leq[algebra._eval(star, [nc, algebra._eval(converse, [fb])]),
                            algebra._neg(fa)].all(axis=-1))

        def broken(*triple):
            one, two, three = bounds(*triple)
            return (one != two) | (two != three)

        total, triples, sampling = _assignments(algebra, 3, "auto", cap, seed=seed)
        how = "sampled" if sampling else "exhaustive"
        position, found = _first_failure(total, algebra, triples, broken)
        if position is None:
            return None, how
        return {"a": _labels(lat, found[0]), "b": _labels(lat, found[1]),
                "c": _labels(lat, found[2]),
                "bounds": [bool(x) for x in bounds(*found)]}, how

    witness8p, how8p = triple_agreement(first_uses_negneg=True)
    stats["de_morgan_scan"] = how8p
    if witness8p is not None:
        failures.append({"law": "8':modified-de-morgan", **witness8p})

    witness8, how8 = triple_agreement(first_uses_negneg=False)
    original_holds = witness8 is None
    stats["original_de_morgan_holds"] = original_holds
    stats["lattice_boolean"] = lat.is_boolean
    if original_holds != lat.is_boolean and (witness8 is not None or how8 == "exhaustive"):
        failures.append({"law": "8:original-de-morgan",
                         "holds": original_holds,
                         "boolean": lat.is_boolean, "witness": witness8})
    elif witness8 is not None:
        stats["de_morgan_witness"] = witness8

    status = "pass" if not failures else "fail"
    return Report("relation-algebra", name, status,
                  witness=failures[0] if failures else None, stats=stats)


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
    """
    if not lat.is_distributive:
        raise NotHeyting("residuation checks use the pseudocomplement")
    _expect_group_signature(group)
    algebra = ConvAlgebra(lat, group)
    name = instance or f"|L|={lat.size},|G|={group.carrier_size}"
    codes = algebra.carrier_codes(budget)
    rows = algebra._decode(codes)
    leq = lat.leq[rows[:, None], rows[None, :]].all(axis=-1)
    product_table = algebra._table(group.relation("*"))
    join, neg = algebra._table("join"), algebra._table("neg")
    converse = algebra._table(group.relation("conv"))
    unit = algebra._table(group.relation("id"))[()]
    zero_prime = neg[unit]

    def labels(code):
        return _labels(lat, algebra._decode(np.asarray(code)))

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
            witness = {"law": "residual-at-unit-complement", "a": labels(a),
                       "a\\0'": labels(over[a, zero_prime]),
                       "0'/a": labels(under[a, zero_prime]),
                       "neg(conv(a))": labels(neg_conv[a])}
        elif not double_negation[a]:
            witness = {"law": "double-negation", "a": labels(a),
                       "(0'/a)\\0'": labels(left[a]), "negneg": labels(nn[a])}
        else:  # unit law: 1' \\ a = a
            witness = {"law": "unit", "a": labels(a)}
        return Report("residuation", name, "fail", witness=witness,
                      stats={"checked": a})

    checked = len(codes)
    uncollapsed = np.flatnonzero(left != codes)
    collapses = not uncollapsed.size
    if collapses != lat.is_boolean:
        return Report("residuation", name, "fail",
                      witness={"law": "gbi-collapse", "collapses": collapses,
                               "boolean": lat.is_boolean},
                      stats={"checked": checked})

    # a;c <= b iff c <= a\\b, for every triple (a, b, c)
    broken = np.flatnonzero(fits != leq[codes, over[..., None]])
    if broken.size:
        a, b, c = np.unravel_index(broken[0], fits.shape)
        return Report("residuation", name, "fail",
                      witness={"law": "residuation", "a": labels(a),
                               "b": labels(b), "c": labels(c)},
                      stats={"checked": checked})
    stats = {"elements": checked, "collapses_to_identity": collapses,
             "boolean": lat.is_boolean}
    if not collapses:
        stats["collapse_witness"] = labels(uncollapsed[0])
    return Report("residuation", name, "pass", stats=stats)


# -- equation transfer -----------------------------------------------------------


def check_equation_transfer(lattices, structure: RelStructure, pool,
                            budget: int | None = None, seed: int = 0,
                            instance: str | None = None) -> Report:
    """Verdicts over L^X against the two-element base and the subset algebra.

    pool is a list of (label, Equation) in the negation-free fragment.
    Distributive lattices must agree with the base exactly; other lattices
    are only required to transfer validity downward (valid in L^X implies
    valid over subsets).  A disagreement counts only between decided
    verdicts, not against a sampled validity.
    """
    lattices = list(lattices)
    name = instance or f"|X|={structure.carrier_size},pool={len(pool)}"
    base = ConvAlgebra(_chain2(), structure)
    subsets = SubsetAlgebra(structure)
    failures = []
    tried = 0
    base_verdicts = {}
    for label, eq in pool:
        if eq.uses_heyting():
            raise NotHeyting(f"equation {label!r} leaves the negation-free fragment")
        vb = check_equation(eq, base, budget=budget, seed=seed)
        vs = check_equation(eq, subsets, budget=budget, seed=seed)
        tried += vb.tried + vs.tried
        base_verdicts[label] = vb
        if vb.is_valid != vs.is_valid and vb.decided and vs.decided:
            failures.append({"equation": label, "lattice": "2",
                             "base": vb.status, "subsets": vs.status})
    for lat in lattices:
        algebra = ConvAlgebra(lat, structure)
        for label, eq in pool:
            v = check_equation(eq, algebra, budget=budget, seed=seed)
            tried += v.tried
            vb = base_verdicts[label]
            if lat.is_distributive:
                agree = v.is_valid == vb.is_valid
            else:
                agree = vb.is_valid or not v.is_valid
            if not agree and v.decided and vb.decided:
                item = {"equation": label, "text": str(eq),
                        "lattice_size": lat.size,
                        "over_L": v.status, "over_2": vb.status}
                if v.assignment is not None:
                    item["assignment"] = _describe_assignment(v.assignment)
                failures.append(item)
    status = "pass" if not failures else "fail"
    return Report("equation-transfer", name, status,
                  witness=failures[0] if failures else None,
                  stats={"assignments": tried, "lattices": len(lattices),
                         "equations": len(pool)})


# -- homomorphisms between algebras ------------------------------------------------


def _homomorphism_witness(dom: ConvAlgebra, images: np.ndarray, cod):
    """Whether the map sending the element of an unordered ``dom`` coded c
    to the value row ``images[c]`` of ``cod`` is a homomorphism.

    The ``dom`` side is read from its code tables, the ``cod`` side is
    computed by ``cod``'s own batched operations.  Bounds come first, then
    meets and joins over pairs, then each relation over argument tuples,
    in ``product`` order.  Returns (witness, checked, sides): the first
    failure or None, the pairs and tuples compared up to it, and the value
    rows of both sides of a failed operation.
    """
    def labels(code):
        return _labels(dom.lattice, dom._decode(np.asarray(code)))

    def same(x, y):
        return (x == y).all(axis=-1)

    coded, enumeration = dom.coded(), dom._enumeration()

    def first_failure(arity, holds):
        # The first code tuple where ``holds`` fails and the tuples before it.
        total, rows = _grid(coded, arity, enumeration)
        position, codes = _first_failure(total, cod, rows, lambda *args: ~holds(*args))
        if position is None:
            return None, total
        return tuple(int(c[0]) for c in codes), position

    if not all(np.array_equal(images[dom._encode(dom._row(d))], cod._row(c))
               for d, c in ((dom.bot(), cod.bot()), (dom.top(), cod.top()))):
        return {"kind": "bounds"}, 0, None
    meet, join = dom._table("meet"), dom._table("join")

    def meets(a, b):
        return same(images[meet[a, b]], cod._meet(images[a], images[b]))

    pair, checked = first_failure(2, lambda a, b: meets(a, b) & same(
        images[join[a, b]], cod._join(images[a], images[b])))
    if pair is not None:
        return ({"kind": "join" if meets(*pair) else "meet",
                 "f": labels(pair[0]), "g": labels(pair[1])}, checked + 1, None)
    for i, spec in enumerate(dom.structure.signature.rel_specs):
        table, j = dom._table(i), cod.structure.relation(spec.name)

        def sides(*args):
            return images[table[args]], cod._eval(j, [images[c] for c in args])

        args, count = first_failure(spec.arity, lambda *args: same(*sides(*args)))
        checked += count
        if args is not None:
            return ({"kind": "operation", "relation": spec.name,
                     "args": [labels(c) for c in args]}, checked + 1, sides(*args))
    return None, checked, None


def check_subset_isomorphism(structure: RelStructure,
                             instance: str | None = None) -> Report:
    """The top-set map is a bijective homomorphism from the two-element
    convolution algebra onto the subset algebra, for every relation mode.
    ``iso_phi`` is applied once per element, then the laws are compared
    over all pairs and argument tuples at once (``checked`` counts them),
    the subset side by the subset algebra's own relational images."""
    name = instance or repr(structure)
    algebra = ConvAlgebra(_chain2(), structure)
    subsets = SubsetAlgebra(structure)
    images = [iso_phi(f) for f in algebra.elements()]
    if len(set(images)) != len(images) or set(images) != set(subsets.elements()):
        return Report("subset-iso", name, "fail",
                      witness={"kind": "not a bijection"}, stats={})
    witness, checked, sides = _homomorphism_witness(
        algebra, np.array([subsets._row(s) for s in images]), subsets)
    if sides is not None:
        witness["function_side"], witness["subset_side"] = (
            np.flatnonzero(side).tolist() for side in sides)
    failed_early = witness is not None and sides is None  # bounds, meet or join
    return Report("subset-iso", name, "pass" if witness is None else "fail",
                  witness=witness, stats={} if failed_early else {"checked": checked})


# -- functorial behaviour ----------------------------------------------------------


def _reduct(structure: RelStructure, keep: list[str]) -> RelStructure:
    idx = [structure.signature.index(n) for n in keep]
    sig = signature(*((structure.signature.rel_specs[i].name,
                       structure.signature.rel_specs[i].arity,
                       structure.signature.rel_specs[i].mode) for i in idx))
    return RelStructure(structure.carrier_size, sig,
                        [structure.relations[i] for i in idx], structure.order)


def check_structural_isos(lattice: FiniteLattice | None = None,
                          instance: str | None = None) -> Report:
    """Functorial behaviour on fixed small instances.

    Covers: the product-lattice split being a bijective homomorphism; the
    algebra over a disjoint union decomposing blockwise as a product; a
    validated lattice morphism lifting to a homomorphism that preserves
    and reflects one-one/onto; a p-morphism pulling back to a homomorphism
    preserving pointwise meets and joins; and order-preserving carriers
    being closed under every operation.  The public maps are applied once
    per carrier element; each law is then one comparison over whole
    carriers, and a failure names the first element that breaks it.
    """
    lat = lattice if lattice is not None else build_lattice(
        ["0", "m", "1"], [("0", "m"), ("m", "1")])
    name = instance or f"|L|={lat.size}"
    two = _chain2()
    z2 = _z2_structure()
    subchecks = []

    def values(functions):
        return np.array([f.values for f in functions], dtype=np.int64)

    # Product lattice split (componentwise in the lattice coordinate).
    prod = two.product(two)
    ap = ConvAlgebra(prod, z2)
    factor = ConvAlgebra(two, z2)  # both factors are two
    carrier = ap.carrier_list()
    split = [product_iso(alpha) for alpha in carrier]
    merged = values(product_iso_inv(b, c, prod) for b, c in split)
    bad = np.flatnonzero((merged != values(carrier)).any(axis=-1))
    witness = {"kind": "split-merge", "alpha": carrier[bad[0]].labels()} if bad.size else None
    if witness is None:
        witness = (_homomorphism_witness(ap, values(b for b, _ in split), factor)[0]
                   or _homomorphism_witness(ap, values(c for _, c in split), factor)[0])
    subchecks.append(("product-split", witness))

    # Disjoint union decomposes as a product of algebras.
    frame_sig = signature(("f", 1, JOIN))
    fx = RelStructure(1, frame_sig, [{(0, 0)}])
    fy = RelStructure(2, frame_sig, [{(0, 1), (1, 1)}])
    union = disjoint_union(fx, fy)
    au = ConvAlgebra(lat, union)
    ax = ConvAlgebra(lat, fx)
    ay = ConvAlgebra(lat, fy)
    witness = None
    if au.space_size() != ax.space_size() * ay.space_size():
        witness = {"kind": "counting"}
    else:
        cut = fx.carrier_size
        rows = au._decode(au.carrier_codes())
        blocks = np.concatenate([ax._eval(0, [rows[:, :cut]]), ay._eval(0, [rows[:, cut:]])],
                                axis=-1)
        bad = np.flatnonzero((au._eval(0, [rows]) != blocks).any(axis=-1))
        if bad.size:
            witness = {"kind": "blockwise", "alpha": _labels(lat, rows[bad[0]])}
    subchecks.append(("coproduct-to-product", witness))

    # Lattice morphism lift: chain3 -> chain2 collapsing the middle up.
    chain3 = build_lattice(["0", "m", "1"], [("0", "m"), ("m", "1")])
    phi = [0, 1, 1]
    ok, w = is_lattice_morphism(phi, chain3, two)
    witness = None if ok else {"kind": "validation", "detail": w}
    if witness is None:
        dom = ConvAlgebra(chain3, z2)
        cod = ConvAlgebra(two, z2)
        images = values(lift_lattice_morphism(phi, two, e) for e in dom.elements())
        witness = _homomorphism_witness(dom, images, cod)[0]
    subchecks.append(("morphism-lift", witness))

    # One-one/onto preservation and reflection for lifted morphisms.
    cases = [
        ("embedding", two, chain3, [0, 2], True, False),
        ("quotient", chain3, two, [0, 0, 1], False, True),
        ("identity", chain3, chain3, [0, 1, 2], True, True),
        ("collapse", chain3, chain3, [0, 0, 2], False, False),
    ]
    witness = None
    for label, dom_lat, cod_lat, table, inj, surj in cases:
        ok, w = is_lattice_morphism(table, dom_lat, cod_lat)
        if not ok:
            witness = {"kind": "validation", "case": label, "detail": w}
            break
        if (len(set(table)) == len(table)) != inj or (set(table) == set(range(cod_lat.size))) != surj:
            witness = {"kind": "case-setup", "case": label}
            break
        dom = ConvAlgebra(dom_lat, z2)
        cod = ConvAlgebra(cod_lat, z2)
        images = np.unique(cod._encode(np.asarray(table)[dom._decode(dom.carrier_codes())]))
        lifted_inj = len(images) == dom.space_size()
        lifted_surj = np.array_equal(images, cod.carrier_codes())
        if lifted_inj != inj or lifted_surj != surj:
            witness = {"kind": "one-one/onto", "case": label,
                       "lifted_one_one": lifted_inj, "lifted_onto": lifted_surj}
            break
    subchecks.append(("one-one-onto", witness))

    # p-morphism pullback: the mod-2 quotient on product/converse reducts.
    z4 = _reduct(from_group([[(a + b) % 4 for b in range(4)] for a in range(4)]),
                 ["*", "conv"])
    z2r = _reduct(z2, ["*", "conv"])
    p = [0, 1, 0, 1]
    ok, w = is_p_morphism(p, z4, z2r)
    witness = None if ok else {"kind": "p-morphism validation", "detail": w}
    if witness is None:
        src = ConvAlgebra(lat, z2r)
        dst = ConvAlgebra(lat, z4)
        images = values(pullback_pmorphism(p, z4, z2r, e, validate=False)
                        for e in src.elements())
        witness = _homomorphism_witness(src, images, dst)[0]
        if witness is None and len(np.unique(dst._encode(images))) != len(images):
            witness = {"kind": "onto p-morphism must pull back one-one"}
    subchecks.append(("pmorphism-pullback", witness))

    # Ordered structures: operation images are order preserving and the
    # order-preserving carrier is closed under everything.
    up = {(0, 0), (0, 1), (1, 1)}
    down = {(0, 0), (1, 0), (1, 1)}
    ordered = build_structure(2, signature(("dia", 1, JOIN), ("box", 1, MEET)),
                              [up, down], order_pairs=[(0, 1)])
    plain = ConvAlgebra(lat, ordered)
    restricted = ConvAlgebra(lat, ordered, ordered=True)
    rels = ("dia", "box")
    witness = None
    rows = plain._decode(plain.carrier_codes())
    # [alpha, r]: whether the image of alpha under rels[r] is order preserving
    bad = np.argwhere(~np.stack([plain._monotone_rows(plain._eval(r, [rows]))
                                 for r in map(ordered.relation, rels)], axis=-1))
    codes = restricted.carrier_codes()
    pairs = np.ix_(codes, codes)
    if len(bad):
        witness = {"kind": "image-not-monotone", "relation": rels[bad[0][1]],
                   "alpha": _labels(lat, rows[bad[0][0]])}
    elif not all(np.isin(restricted._table(op)[pairs], codes).all() for op in ("meet", "join")):
        witness = {"kind": "carrier-not-closed"}
    else:
        # [alpha, r]: whether rels[r] maps the carrier's alpha into the carrier
        bad = np.argwhere(~np.stack([np.isin(restricted._table(r)[codes], codes)
                                     for r in map(ordered.relation, rels)], axis=-1))
        if len(bad):
            witness = {"kind": "carrier-not-closed", "relation": rels[bad[0][1]]}
    subchecks.append(("ordered-closure", witness))

    failures = [{"subcheck": label, "witness": w}
                for label, w in subchecks if w is not None]
    status = "pass" if not failures else "fail"
    return Report("structural-isos", name, status,
                  witness=failures[0] if failures else None,
                  stats={"subchecks": [label for label, _ in subchecks]})


def default_equation_pool(sig) -> list:
    """Negation-free candidate equations (valid and invalid) for a signature."""
    x, y = Var("x"), Var("y")
    pool = [
        ("meet-commutes", Equation(Meet(x, y), Meet(y, x))),
        ("join-commutes", Equation(Join(x, y), Join(y, x))),
        ("absorb-mj", Equation(Meet(x, Join(x, y)), x)),
        ("absorb-jm", Equation(Join(x, Meet(x, y)), x)),
        ("meet-idem", Equation(Meet(x, x), x)),
        ("join-idem", Equation(Join(x, x), x)),
        ("meet-top", Equation(Meet(x, Top()), x)),
        ("join-bot", Equation(Join(x, Bot()), x)),
    ]
    for spec in sig.rel_specs:
        f = spec.name

        def op(*args, _f=f):
            return RelOp(_f, tuple(args))

        if spec.arity == 1 and spec.mode == JOIN:
            pool += [
                (f"{f}-additive", Equation(op(Join(x, y)), Join(op(x), op(y)))),
                (f"{f}-zero", Equation(op(Bot()), Bot())),
                (f"{f}-meet-hom", Equation(op(Meet(x, y)), Meet(op(x), op(y)))),
                (f"{f}-increasing", Equation(Join(x, op(x)), op(x))),
                (f"{f}-idempotent", Equation(op(op(x)), op(x))),
            ]
        elif spec.arity == 1 and spec.mode == MEET:
            pool += [
                (f"{f}-multiplicative", Equation(op(Meet(x, y)), Meet(op(x), op(y)))),
                (f"{f}-one", Equation(op(Top()), Top())),
                (f"{f}-join-hom", Equation(op(Join(x, y)), Join(op(x), op(y)))),
                (f"{f}-decreasing", Equation(Meet(x, op(x)), op(x))),
            ]
        elif spec.arity == 2 and spec.mode == JOIN:
            pool += [
                (f"{f}-left-additive",
                 Equation(op(Join(x, y), y), Join(op(x, y), op(y, y)))),
                (f"{f}-left-zero", Equation(op(Bot(), x), Bot())),
                (f"{f}-right-zero", Equation(op(x, Bot()), Bot())),
                (f"{f}-commutes", Equation(op(x, y), op(y, x))),
                (f"{f}-left-meet-hom",
                 Equation(op(Meet(x, y), y), Meet(op(x, y), op(y, y)))),
            ]
        elif spec.arity == 2 and spec.mode == MEET:
            pool += [
                (f"{f}-left-multiplicative",
                 Equation(op(Meet(x, y), y), Meet(op(x, y), op(y, y)))),
                (f"{f}-left-one", Equation(op(Top(), x), Top())),
                (f"{f}-commutes", Equation(op(x, y), op(y, x))),
            ]
        elif spec.arity == 0:
            mark = op()
            pool += [
                (f"{f}-join-idem", Equation(Join(mark, mark), mark)),
                (f"{f}-meet-top", Equation(Meet(mark, Top()), mark)),
            ]
    return pool
