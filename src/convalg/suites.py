"""Named verification suites.

The ``paper-core`` suite runs the full battery: the subset isomorphism,
operator and finite-support laws over the structure pool, equation
transfer, the associativity/distributivity biconditional, the all-pairs
frame equation, closure correspondence, monadic and relation-algebra
axioms, residuation, functorial checks, and the truth-value grid transfer.
Every member reports pass/fail with a witness; all randomness flows from
one seed (default 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import catalog
from .checks import (Report, check_closure_correspondence,
                     check_equation_transfer, check_finitely_supported,
                     check_monadic_axioms, check_nabla_equation,
                     check_operator, check_relation_algebra,
                     check_residuation, check_structural_isos,
                     check_subset_isomorphism, check_z2_associativity,
                     default_equation_pool, _describe_assignment,
                     _law_counts)
from .convolution import ConvAlgebra, SubsetAlgebra
from .errors import UnknownName
from .structures import build_structure, signature
from .terms import Equation, RelOp, Var, check_equation


def _aggregate(name: str, instance: str, reports: list[Report],
               extra_stats: dict | None = None) -> Report:
    failures = [r.to_dict() for r in reports if r.status == "fail"]
    stats = {"instances": len(reports),
             "failed": len(failures)}
    if extra_stats:
        stats.update(extra_stats)
    return Report(name, instance, "pass" if not failures else "fail",
                  witness=failures[0] if failures else None, stats=stats)


def suite_subset_iso(budget=None, seed=0) -> Report:
    reports = [check_subset_isomorphism(s, instance=name)
               for name, s in catalog.structure_pool()]
    return _aggregate("suite:subset-iso", f"pool={len(reports)}", reports)


def _per_relation(suite: str, checker, budget, seed) -> Report:
    """``checker`` on every relation of the structure pool, over chain2,
    chain3 and boolean2."""
    lattices = [("chain2", catalog.chain(2)), ("chain3", catalog.chain(3)),
                ("boolean2", catalog.boolean(2))]
    reports = []
    for lname, lat in lattices:
        for sname, s in catalog.structure_pool():
            algebra = ConvAlgebra(lat, s)
            reports += [checker(algebra, spec.name, budget=budget, seed=seed,
                                instance=f"{lname}/{sname}/{spec.name}")
                        for spec in s.signature.rel_specs]
    return _aggregate(suite, f"checks={len(reports)}", reports)


def suite_operator_laws(budget=None, seed=0) -> Report:
    return _per_relation("suite:operator-laws", check_operator, budget, seed)


def suite_finite_support(budget=None, seed=0) -> Report:
    return _per_relation("suite:finite-support", check_finitely_supported, budget, seed)


def suite_equation_transfer(budget=None, seed=0) -> Report:
    lattices = [catalog.chain(3), catalog.chain(4), catalog.boolean(2),
                catalog.m3(), catalog.n5()]
    structures = ["z2-group", "frame2-succ", "frame3-cycle", "mixed2",
                  "min3", "mixed3-nabla", "nullary3-pair"]
    pool_map = dict(catalog.structure_pool())
    reports = []
    total_eqs = 0
    for sname in structures:
        s = pool_map[sname]
        pool = default_equation_pool(s.signature)
        total_eqs += len(pool)
        reports.append(check_equation_transfer(
            lattices, s, pool, budget=budget, seed=seed, instance=sname))
    return _aggregate("suite:equation-transfer", f"structures={len(structures)}",
                      reports, {"equations": total_eqs})


def suite_z2_biconditional(budget=None, seed=0) -> Report:
    """The biconditional over the lattice pool, where M3 and N5 must be
    found non-associative unless sampling left them undecided."""
    reports = []
    witnesses = {}
    for name, lat in catalog.lattice_pool():
        r = check_z2_associativity(lat, budget=budget, instance=name)
        reports.append(r)
        if r.status == "pass" and not r.stats.get("associative", True):
            witnesses[name] = r.witness
    undecided = {r.instance for r in reports if r.status == "observed"}
    missing = {"M3", "N5"} - set(witnesses) - undecided
    agg = _aggregate("suite:z2-associativity", "lattice pool", reports,
                     {"non_associative": sorted(witnesses)})
    if missing and agg.status == "pass":
        agg.status = "fail"
        agg.witness = {"expected_non_associative": sorted(missing)}
    return agg


def suite_nabla(budget=None, seed=0) -> Report:
    reports = []
    for name, lat in catalog.lattice_pool():
        if not lat.is_distributive:
            continue
        sizes = (1, 2, 3) if lat.size <= 4 else (1, 2)
        for n in sizes:
            reports.append(check_nabla_equation(lat, n, budget=budget,
                                                instance=f"{name},n={n}"))
    return _aggregate("suite:nabla-equation", "distributive pool", reports)


def suite_closure_correspondence(budget=None, seed=0) -> Report:
    lat = catalog.chain(3)
    sig = signature(("f", 1, "join"))
    reports = []
    pairs2 = [(a, b) for a in range(2) for b in range(2)]
    for mask in range(16):
        rel = {pairs2[i] for i in range(4) if mask >> i & 1}
        reports.append(check_closure_correspondence(
            lat, build_structure(2, sig, [rel]), budget=budget,
            instance=f"|X|=2,mask={mask}"))
    rng = random.Random(seed)
    pairs3 = [(a, b) for a in range(3) for b in range(3)]
    seen = set()
    while len(seen) < 50:
        mask = rng.randrange(1 << 9)
        if mask in seen:
            continue
        seen.add(mask)
        rel = {pairs3[i] for i in range(9) if mask >> i & 1}
        reports.append(check_closure_correspondence(
            lat, build_structure(3, sig, [rel]), budget=budget,
            instance=f"|X|=3,mask={mask}"))
    return _aggregate("suite:closure-correspondence",
                      "16 exhaustive + 50 sampled", reports, {"seed": seed})


def suite_monadic(budget=None, seed=0) -> Report:
    lat = catalog.chain(3)
    reports = [check_monadic_axioms(lat, n, budget=budget, instance=f"chain3,n={n}")
               for n in (1, 2, 3)]
    return _aggregate("suite:monadic", "chain3", reports)


def suite_relation_algebra(budget=None, seed=0) -> Report:
    chain3 = catalog.chain(3)
    reports = [
        check_relation_algebra(chain3, catalog.cyclic_group(2), budget=budget,
                               instance="chain3/Z2"),
        check_relation_algebra(chain3, catalog.cyclic_group(3), budget=budget,
                               instance="chain3/Z3"),
        check_relation_algebra(chain3, catalog.symmetric_group_3(), seed=seed,
                               budget=10_000 if budget is None else min(budget, 10_000),
                               instance="chain3/S3"),
        check_relation_algebra(catalog.boolean(2), catalog.cyclic_group(2),
                               budget=budget, instance="boolean2/Z2"),
    ]
    agg = _aggregate("suite:relation-algebra", "group convolutions", reports)
    by_name = {r.instance: r for r in reports}
    if agg.status == "pass":
        over_z2 = by_name["chain3/Z2"].stats  # a sampled scan that holds decides nothing
        if over_z2.get("original_de_morgan_holds") and over_z2["de_morgan_scan"] == "exhaustive":
            agg.status = "fail"
            agg.witness = {"expected": "original De Morgan must fail over chain3"}
        if not by_name["boolean2/Z2"].stats.get("original_de_morgan_holds"):
            agg.status = "fail"
            agg.witness = {"expected": "original De Morgan must hold over boolean2"}
    return agg


def suite_residuation(budget=None, seed=0) -> Report:
    z2 = catalog.cyclic_group(2)
    reports = [
        check_residuation(catalog.chain(3), z2, budget=budget, instance="chain3/Z2"),
        check_residuation(catalog.boolean(2), z2, budget=budget, instance="boolean2/Z2"),
    ]
    agg = _aggregate("suite:residuation", "group convolutions", reports)
    if agg.status == "pass":
        collapse = {r.instance: r.stats.get("collapses_to_identity") for r in reports}
        if collapse != {"chain3/Z2": False, "boolean2/Z2": True}:
            agg.status = "fail"
            agg.witness = {"collapse_pattern": collapse}
    return agg


def suite_structural(budget=None, seed=0) -> Report:
    reports = [check_structural_isos(instance="chain3"),
               check_structural_isos(catalog.boolean(2), instance="boolean2")]
    return _aggregate("suite:structural-isos", "default instances", reports)


def type2_equation_pool():
    x, y, z = Var("x"), Var("y"), Var("z")

    def cap(*args):
        return RelOp("min", tuple(args))

    def cup(*args):
        return RelOp("max", tuple(args))

    def star(t):
        return RelOp("neg", (t,))

    one0 = RelOp("c0", ())
    one1 = RelOp("c1", ())
    return [
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
    ]


def suite_type2(budget=None, seed=0) -> Report:
    """Truth-value grids: verdicts agree between the chain convolution and
    the subset algebra; n=2 exhaustive, n=3 under a budget of 10,000, so
    that over the chain the two associativity laws exceed the grid and run
    on the irreducible generators instead (``reduced_laws``)."""
    reports = []
    runs = [
        ("type2_2", 2, False, budget),
        ("type2_3", 3, False, 10_000 if budget is None else min(budget, 10_000)),
        ("type2mixed_2", 2, True, budget),
        ("type2mixed_3", 3, True, budget),
    ]
    for name, n, mixed, cap in runs:
        structure, _ = catalog.type2_structure(n, mixed=mixed)
        conv = ConvAlgebra(catalog.chain(n), structure)
        subsets = SubsetAlgebra(structure)
        failures, conv_verdicts = [], []
        tried = 0
        for label, eq in type2_equation_pool():
            vc = check_equation(eq, conv, budget=cap, seed=seed)
            vs = check_equation(eq, subsets, budget=cap, seed=seed)
            tried += vc.tried + vs.tried
            conv_verdicts.append(vc)
            if vc.is_valid != vs.is_valid and vc.decided and vs.decided:
                item = {"equation": label, "convolution": vc.status,
                        "subsets": vs.status}
                if vc.assignment:
                    item["assignment"] = _describe_assignment(vc.assignment)
                failures.append(item)
        reports.append(Report(
            "type2-transfer", name, "pass" if not failures else "fail",
            witness=failures[0] if failures else None,
            stats={"assignments": tried, "equations": len(type2_equation_pool()),
                   **_law_counts(conv_verdicts), "seed": seed}))
    return _aggregate("suite:type2", "grids n=2,3 (plain and mixed)", reports)


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    description: str
    members: tuple = field(default_factory=tuple)


_PAPER_CORE = (
    ("subset-iso", suite_subset_iso),
    ("operator-laws", suite_operator_laws),
    ("finite-support", suite_finite_support),
    ("equation-transfer", suite_equation_transfer),
    ("z2-associativity", suite_z2_biconditional),
    ("nabla-equation", suite_nabla),
    ("closure-correspondence", suite_closure_correspondence),
    ("monadic", suite_monadic),
    ("relation-algebra", suite_relation_algebra),
    ("residuation", suite_residuation),
    ("structural-isos", suite_structural),
    ("type2", suite_type2),
)

SUITES = {
    "paper-core": SuiteSpec(
        "paper-core",
        "full verification battery over the shipped pools",
        _PAPER_CORE),
    "quick": SuiteSpec(
        "quick",
        "fast subset: isomorphism, correspondence, associativity",
        (("subset-iso", suite_subset_iso),
         ("z2-associativity", suite_z2_biconditional),
         ("monadic", suite_monadic))),
}


def run_suite(name: str, budget: int | None = None, seed: int = 0):
    """Yield one aggregated Report per suite member, in declaration order."""
    spec = SUITES.get(name)
    if spec is None:
        raise UnknownName(f"no suite named {name!r}; try one of {sorted(SUITES)}")
    for _, func in spec.members:
        yield func(budget=budget, seed=seed)
