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
                     check_subset_isomorphism, check_type2_transfer,
                     check_z2_associativity, default_equation_pool,
                     type2_equation_pool)
from .convolution import ConvAlgebra, resolve_budget
from .errors import UnknownName
from .structures import build_structure, signature


def _aggregate(name: str, instance: str, reports: list[Report],
               extra_stats: dict | None = None, unmet: list | None = None) -> Report:
    """The suite's report on its members: their failures, then ``unmet``,
    the suite's own expectations across members that do not hold.  Only
    the members count in ``failed``."""
    failures = [r.to_dict() for r in reports if r.status == "fail"]
    stats = {"instances": len(reports), "failed": len(failures), **(extra_stats or {})}
    return Report.of(name, instance, failures + (unmet or []), stats)


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
    reports = [check_z2_associativity(lat, budget=budget, instance=name)
               for name, lat in catalog.lattice_pool()]
    found = {r.instance for r in reports if r.status == "pass" and not r.stats["associative"]}
    undecided = {r.instance for r in reports if r.status == "observed"}
    missing = {"M3", "N5"} - found - undecided
    return _aggregate("suite:z2-associativity", "lattice pool", reports,
                      {"non_associative": sorted(found)},
                      [{"expected_non_associative": sorted(missing)}] if missing else [])


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
        # the cap fits the De Morgan scans' 13 * 13 * 729 triples over
        # generator pairs (a, b), and keeps the two-variable laws, whose
        # 729**2 pairs exceed it, on their generators
        check_relation_algebra(chain3, catalog.symmetric_group_3(), seed=seed,
                               budget=min(resolve_budget(budget), 13 * 13 * 729),
                               instance="chain3/S3"),
        check_relation_algebra(catalog.boolean(2), catalog.cyclic_group(2),
                               budget=budget, instance="boolean2/Z2"),
    ]
    # None, from a sampled scan that found no witness, decides nothing
    holds = {r.instance: r.stats["original_de_morgan_holds"] for r in reports}
    unmet = [{"expected": expected} for expected, broken in (
        ("original De Morgan must fail over chain3", holds["chain3/Z2"] is True),
        ("original De Morgan must hold over boolean2", holds["boolean2/Z2"] is False))
        if broken]
    return _aggregate("suite:relation-algebra", "group convolutions", reports, unmet=unmet)


def suite_residuation(budget=None, seed=0) -> Report:
    z2 = catalog.cyclic_group(2)
    reports = [
        check_residuation(catalog.chain(3), z2, budget=budget, instance="chain3/Z2"),
        check_residuation(catalog.boolean(2), z2, budget=budget, instance="boolean2/Z2"),
    ]
    # an instance over the budget decides nothing
    collapse = {r.instance: r.stats["collapses_to_identity"]
                for r in reports if r.status == "pass"}
    wrong = collapse.items() - {"chain3/Z2": False, "boolean2/Z2": True}.items()
    return _aggregate("suite:residuation", "group convolutions", reports,
                      unmet=[{"collapse_pattern": collapse}] if wrong else [])


def suite_structural(budget=None, seed=0) -> Report:
    reports = [check_structural_isos(instance="chain3"),
               check_structural_isos(catalog.boolean(2), instance="boolean2")]
    return _aggregate("suite:structural-isos", "default instances", reports)


def suite_type2(budget=None, seed=0) -> Report:
    """Truth-value grids: verdicts agree between the chain convolution and
    the subset algebra; n=2 exhaustive, n=3 under a budget of 10,000, so
    that over the chain the two associativity laws exceed the grid and run
    on the irreducible generators instead (``reduced_laws``)."""
    runs = [
        ("type2_2", 2, False, budget),
        ("type2_3", 3, False, min(resolve_budget(budget), 10_000)),
        ("type2mixed_2", 2, True, budget),
        ("type2mixed_3", 3, True, budget),
    ]
    reports = [check_type2_transfer(catalog.chain(n), catalog.type2_structure(n, mixed=mixed)[0],
                                    type2_equation_pool(), budget=cap, seed=seed,
                                    instance=name)
               for name, n, mixed, cap in runs]
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
        "fast subset: subset isomorphism, Z2 associativity, monadic axioms",
        (("subset-iso", suite_subset_iso),
         ("z2-associativity", suite_z2_biconditional),
         ("monadic", suite_monadic))),
}


def run_suite(name: str, budget: int | None = None, seed: int = 0):
    """Yield one aggregated Report per suite member, in declaration order."""
    spec = SUITES.get(name)
    if spec is None:
        raise UnknownName(f"no suite named {name!r}; try one of {sorted(SUITES)}")
    budget = resolve_budget(budget)
    for _, func in spec.members:
        yield func(budget=budget, seed=seed)
