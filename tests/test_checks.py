"""The law verifiers: expected passes, expected failures, and hypotheses."""

import json
import random
from itertools import product

import pytest

from convalg.catalog import (boolean, chain, cyclic_group, lattice_pool, m3,
                             n5, structure_pool, symmetric_group_3)
from convalg.checks import (Report, _expect_group_signature,
                            check_closure_correspondence,
                            check_equation_transfer,
                            check_finitely_supported, check_monadic_axioms,
                            check_nabla_equation, check_operator,
                            check_relation_algebra, check_residuation,
                            check_structural_isos, check_subset_isomorphism,
                            check_z2_associativity, default_equation_pool)
from convalg.convolution import ConvAlgebra
from convalg.errors import NotHeyting, SignatureMismatch, WrongMode
from convalg.structures import (JOIN, MEET, RelStructure, build_structure,
                                full_structure, signature)
from convalg.terms import Equation, Neg, Var, eval_term, parse_term


def test_operator_pass_and_mode_guard():
    algebra = ConvAlgebra(chain(3), cyclic_group(2))
    assert check_operator(algebra, "*").status == "pass"
    assert check_operator(algebra, "*", mode="additive").status == "pass"
    with pytest.raises(WrongMode):
        check_operator(algebra, "*", mode="multiplicative")


def test_operator_nullary_vacuous():
    algebra = ConvAlgebra(chain(3), cyclic_group(2))
    r = check_operator(algebra, "id")
    assert r.status == "pass"
    assert "vacuous" in r.stats.get("note", "")


def test_operator_multiplicative_for_meet_relations():
    s = build_structure(2, signature(("g", 1, MEET)), [{(0, 1), (1, 1), (0, 0)}])
    algebra = ConvAlgebra(chain(3), s)
    r = check_operator(algebra, "g")
    assert r.status == "pass"


def test_operator_observed_outside_hypotheses():
    algebra = ConvAlgebra(n5(), cyclic_group(2))
    r = check_operator(algebra, "*")
    assert r.status == "observed"
    assert "laws_hold" in r.stats


def test_operator_subset_scan_runs_on_tiny_spaces():
    algebra = ConvAlgebra(chain(2), cyclic_group(2))
    r = check_operator(algebra, "*")
    assert r.stats.get("subset_scan") == "exhaustive"


def reference_subset_scan(algebra, rel, budget, seed):
    """(subset_scan, subset_instances, stopped at a failure) of the
    operator checker's subset scan, written as loops over the carrier and
    its subsets."""
    spec = algebra.structure.signature.rel_specs[algebra.structure.relation(rel)]
    fold = algebra.join if spec.mode == JOIN else algebra.meet
    unit = algebra.bot() if spec.mode == JOIN else algebra.top()
    carrier = algebra.carrier_list(budget)
    q = len(carrier)
    if 2 ** q * spec.arity * q ** (spec.arity - 1) <= budget:
        how = "exhaustive"
        groups = [(k, fixed, range(2 ** q)) for k in range(spec.arity)
                  for fixed in product(range(q), repeat=spec.arity - 1)]
    else:
        how = "sampled"
        rng = random.Random(seed)
        groups = [(rng.randrange(spec.arity),
                   tuple(rng.randrange(q) for _ in range(spec.arity - 1)),
                   [rng.randrange(2 ** q)]) for _ in range(min(2000, budget))]
    checked = 0
    for k, fixed, masks in groups:
        def at_k(x):
            args = [carrier[j] for j in fixed]
            return algebra.op(rel, args[:k] + [x] + args[k:])
        for mask in masks:
            checked += 1
            joined, images = unit, unit
            for f in (carrier[j] for j in range(q) if mask >> j & 1):
                joined, images = fold(joined, f), fold(images, at_k(f))
            if at_k(joined) != images:
                return how, checked, True
    return how, checked, False


def test_operator_subset_scan_matches_the_loop_reference():
    # Over M3 and N5 a binary convolution is not additive, so the scan
    # stops at its first failing subset; budget 40 makes it sampled.
    algebras = [ConvAlgebra(chain(2), cyclic_group(2))]
    for lat in (m3(), n5(), chain(3), boolean(2)):
        for mode in (JOIN, MEET):
            algebras += [
                ConvAlgebra(lat, build_structure(1, signature(("h", 2, mode)), [{(0, 0, 0)}])),
                ConvAlgebra(lat, build_structure(1, signature(("f", 1, mode)), [{(0, 0)}]))]
    stopped = set()
    for algebra in algebras:
        for spec in algebra.structure.signature.rel_specs:
            if not spec.arity:
                continue
            for budget in (10 ** 6, 40):
                r = check_operator(algebra, spec.name, budget=budget, seed=3)
                how, checked, failed = reference_subset_scan(algebra, spec.name,
                                                             budget, seed=3)
                assert (r.stats["subset_scan"], r.stats["subset_instances"]) == (how, checked)
                if failed:
                    stopped.add(how)
    assert stopped == {"exhaustive", "sampled"}


def test_finite_support_pass_and_dual_form():
    algebra = ConvAlgebra(chain(3), cyclic_group(2))
    r = check_finitely_supported(algebra, "*")
    assert r.status == "pass" and r.stats["form"] == "delta-join"
    s = build_structure(2, signature(("g", 1, MEET)),
                        [{(a, b) for a in range(2) for b in range(2)}])
    r = check_finitely_supported(ConvAlgebra(chain(3), s), "g")
    assert r.status == "pass" and r.stats["form"] == "delta-meet"


def test_finite_support_delta_pairs_example():
    # For the two-element group, the join over one-point delta pairs
    # reproduces a binary output exactly.
    algebra = ConvAlgebra(chain(3), cyclic_group(2))
    a = algebra.function([1, 0])
    b = algebra.function([0, 2])
    out = algebra.op("*", (a, b))
    acc = algebra.bot()
    for x in range(2):
        for y in range(2):
            da = [0, 0]
            da[x] = a.values[x]
            db = [0, 0]
            db[y] = b.values[y]
            acc = algebra.join(acc, algebra.op("*", (algebra.function(da),
                                                     algebra.function(db))))
    assert acc == out


def test_closure_correspondence_cases():
    lat = chain(3)
    sig = signature(("f", 1, JOIN))
    full = check_closure_correspondence(lat, full_structure(2))
    assert full.status == "pass"
    assert full.stats["reflexive"] and full.stats["transitive"]
    arrow = check_closure_correspondence(
        lat, build_structure(2, sig, [{(0, 1)}]))
    assert arrow.status == "pass"
    assert not arrow.stats["reflexive"] and arrow.stats["transitive"]
    empty = check_closure_correspondence(lat, build_structure(2, sig, [set()]))
    assert empty.status == "pass"
    assert not empty.stats["reflexive"] and empty.stats["transitive"]


def test_closure_correspondence_requires_unary_frame():
    with pytest.raises(SignatureMismatch):
        check_closure_correspondence(chain(3), cyclic_group(2))
    with pytest.raises(NotHeyting):
        check_closure_correspondence(n5(), full_structure(2))


def test_monadic_axioms():
    assert check_monadic_axioms(chain(3), 1).status == "pass"
    assert check_monadic_axioms(chain(3), 2).status == "pass"
    assert check_monadic_axioms(boolean(2), 2).status == "pass"
    with pytest.raises(NotHeyting):
        check_monadic_axioms(n5(), 2)


def test_nabla_positive_direction():
    assert check_nabla_equation(chain(3), 2).status == "pass"
    assert check_nabla_equation(chain(3), 1).status == "pass"
    assert check_nabla_equation(boolean(2), 3).status == "pass"


def test_nabla_observed_for_non_distributive():
    r = check_nabla_equation(n5(), 2)
    assert r.status == "observed"
    assert r.stats["verdict"] in ("counterexample", "valid_exhaustive")


def test_z2_biconditional_on_pool():
    for name, lat in lattice_pool():
        r = check_z2_associativity(lat)
        assert r.status == "pass", (name, r.witness)
        assert r.stats["associative"] == lat.is_distributive == r.stats["distributive"]


def test_z2_witness_reevaluates():
    r = check_z2_associativity(n5())
    assert not r.stats["associative"]
    witness = r.witness["assignment"]
    lat = n5()
    algebra = ConvAlgebra(lat, cyclic_group(2))
    env = {k: algebra.function([lat.index(l) for l in v])
           for k, v in witness.items()}
    eq = Equation(parse_term("(op * (op * x y) z)"),
                  parse_term("(op * x (op * y z))"))
    assert eval_term(eq.lhs, algebra, env) != eval_term(eq.rhs, algebra, env)


def test_relation_algebra_chain3_z2():
    r = check_relation_algebra(chain(3), cyclic_group(2))
    assert r.status == "pass"
    assert r.stats["original_de_morgan_holds"] is False
    assert r.stats["de_morgan_witness"] is not None


def test_relation_algebra_boolean_has_original_de_morgan():
    r = check_relation_algebra(boolean(2), cyclic_group(2))
    assert r.status == "pass"
    assert r.stats["original_de_morgan_holds"] is True


def test_relation_algebra_z3_exhaustive():
    r = check_relation_algebra(chain(3), cyclic_group(3))
    assert r.status == "pass"
    assert r.stats["de_morgan_scan"] == "exhaustive"


def test_relation_algebra_sampled_mode():
    r = check_relation_algebra(chain(3), symmetric_group_3(),
                               samples=500, seed=0)
    assert r.status == "pass"
    assert r.stats["de_morgan_scan"] == "sampled"


def test_relation_algebra_guards():
    with pytest.raises(NotHeyting):
        check_relation_algebra(n5(), cyclic_group(2))
    with pytest.raises(SignatureMismatch):
        check_relation_algebra(chain(3), full_structure(2))


def test_residuation_reports():
    r = check_residuation(chain(3), cyclic_group(2))
    assert r.status == "pass"
    assert r.stats["collapses_to_identity"] is False
    assert "collapse_witness" in r.stats
    r = check_residuation(boolean(2), cyclic_group(2))
    assert r.status == "pass"
    assert r.stats["collapses_to_identity"] is True


def reference_residuation(lat, group, budget=None, instance=None):
    """The residuation checker written as loops over the carrier, with
    residuals found by brute force, one element at a time."""
    _expect_group_signature(group)
    algebra = ConvAlgebra(lat, group)
    name = instance or f"|L|={lat.size},|G|={group.carrier_size}"
    carrier = algebra.carrier_list(budget)
    unit = algebra.op("id", ())
    zero_prime = algebra.neg(unit)

    def rdiv(x, y):  # x \ y
        out = algebra.bot()
        for cand in carrier:
            if algebra.le(algebra.op("*", (x, cand)), y):
                out = algebra.join(out, cand)
        return out

    def ldiv(y, x):  # y / x
        out = algebra.bot()
        for cand in carrier:
            if algebra.le(algebra.op("*", (cand, x)), y):
                out = algebra.join(out, cand)
        return out

    def fail(witness, checked):
        return Report("residuation", name, "fail", witness=witness,
                      stats={"checked": checked})

    for checked, fa in enumerate(carrier):
        over = rdiv(fa, zero_prime)
        under = ldiv(zero_prime, fa)
        neg_conv = algebra.neg(algebra.op("conv", (fa,)))
        if not (over == neg_conv == under):
            return fail({"law": "residual-at-unit-complement", "a": fa.labels(),
                         "a\\0'": over.labels(), "0'/a": under.labels(),
                         "neg(conv(a))": neg_conv.labels()}, checked)
        nn = algebra.neg(algebra.neg(fa))
        left = rdiv(ldiv(zero_prime, fa), zero_prime)
        right = ldiv(zero_prime, rdiv(fa, zero_prime))
        if not (left == nn == right):
            return fail({"law": "double-negation", "a": fa.labels(),
                         "(0'/a)\\0'": left.labels(), "negneg": nn.labels()}, checked)
        if rdiv(unit, fa) != fa:
            return fail({"law": "unit", "a": fa.labels()}, checked)
    checked = len(carrier)
    collapse_witness = next(
        (fa for fa in carrier if rdiv(ldiv(zero_prime, fa), zero_prime) != fa), None)
    collapses = collapse_witness is None
    if collapses != lat.is_boolean:
        return fail({"law": "gbi-collapse", "collapses": collapses,
                     "boolean": lat.is_boolean}, checked)
    for fa in carrier:
        for fb in carrier:
            target = rdiv(fa, fb)
            for fc in carrier:
                if algebra.le(algebra.op("*", (fa, fc)), fb) != algebra.le(fc, target):
                    return fail({"law": "residuation", "a": fa.labels(),
                                 "b": fb.labels(), "c": fc.labels()}, checked)
    stats = {"elements": len(carrier), "collapses_to_identity": collapses,
             "boolean": lat.is_boolean}
    if collapse_witness is not None:
        stats["collapse_witness"] = collapse_witness.labels()
    return Report("residuation", name, "pass", stats=stats)


def test_residuation_matches_the_loop_reference():
    # The group relations in every mix of modes and random relations named
    # like a group's: every failure branch but gbi-collapse (which a group
    # over a distributive lattice cannot reach) and the pass branch occur.
    structures = []
    for group in (cyclic_group(2), cyclic_group(3)):
        for modes in product([JOIN, MEET], repeat=3):
            sig = signature(*[(spec.name, spec.arity, mode) for spec, mode
                              in zip(group.signature.rel_specs, modes)])
            structures.append(RelStructure(group.carrier_size, sig, list(group.relations)))
    rng = random.Random(0)
    points = range(2)
    for _ in range(12):
        sig = signature(("*", 2, rng.choice([JOIN, MEET])),
                        ("conv", 1, rng.choice([JOIN, MEET])), ("id", 0, JOIN))
        structures.append(build_structure(2, sig, [
            {t for t in product(points, repeat=3) if rng.random() < 0.6},
            {t for t in product(points, repeat=2) if rng.random() < 0.5},
            {(x,) for x in points if rng.random() < 0.6}]))
    outcomes = set()
    for s in structures:
        for lat in (chain(2), chain(3), boolean(2)):
            if lat.size ** s.carrier_size <= 16:
                r = check_residuation(lat, s)
                assert r.to_dict() == reference_residuation(lat, s).to_dict()
                outcomes.add(r.witness["law"] if r.witness else r.status)
    assert outcomes == {"pass", "residual-at-unit-complement", "double-negation",
                        "unit", "residuation"}


def test_equation_transfer_distributive_and_one_way():
    z2 = cyclic_group(2)
    pool = default_equation_pool(z2.signature)
    assert len(pool) >= 10
    r = check_equation_transfer([chain(3), boolean(2), n5(), m3()], z2, pool)
    assert r.status == "pass"


def test_equation_transfer_counts_generator_input():
    z2 = cyclic_group(2)
    pool = default_equation_pool(z2.signature)
    r = check_equation_transfer((lat for lat in [chain(3), n5()]), z2, pool)
    assert r.status == "pass"
    assert r.stats["lattices"] == 2


def test_equation_transfer_rejects_heyting_terms():
    z2 = cyclic_group(2)
    with pytest.raises(NotHeyting):
        check_equation_transfer([chain(3)], z2,
                                [("neg", Equation(Neg(Var("x")), Var("x")))])


def test_subset_isomorphism_over_sample():
    for name, s in structure_pool()[:6]:
        assert check_subset_isomorphism(s, instance=name).status == "pass"


def test_structural_isos_pass():
    r = check_structural_isos()
    assert r.status == "pass"
    assert len(r.stats["subchecks"]) == 6


def test_reports_serialize():
    r = check_z2_associativity(m3())
    text = r.to_json()
    doc = json.loads(text)
    assert doc["checker"] == "z2-associativity"
    assert doc["status"] == "pass"
    assert json.loads(r.to_json()) == doc
