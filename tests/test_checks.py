"""The law verifiers: expected passes, expected failures, and hypotheses."""

import json

import pytest

from convalg.catalog import (boolean, chain, cyclic_group, lattice_pool, m3,
                             n5, structure_pool, symmetric_group_3)
from convalg.checks import (check_closure_correspondence,
                            check_equation_transfer,
                            check_finitely_supported, check_monadic_axioms,
                            check_nabla_equation, check_operator,
                            check_relation_algebra, check_residuation,
                            check_structural_isos, check_subset_isomorphism,
                            check_z2_associativity, default_equation_pool)
from convalg.convolution import ConvAlgebra
from convalg.errors import NotHeyting, SignatureMismatch, WrongMode
from convalg.structures import (JOIN, MEET, build_structure, full_structure,
                                signature)
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
