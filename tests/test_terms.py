"""Parser, evaluator, and equation checking."""

import pytest

from convalg.catalog import boolean, chain
from convalg.convolution import ConvAlgebra, SubsetAlgebra
from convalg.errors import (ArityMismatch, BudgetExceeded, NotHeyting,
                            TermSyntaxError, UnboundVariable,
                            UnknownOperation)
from convalg.lattice import build_lattice
from convalg.structures import build_structure, from_group, signature
from convalg.terms import (Bot, Equation, Imp, Join, Meet, Neg, RelOp, Top,
                           Var, check_equation, eval_term, parse_equation,
                           parse_term, to_sexpr)


def z2():
    return from_group([[0, 1], [1, 0]])


def n5():
    return build_lattice(["0", "a", "b", "c", "1"],
                         [("0", "a"), ("a", "b"), ("b", "1"),
                          ("0", "c"), ("c", "1")])


# -- parsing -------------------------------------------------------------------


def test_parse_nested_ops():
    sig = signature(("f", 1, "join"))
    t = parse_term("(join (op f x) (op f y))", sig)
    assert t == Join(RelOp("f", (Var("x"),)), RelOp("f", (Var("y"),)))


def test_parse_imp_and_neg():
    t = parse_term("(imp x bot)")
    assert t == Imp(Var("x"), Bot())
    assert parse_term("(neg top)") == Neg(Top())


def test_parse_var_form_equals_bare_atom():
    assert parse_term("(var x)") == parse_term("x") == Var("x")


def test_round_trip_printer():
    sig = signature(("f", 1, "join"), ("c", 0, "join"))
    for text in ["x", "bot", "top", "(meet x y)", "(join (op f x) bot)",
                 "(op c)", "(imp (neg x) y)"]:
        t = parse_term(text, sig)
        assert parse_term(to_sexpr(t), sig) == t


def test_parse_arity_mismatch():
    sig = signature(("f", 1, "join"))
    with pytest.raises(ArityMismatch):
        parse_term("(op f x y)", sig)


def test_parse_unknown_operation():
    sig = signature(("f", 1, "join"))
    with pytest.raises(UnknownOperation):
        parse_term("(op g x)", sig)


def test_parse_syntax_errors():
    for bad in ["", "(", ")", "(meet x)", "(op)", "(nonsense x)", "()",
                "(meet x y) trailing", "(var (meet x y))"]:
        with pytest.raises(TermSyntaxError):
            parse_term(bad)


def test_keyword_cannot_be_variable():
    with pytest.raises(TermSyntaxError):
        parse_term("(meet op x)")


def test_parse_equation_doc():
    sig = signature(("f", 1, "join"))
    eq = parse_equation({"lhs": "(op f x)", "rhs": "x"}, sig)
    assert eq.variables() == ["x"]
    assert not eq.uses_heyting()
    assert parse_equation({"lhs": "(neg x)", "rhs": "x"}).uses_heyting()


# -- evaluation -----------------------------------------------------------------


def test_eval_variable_and_bounds():
    lat = chain(3)
    algebra = ConvAlgebra(lat, z2())
    alpha = algebra.function([1, 2])
    assert eval_term(parse_term("(var x)"), algebra, {"x": alpha}) == alpha
    assert eval_term(parse_term("bot"), algebra, {}) == algebra.bot()
    assert eval_term(parse_term("top"), algebra, {}) == algebra.top()


def test_eval_matches_convolution_example():
    lat = chain(3)
    algebra = ConvAlgebra(lat, z2())
    t = parse_term("(op * x y)", z2().signature)
    out = eval_term(t, algebra, {"x": algebra.function([1, 2]),
                                 "y": algebra.function([2, 1])})
    assert out.values == (1, 2)


def test_distributivity_agrees_on_boolean_lattice():
    lat = boolean(2)
    lhs = parse_term("(meet x (join y z))")
    rhs = parse_term("(join (meet x y) (meet x z))")
    for x in range(lat.size):
        for y in range(lat.size):
            for z in range(lat.size):
                env = {"x": x, "y": y, "z": z}
                assert eval_term(lhs, lat, env) == eval_term(rhs, lat, env)


def test_eval_over_bare_lattice_heyting():
    lat = chain(3)
    assert eval_term(parse_term("(imp x bot)"), lat, {"x": 1}) == 0
    with pytest.raises(UnknownOperation):
        eval_term(parse_term("(op f x)"), lat, {"x": 0})


def test_eval_over_subsets_uses_boolean_negation():
    s = SubsetAlgebra(z2())
    out = eval_term(parse_term("(neg x)"), s, {"x": frozenset({0})})
    assert out == frozenset({1})
    out = eval_term(parse_term("(imp x y)"), s,
                    {"x": frozenset({0}), "y": frozenset()})
    assert out == frozenset({1})


def test_eval_neg_requires_distributive():
    algebra = ConvAlgebra(n5(), z2())
    with pytest.raises(NotHeyting):
        eval_term(parse_term("(neg x)"), algebra, {"x": algebra.bot()})


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_term(parse_term("(meet x y)"), chain(2), {"x": 0})


# -- equation checking ----------------------------------------------------------------


def test_operator_law_valid_on_small_frame():
    lat = chain(3)
    frame = build_structure(2, signature(("f", 1, "join")), [{(0, 1), (1, 1)}])
    algebra = ConvAlgebra(lat, frame)
    eq = parse_equation({"lhs": "(op f (join x y))",
                         "rhs": "(join (op f x) (op f y))"}, frame.signature)
    v = check_equation(eq, algebra)
    assert v.status == "valid_exhaustive"
    assert v.tried == 81


def test_meet_hom_counterexample_and_reproducibility():
    lat = chain(2)
    frame = build_structure(2, signature(("f", 1, "join")), [{(0, 1), (1, 1)}])
    algebra = ConvAlgebra(lat, frame)
    eq = parse_equation({"lhs": "(op f (meet x y))",
                         "rhs": "(meet (op f x) (op f y))"}, frame.signature)
    v = check_equation(eq, algebra)
    assert v.status == "counterexample"
    # The reported assignment really violates the equation.
    assert eval_term(eq.lhs, algebra, v.assignment) != \
        eval_term(eq.rhs, algebra, v.assignment)
    # The characteristic-function pair is also a violation.
    env = {"x": algebra.function([1, 0]), "y": algebra.function([0, 1])}
    assert eval_term(eq.lhs, algebra, env) != eval_term(eq.rhs, algebra, env)
    # Deterministic: re-running returns the same minimal assignment.
    again = check_equation(eq, algebra)
    assert again.assignment == v.assignment


def test_x_equals_x_everywhere():
    eq = Equation(Var("x"), Var("x"))
    for algebra in (chain(4), SubsetAlgebra(z2()), ConvAlgebra(chain(3), z2())):
        assert check_equation(eq, algebra).status == "valid_exhaustive"


def test_ground_equation_has_single_assignment():
    eq = Equation(Bot(), Top())
    v = check_equation(eq, chain(2))
    assert v.status == "counterexample" and v.tried == 1


def test_budget_exceeded_in_exhaustive_mode():
    algebra = ConvAlgebra(chain(3), z2())
    eq = Equation(Meet(Var("x"), Var("y")), Meet(Var("y"), Var("x")))
    with pytest.raises(BudgetExceeded):
        check_equation(eq, algebra, mode="exhaustive", budget=10)


def test_auto_mode_downgrades_to_sampling():
    algebra = ConvAlgebra(chain(3), z2())
    eq = Equation(Meet(Var("x"), Var("y")), Meet(Var("y"), Var("x")))
    v = check_equation(eq, algebra, budget=10, samples=25, seed=0)
    assert v.status == "valid_sampled"
    assert v.samples == 25 and v.seed == 0


def test_sampled_counterexamples_are_sound():
    # Any counterexample a sampled run reports must re-evaluate to a
    # violation, and the exhaustive verdict must agree on invalidity.
    lat = n5()
    algebra = ConvAlgebra(lat, z2())
    eq = parse_equation({"lhs": "(op * (op * x y) z)",
                         "rhs": "(op * x (op * y z))"}, z2().signature)
    for seed in range(5):
        v = check_equation(eq, algebra, mode="sample", samples=400, seed=seed)
        if v.status == "counterexample":
            assert eval_term(eq.lhs, algebra, v.assignment) != \
                eval_term(eq.rhs, algebra, v.assignment)
    assert check_equation(eq, algebra).status == "counterexample"


def test_counterexample_is_least_in_enumeration_order():
    lat = chain(2)
    frame = build_structure(2, signature(("f", 1, "join")), [{(0, 1), (1, 1)}])
    algebra = ConvAlgebra(lat, frame)
    eq = parse_equation({"lhs": "(op f (meet x y))",
                         "rhs": "(meet (op f x) (op f y))"}, frame.signature)
    verdict = check_equation(eq, algebra)
    carrier = algebra.carrier_list()
    names = eq.variables()
    from itertools import product as iproduct
    first = next(
        dict(zip(names, combo)) for combo in iproduct(carrier, repeat=len(names))
        if eval_term(eq.lhs, algebra, dict(zip(names, combo)))
        != eval_term(eq.rhs, algebra, dict(zip(names, combo))))
    assert verdict.assignment == first


def test_sample_agrees_with_exhaustive_on_small_pool():
    # Soundness sweep: wherever sampling claims a counterexample, the
    # exhaustive check is also invalid (never the other way around).
    from convalg.checks import default_equation_pool
    from convalg.catalog import n5 as pent, structure_pool
    pool_structures = dict(structure_pool())
    for sname in ("frame2-succ", "mixed2", "z2-group"):
        s = pool_structures[sname]
        for lat in (chain(3), pent()):
            algebra = ConvAlgebra(lat, s)
            for label, eq in default_equation_pool(s.signature):
                sampled = check_equation(eq, algebra, mode="sample",
                                         samples=60, seed=1)
                full = check_equation(eq, algebra, mode="exhaustive")
                if sampled.status == "counterexample":
                    assert full.status == "counterexample", (sname, label)


def test_sampling_is_seed_deterministic():
    algebra = ConvAlgebra(chain(3), z2())
    eq = Equation(RelOp("*", (Var("x"), Var("y"))),
                  RelOp("*", (Var("y"), Var("x"))))
    a = check_equation(eq, algebra, mode="sample", samples=100, seed=42)
    b = check_equation(eq, algebra, mode="sample", samples=100, seed=42)
    assert a.status == b.status and a.assignment == b.assignment


def test_verdict_json():
    algebra = ConvAlgebra(chain(2), z2())
    eq = Equation(RelOp("id", ()), Top())
    v = check_equation(eq, algebra)
    doc = v.to_json()
    assert doc["status"] == "counterexample"
    assert doc["stats"]["assignments"] == 1


def test_ordered_carrier_restricts_variables():
    s = build_structure(2, signature(("dia", 1, "join")),
                        [{(0, 0), (0, 1), (1, 1)}], order_pairs=[(0, 1)])
    algebra = ConvAlgebra(chain(2), s, ordered=True)
    eq = Equation(Var("x"), Var("x"))
    v = check_equation(eq, algebra)
    assert v.tried == 3  # only the order-preserving functions


def test_ordered_algebra_samples_over_budget():
    # 4**3 = 64 functions exceed the budget of 63, so both auto and sample
    # mode draw functions and keep the order-preserving ones.
    full = {(a, b) for a in range(3) for b in range(3)}
    s = build_structure(3, signature(("f", 1, "join")), [full],
                        order_pairs=[(0, 1), (1, 2)])
    algebra = ConvAlgebra(chain(4), s, ordered=True)
    law = parse_equation({"lhs": "(meet x (join x (op f x)))", "rhs": "x"},
                         s.signature)
    for mode in ("auto", "sample"):
        v = check_equation(law, algebra, mode=mode, budget=63, seed=5)
        assert v.status == "valid_sampled" and v.tried == 63
    wrong = parse_equation({"lhs": "(op f x)", "rhs": "x"}, s.signature)
    v = check_equation(wrong, algebra, budget=63, seed=5)
    assert v.status == "counterexample"
    assert algebra.is_order_preserving(v.assignment["x"])
    with pytest.raises(BudgetExceeded):
        check_equation(law, algebra, mode="exhaustive", budget=63)


def test_ordered_check_filters_the_carrier_once(monkeypatch):
    # One exhaustive check enumerates the ordered carrier once: for the mode
    # choice and the grid, and also when the grid moves on to code tables
    # (20**3 assignments outnumber the 64**2 table entries).
    full = {(a, b) for a in range(3) for b in range(3)}
    s = build_structure(3, signature(("f", 1, "join")), [full],
                        order_pairs=[(0, 1), (1, 2)])
    algebra = ConvAlgebra(chain(4), s, ordered=True)
    calls = []
    carrier_codes = ConvAlgebra.carrier_codes
    monkeypatch.setattr(ConvAlgebra, "carrier_codes", lambda self, budget=None:
                        calls.append(budget) or carrier_codes(self, budget))
    laws = [("(meet x (join x (op f x)))", "x", 20),
            ("(op f (join x y))", "(join (op f x) (op f y))", 400),
            ("(join (join x y) z)", "(join x (join y z))", 8000)]
    for lhs, rhs, tried in laws:
        calls.clear()
        v = check_equation(parse_equation({"lhs": lhs, "rhs": rhs}, s.signature), algebra)
        assert (v.status, v.tried, len(calls)) == ("valid_exhaustive", tried, 1)


@pytest.mark.parametrize("options", [{"budget": 0}, {"budget": -5},
                                     {"mode": "sample", "samples": 0},
                                     {"mode": "exhaustive", "budget": 0}])
def test_budget_and_samples_below_one_are_rejected(options):
    # A false law must never come back "valid" from an empty check.
    algebra = ConvAlgebra(chain(3), z2())
    eq = Equation(Meet(Var("x"), Var("y")), Var("x"))
    with pytest.raises(ValueError):
        check_equation(eq, algebra, **options)
