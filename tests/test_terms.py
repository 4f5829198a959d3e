"""Parser, evaluator, and equation checking."""

from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_convolution import (lattices, oracle_glb_set, oracle_lub_set,
                              oracle_term, structures, terms)

from convalg import terms as terms_module
from convalg.catalog import boolean, chain, m3, symmetric_group_3
from convalg.convolution import ConvAlgebra, SubsetAlgebra
from convalg.errors import (ArityMismatch, BudgetExceeded, NotHeyting,
                            TermSyntaxError, UnboundVariable,
                            UnknownOperation)
from convalg.lattice import build_lattice
from convalg.structures import build_structure, from_group, signature
from convalg.terms import (Bot, Equation, Imp, Join, Meet, Neg, RelOp, Top,
                           Var, _generators, check_equation, eval_term,
                           parse_equation, parse_term, to_sexpr)


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
    # choice and the grid, and also when the grid runs on code tables
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


# -- reduction to the irreducible generators ------------------------------------


def mixed():
    """Two points; join-mode f, r and meet-mode g, h, each relating every
    tuple of points."""
    sig = signature(("f", 1, "join"), ("g", 1, "meet"), ("r", 2, "join"), ("h", 2, "meet"))
    pairs, triples = set(product(range(2), repeat=2)), set(product(range(2), repeat=3))
    return build_structure(2, sig, [pairs, pairs, triples, triples])


def family(algebra, eq):
    """'join' or 'meet' for the generators the reduction picks, or None."""
    rows = _generators(algebra, eq, eq.variables(), 10 ** 6)
    if rows is None:
        return None
    return "join" if (rows == algebra.lattice.bottom).all(axis=-1).any() else "meet"


@pytest.mark.parametrize("lhs, rhs, expect", [
    ("(op r (op r x y) z)", "(op r x (op r y z))", "join"),
    # c occurs twice on the right, in separate joinands: relation-algebra law 3
    ("(op r (join a b) c)", "(join (op r a c) (op r b c))", "join"),
    ("(meet x (op f y))", "(op f (meet y top))", "join"),
    ("(join x top)", "top", "join"),
    ("(op h (op h x y) z)", "(op h x (op h y z))", "meet"),
    ("(op g (meet x y))", "(meet (op g x) (op g y))", "meet"),
    ("(meet x x)", "x", "meet"),
    ("(meet x (join x y))", "x", "meet"),
    ("(op g x)", "bot", "meet"),
    # neg and imp of constants are constant, so linear
    ("(join x (neg top))", "x", "join"),
    ("(meet (op r x y) (imp top top))", "(op r x y)", "join"),
    ("(meet x (op f x))", "bot", None),
    ("(op r x x)", "x", None),
    ("(op f (op g x))", "(op g (op f x))", None),
    ("(neg x)", "(neg x)", None),
    ("(imp x y)", "(imp x y)", None),
])
def test_reduction_gate_follows_the_linearity_rule(lhs, rhs, expect):
    algebra = ConvAlgebra(chain(3), mixed())
    eq = parse_equation({"lhs": lhs, "rhs": rhs}, algebra.structure.signature)
    assert family(algebra, eq) == expect


def test_reduction_decides_over_budget_laws_exactly():
    # 729**3 assignments, 13**3 over bottom and the 2 * 6 generators.
    algebra = ConvAlgebra(chain(3), symmetric_group_3())
    sig = algebra.structure.signature
    assoc = parse_equation({"lhs": "(op * (op * x y) z)",
                            "rhs": "(op * x (op * y z))"}, sig)
    v = check_equation(assoc, algebra, budget=10_000)
    assert (v.status, v.tried, v.samples, v.generators) == ("valid_exhaustive", 2197, None, 13)
    assert v.to_json()["stats"] == {"assignments": 2197, "budget": 10_000,
                                    "path": "irreducibles", "generators": 13}
    comm = parse_equation({"lhs": "(op * x y)", "rhs": "(op * y x)"}, sig)
    v = check_equation(comm, algebra, budget=10_000)
    assert v.status == "counterexample" and v.generators == 13
    assert eval_term(comm.lhs, algebra, v.assignment) != eval_term(comm.rhs, algebra, v.assignment)
    # A bare lattice runs as L^1: 8**3 assignments over boolean3, 4**3
    # over bottom and its 3 atoms.
    dist = parse_equation({"lhs": "(meet x (join y z))",
                           "rhs": "(join (meet x y) (meet x z))"})
    v = check_equation(dist, boolean(3), budget=100)
    assert (v.status, v.tried, v.generators) == ("valid_exhaustive", 64, 4)


def test_meet_linear_laws_reduce_on_meet_irreducibles():
    # (op g x) = bot holds at bottom and at every join-irreducible on one
    # point, but fails at top; the meet generators include top.
    algebra = ConvAlgebra(chain(2), mixed())
    eq = parse_equation({"lhs": "(op g x)", "rhs": "bot"}, algebra.structure.signature)
    v = check_equation(eq, algebra, budget=3)
    assert (v.status, v.generators) == ("counterexample", 3)
    assert v.assignment == {"x": algebra.top()}


def test_reduction_forms_no_codes_beyond_int64():
    # 2**64 elements: their codes wrap in int64, so generators decoded from
    # codes would carry a stray 1 at point 0, where f(x) = x(0) reads.
    # x <= f(x) holds there and at bottom, and fails at each other point.
    n = 64
    structure = build_structure(n, signature(("f", 1, "join")), [{(0, y) for y in range(n)}])
    algebra = ConvAlgebra(chain(2), structure)
    eq = parse_equation({"lhs": "(join (op f x) x)", "rhs": "(op f x)"}, structure.signature)
    v = check_equation(eq, algebra)
    assert (v.status, v.generators, v.tried) == ("counterexample", 65, 2)
    assert v.assignment["x"].values == (0,) * (n - 1) + (1,)


def test_reduction_builds_no_code_tables():
    # 5**4 reduced assignments outnumber the 16**2 entries of a table, so
    # an ordinary grid of that size would run on code tables.
    algebra = ConvAlgebra(boolean(2), z2())
    eq = parse_equation({"lhs": "(op * (op * (op * x y) z) w)",
                         "rhs": "(op * x (op * y (op * z w)))"}, z2().signature)
    v = check_equation(eq, algebra, budget=1000)
    assert (v.status, v.tried, v.generators) == ("valid_exhaustive", 625, 5)
    assert algebra._tables == {}


def _assoc(structure):
    return parse_equation({"lhs": "(op * (op * x y) z)",
                           "rhs": "(op * x (op * y z))"}, structure.signature)


def _first_chunk_widths(monkeypatch):
    """Records, for each later search, the width of the rows its first
    chunk is given in: 1 for codes, |X| for value rows."""
    widths, first_failure = [], terms_module._first_failure
    monkeypatch.setattr(terms_module, "_first_failure", lambda total, alg, rows, broken: widths.append(
        rows(0, 1)[0].shape[-1]) or first_failure(total, alg, rows, broken))
    return widths


def test_code_tables_serve_the_whole_grid(monkeypatch):
    # 9**3 assignments over chain3/Z2 outnumber the 81-entry tables, so the
    # whole grid runs on codes, first chunk included, and its verdicts are
    # those of the value grid; the second law fails at 94, past that chunk.
    laws = [_assoc(z2()), parse_equation({"lhs": "(meet (op * x y) z)",
                                          "rhs": "(meet (op * x z) y)"}, z2().signature)]
    widths = _first_chunk_widths(monkeypatch)
    algebra = ConvAlgebra(chain(3), z2())
    coded = [check_equation(law, algebra) for law in laws]
    assert widths == [1, 1] and 0 in algebra._tables
    assert [(v.status, v.tried) for v in coded] == [("valid_exhaustive", 729),
                                                    ("counterexample", 94)]
    monkeypatch.setattr(terms_module, "_tabled", lambda alg, eq, total: None)
    widths.clear()
    assert [check_equation(law, ConvAlgebra(chain(3), z2())) for law in laws] == coded
    assert widths == [2, 2]


def test_a_grid_within_the_first_chunk_builds_no_code_tables(monkeypatch):
    # 4**3 assignments over chain2/Z2 outnumber the 16-entry tables, but
    # they fit in the first chunk of 64.
    widths = _first_chunk_widths(monkeypatch)
    algebra = ConvAlgebra(chain(2), z2())
    v = check_equation(_assoc(z2()), algebra)
    assert (v.status, v.tried, widths) == ("valid_exhaustive", 64, [2])
    assert algebra._tables == {}


def _ordered_frame():
    full = {(a, b) for a in range(3) for b in range(3)}
    s = build_structure(3, signature(("f", 1, "join")), [full],
                        order_pairs=[(0, 1), (1, 2)])
    law = parse_equation({"lhs": "(op f (join x y))",
                          "rhs": "(join (op f x) (op f y))"}, s.signature)
    return ConvAlgebra(chain(4), s, ordered=True), law


@pytest.mark.parametrize("case", [
    # each reduced grid would fit its budget
    lambda: (ConvAlgebra(m3(), z2()), _assoc(z2()), {"budget": 1000}),
    lambda: (ConvAlgebra(n5(), z2()), _assoc(z2()), {"budget": 1000}),
    lambda: _ordered_frame() + ({"budget": 100},),
    lambda: (SubsetAlgebra(z2()), _assoc(z2()), {"budget": 30}),
    lambda: (ConvAlgebra(chain(3), z2()),
             parse_equation({"lhs": "(join x (neg x))", "rhs": "top"}), {"budget": 5}),
    lambda: (ConvAlgebra(chain(3), z2()),
             parse_equation({"lhs": "(imp x y)", "rhs": "(imp y x)"}), {"budget": 30}),
    lambda: (ConvAlgebra(chain(2), mixed()),
             parse_equation({"lhs": "(meet x (op f x))", "rhs": "bot"}, mixed().signature),
             {"budget": 3}),
    lambda: (ConvAlgebra(chain(3), symmetric_group_3()), _assoc(symmetric_group_3()),
             {"mode": "sample", "budget": 10_000}),
])
def test_reduction_never_runs_outside_its_gate(case):
    algebra, eq, options = case()
    v = check_equation(eq, algebra, **options)
    assert v.samples is not None
    assert v.generators is None and "path" not in v.to_json()["stats"]


def test_exhaustive_mode_never_reduces():
    algebra = ConvAlgebra(chain(3), symmetric_group_3())
    with pytest.raises(BudgetExceeded):
        check_equation(_assoc(symmetric_group_3()), algebra, mode="exhaustive", budget=10_000)


def reference_generators(lat, n, dual):
    """Bottom and each join-irreducible j of L at one point (bottom elsewhere)
    as value tuples, in code order; dually top and the meet-irreducibles.
    An element is irreducible when the join of the elements strictly below
    it (the meet of those strictly above) is not the element itself."""
    size, leq = lat.size, lat.leq
    if dual:
        unit = oracle_lub_set(lat, range(size))
        irreducible = [a for a in range(size) if oracle_glb_set(
            lat, [b for b in range(size) if b != a and leq[a][b]]) != a]
    else:
        unit = oracle_glb_set(lat, range(size))
        irreducible = [a for a in range(size) if oracle_lub_set(
            lat, [b for b in range(size) if b != a and leq[b][a]]) != a]
    rows = [(unit,) * n] + [tuple(j if y == x else unit for y in range(n))
                            for x in range(n) for j in irreducible]
    return sorted(rows)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_reduced_verdict_matches_the_grid(data):
    """Random distributive lattices, structures and negation-free equations
    that the reduction accepts at a budget one below the full grid: the
    verdict's validity is the exhaustive grid's, it runs over the
    generators of one of the two families by a loop, and a counterexample
    is the first in their code order and has distinct sides."""
    lat = data.draw(lattices().filter(lambda lat: lat.is_distributive and lat.size <= 6))
    structure = data.draw(structures())
    algebra = ConvAlgebra(lat, structure)
    term = terms(structure.signature.rel_specs, False)
    eq = Equation(data.draw(term), data.draw(term))
    names = eq.variables()
    total = algebra.space_size() ** len(names)
    assume(2 <= total <= 50_000)
    verdict = check_equation(eq, algebra, budget=total - 1)
    assume(verdict.generators is not None)

    full = check_equation(eq, algebra, mode="exhaustive")
    assert verdict.is_valid == full.is_valid
    assert verdict.samples is None and verdict.seed is None
    n = structure.carrier_size
    families = [reference_generators(lat, n, dual) for dual in (False, True)]
    if verdict.is_valid:
        assert verdict.status == "valid_exhaustive"
        assert verdict.tried in [len(gens) ** len(names) for gens in families]
        return
    env = {k: f.values for k, f in verdict.assignment.items()}
    assert oracle_term(eq.lhs, lat, structure, env) != oracle_term(eq.rhs, lat, structure, env)

    def first_failure(gens):
        combos = product(gens, repeat=len(names))
        for k, combo in zip(range(verdict.tried), combos):
            env = dict(zip(names, combo))
            if oracle_term(eq.lhs, lat, structure, env) != \
                    oracle_term(eq.rhs, lat, structure, env):
                return k + 1, {name: algebra.function(v) for name, v in env.items()}
        return None
    assert (verdict.tried, verdict.assignment) in [first_failure(gens) for gens in families]
