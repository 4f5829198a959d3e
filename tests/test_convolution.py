"""Convolution and complex operations against a from-scratch oracle.

The oracle below evaluates the defining formulas directly: it walks the
relation tuples, computes meets/joins by scanning the order matrix, and
never touches the precomputed tables or the batched kernel of the
implementation under test.
"""

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convalg import convolution
from convalg.catalog import boolean, chain, m3, n5, structure_pool
from convalg.convolution import (ConvAlgebra, LFunction, SubsetAlgebra,
                                 delta_decompose, enumerate_functions,
                                 is_lattice_morphism, iso_phi, iso_phi_inv,
                                 lfunction_from_labels, lift_lattice_morphism,
                                 product_iso, product_iso_inv,
                                 pullback_pmorphism)
from convalg.errors import (ArityMismatch, BudgetExceeded, IndexOutOfRange,
                            NotAMorphism, NotAPMorphism, NotAProductLattice,
                            NotTwoElement, UnknownElement, WrongMode)
from convalg.structures import (JOIN, MEET, build_structure, from_group,
                                full_structure, signature)
from convalg.terms import (Bot, Equation, Imp, Join, Meet, Neg, RelOp, Top,
                           Var, check_equation, eval_term, parse_term)


def chain3():
    return chain(3)


def z2():
    return from_group([[0, 1], [1, 0]])


# -- oracle --------------------------------------------------------------------


def oracle_glb_set(lat, elems):
    lower = [c for c in range(lat.size) if all(lat.leq[c, e] for e in elems)]
    return next(g for g in lower if all(lat.leq[c, g] for c in lower))


def oracle_lub_set(lat, elems):
    upper = [c for c in range(lat.size) if all(lat.leq[e, c] for e in elems)]
    return next(g for g in upper if all(lat.leq[g, c] for c in upper))


def oracle_conv(lat, structure, i, arg_values, mode):
    """Pointwise evaluation of the defining join/meet-of-tuples formula."""
    n = structure.carrier_size
    rel = structure.relations[i]
    out = []
    for x in range(n):
        contributions = []
        for t in rel:
            if t[-1] != x:
                continue
            pieces = [arg_values[k][t[k]] for k in range(len(t) - 1)]
            if mode == JOIN:
                contributions.append(oracle_glb_set(lat, pieces))
            else:
                contributions.append(oracle_lub_set(lat, pieces))
        if mode == JOIN:
            out.append(oracle_lub_set(lat, contributions))
        else:
            out.append(oracle_glb_set(lat, contributions))
    return tuple(out)


def test_large_lattice_fallback_matches_oracle():
    # A 64-element lattice, larger than any the suites use.
    lat = boolean(6)
    rng = random.Random(11)
    structure = z2()
    algebra = ConvAlgebra(lat, structure)
    for i, spec in enumerate(structure.signature.rel_specs):
        for _ in range(8):
            args = tuple(algebra.random_element(rng)
                         for _ in range(spec.arity))
            got = algebra.op(spec.name, args)
            want = oracle_conv(lat, structure, i,
                               [a.values for a in args], spec.mode)
            assert got.values == want


def test_conv_ops_match_oracle_across_pool():
    rng = random.Random(7)
    lattices = [chain3(), boolean(2)]
    for lat in lattices:
        for name, structure in structure_pool():
            algebra = ConvAlgebra(lat, structure)
            space = lat.size ** structure.carrier_size
            for i, spec in enumerate(structure.signature.rel_specs):
                combos = space ** spec.arity
                if combos <= 120:
                    tuples = product(algebra.carrier_list(), repeat=spec.arity)
                else:
                    tuples = (tuple(algebra.random_element(rng)
                                    for _ in range(spec.arity))
                              for _ in range(40))
                for args in tuples:
                    got = algebra.op(spec.name, args)
                    want = oracle_conv(lat, structure, i,
                                       [a.values for a in args], spec.mode)
                    assert got.values == want, (name, spec.name, args)


# -- random terms against the oracles -------------------------------------------


def oracle_imp(lat, a, b):
    """Largest c with a /\\ c <= b, found by scanning."""
    return oracle_lub_set(lat, [c for c in range(lat.size)
                                if lat.leq[oracle_glb_set(lat, [a, c]), b]])


def oracle_term(t, lat, structure, env):
    """Definition-level value of a term; env maps variables to value tuples."""
    n = structure.carrier_size

    def pointwise(f, *parts):
        return tuple(f(*vals) for vals in zip(*parts))

    def sub(u):
        return oracle_term(u, lat, structure, env)
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Bot):
        return (oracle_glb_set(lat, range(lat.size)),) * n
    if isinstance(t, Top):
        return (oracle_lub_set(lat, range(lat.size)),) * n
    if isinstance(t, Meet):
        return pointwise(lambda a, b: oracle_glb_set(lat, [a, b]), sub(t.lhs), sub(t.rhs))
    if isinstance(t, Join):
        return pointwise(lambda a, b: oracle_lub_set(lat, [a, b]), sub(t.lhs), sub(t.rhs))
    if isinstance(t, Neg):
        bottom = oracle_glb_set(lat, range(lat.size))
        return pointwise(lambda a: oracle_imp(lat, a, bottom), sub(t.arg))
    if isinstance(t, Imp):
        return pointwise(lambda a, b: oracle_imp(lat, a, b), sub(t.lhs), sub(t.rhs))
    i = structure.signature.index(t.name)
    return oracle_conv(lat, structure, i, [sub(u) for u in t.args],
                       structure.signature.rel_specs[i].mode)


@lru_cache(maxsize=None)
def catalog_lattices():
    small = (chain(2), chain(3), chain(4), boolean(2), m3(), n5(),
             chain(2).product(chain(3)))
    return small, (boolean(3), chain(3).product(chain(3))), (boolean(6), chain(70))


@st.composite
def lattices(draw):
    small, parents, large = catalog_lattices()
    kind = draw(st.sampled_from(["small"] * 6 + ["sublattice"] * 3 + ["large"]))
    if kind == "small":
        return draw(st.sampled_from(small))
    if kind == "large":
        return draw(st.sampled_from(large))
    parent = draw(st.sampled_from(parents))
    gens = draw(st.lists(st.integers(0, parent.size - 1), max_size=3))
    return parent.generated_sublattice(gens)[0]


@st.composite
def structures(draw):
    n = draw(st.integers(1, 3))
    specs, rels = [], []
    for k in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(0, 2))
        specs.append((f"r{k}", arity, draw(st.sampled_from([JOIN, MEET]))))
        point = st.integers(0, n - 1)
        rels.append(draw(st.sets(st.tuples(*[point] * (arity + 1)), max_size=6)))
    return build_structure(n, signature(*specs), rels)


def terms(specs, heyting: bool):
    leaves = st.sampled_from([Var("x"), Var("y"), Var("z"), Bot(), Top()])

    def extend(sub):
        forms = [st.builds(Meet, sub, sub), st.builds(Join, sub, sub)]
        for spec in specs:
            forms.append(st.tuples(*[sub] * spec.arity)
                         .map(lambda args, name=spec.name: RelOp(name, args)))
        if heyting:
            forms += [st.builds(Neg, sub), st.builds(Imp, sub, sub)]
        return st.one_of(forms)
    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_batched_evaluation_matches_oracles(data):
    """Random lattices, structures (arities 0-2, both modes) and terms
    (with neg/imp over distributive lattices): single evaluations match the
    definition-level oracle and, over two elements, the subset algebra via
    iso_phi; exhaustive and sampled verdicts match a loop over the oracle.
    Grids beyond their first chunk and larger than q*q run on code tables."""
    lat = data.draw(lattices())
    structure = data.draw(structures())
    algebra = ConvAlgebra(lat, structure)
    term = terms(structure.signature.rel_specs, lat.is_distributive)
    eq = Equation(data.draw(term), data.draw(term))
    names = eq.variables()
    n = structure.carrier_size
    value = st.tuples(*[st.integers(0, lat.size - 1)] * n)

    for _ in range(2):
        env = {"x": data.draw(value), "y": data.draw(value), "z": data.draw(value)}
        funcs = {k: algebra.function(v) for k, v in env.items()}
        got = eval_term(eq.lhs, algebra, funcs)
        assert got.values == oracle_term(eq.lhs, lat, structure, env)
        if lat.size == 2:
            subsets = {k: iso_phi(f) for k, f in funcs.items()}
            assert eval_term(eq.lhs, SubsetAlgebra(structure), subsets) == iso_phi(got)

    def first_difference(eq, combos):
        for k, combo in enumerate(combos):
            env = dict(zip(eq.variables(), combo))
            if oracle_term(eq.lhs, lat, structure, env) != \
                    oracle_term(eq.rhs, lat, structure, env):
                return k + 1, {name: algebra.function(v) for name, v in env.items()}
        return None

    def agrees(verdict, expect, valid_status, count):
        if expect is None:
            return (verdict.status, verdict.tried) == (valid_status, count)
        return (verdict.status, verdict.tried, verdict.assignment) == \
            ("counterexample",) + expect

    # Both sides met with x /\ y /\ z: a 3-variable law whose first
    # counterexample, if any, has no bottom-valued variable, so it tends to
    # lie past the first chunk, deep in a grid that may run on code tables.
    below = Meet(Var("x"), Meet(Var("y"), Var("z")))
    guarded = Equation(Meet(eq.lhs, below), Meet(eq.rhs, below))
    for law in (eq, guarded):
        total = (lat.size ** n) ** len(law.variables())
        if lat.size <= 8 and total <= 2000:
            carrier = [f.values for f in algebra.carrier_list()]
            verdict = check_equation(law, algebra, mode="exhaustive")
            combos = product(carrier, repeat=len(law.variables()))
            assert agrees(verdict, first_difference(law, combos),
                          "valid_exhaustive", total)
            if lat.size == 2:
                subsets = check_equation(law, SubsetAlgebra(structure), mode="exhaustive")
                assert subsets.is_valid == verdict.is_valid

    seed = data.draw(st.integers(0, 2 ** 16))
    verdict = check_equation(eq, algebra, mode="sample", samples=12, seed=seed)
    rng = random.Random(seed)
    draws = [[tuple(rng.randrange(lat.size) for _ in range(n)) for _ in names]
             for _ in range(12)]
    assert agrees(verdict, first_difference(eq, draws), "valid_sampled", 12)


# -- pinned examples --------------------------------------------------------------


def test_z2_convolution_pair_formula():
    # (a0,a1)*(b0,b1) = (a0b0 + a1b1, a0b1 + a1b0), meet as product and
    # join as sum, for every pair over the 3-chain.
    lat = chain3()
    algebra = ConvAlgebra(lat, z2())
    meet, join = lat.meet_table, lat.join_table
    for a0, a1, b0, b1 in product(range(3), repeat=4):
        out = algebra.op("*", (algebra.function([a0, a1]),
                               algebra.function([b0, b1])))
        expect = (join[meet[a0][b0]][meet[a1][b1]],
                  join[meet[a0][b1]][meet[a1][b0]])
        assert out.values == expect


def test_conv_example_three_chain():
    lat = chain3()
    algebra = ConvAlgebra(lat, z2())
    m, one = 1, 2
    out = algebra.op("*", (algebra.function([m, one]), algebra.function([one, m])))
    assert out.values == (m, one)


def test_empty_relation_yields_constants():
    lat = chain3()
    sig = signature(("f", 1, JOIN), ("g", 1, MEET))
    s = build_structure(2, sig, [set(), set()])
    algebra = ConvAlgebra(lat, s)
    alpha = algebra.function([2, 1])
    assert algebra.op("f", (alpha,)) == algebra.bot()
    assert algebra.op("g", (alpha,)) == algebra.top()


def test_nullary_conventions():
    lat = chain3()
    sig = signature(("k", 0, JOIN), ("l", 0, MEET))
    s = build_structure(3, sig, [{(1,)}, {(1,)}])
    algebra = ConvAlgebra(lat, s)
    # Join-mode constant: top on the relation, bottom off it.
    assert algebra.op("k", ()).values == (0, 2, 0)
    # Meet-mode constant: bottom on the relation, top off it.
    assert algebra.op("l", ()).values == (2, 0, 2)


def test_dual_unary_example_from_two_chain():
    lat = chain(2)
    s = build_structure(2, signature(("g", 1, MEET)), [{(0, 1), (1, 1)}])
    algebra = ConvAlgebra(lat, s)
    chi0 = algebra.function([1, 0])
    out = algebra.op("g", (chi0,))
    assert out.values == (1, 0)  # empty meet at 0, meet of both values at 1


def test_wrong_mode_and_arity_errors():
    algebra = ConvAlgebra(chain3(), z2())
    alpha = algebra.function([0, 1])
    with pytest.raises(WrongMode):
        algebra.dual_conv("*", (alpha, alpha))
    with pytest.raises(ArityMismatch):
        algebra.conv("*", (alpha,))
    with pytest.raises(UnknownElement):
        algebra.op("*", (alpha, LFunction([0, 1], boolean(2))))


def test_monotone_in_every_argument():
    lat = chain3()
    algebra = ConvAlgebra(lat, z2())
    funcs = algebra.carrier_list()
    for spec in z2().signature.rel_specs:
        if spec.arity == 0:
            continue
        for args in product(funcs, repeat=spec.arity):
            base = algebra.op(spec.name, args)
            for k in range(spec.arity):
                for g in funcs:
                    if args[k].le(g):
                        bigger = list(args)
                        bigger[k] = g
                        assert base.le(algebra.op(spec.name, tuple(bigger)))


# -- complex algebra ----------------------------------------------------------------


def test_complex_join_mode_examples():
    s = SubsetAlgebra(z2())
    assert s.op("*", (frozenset({0}), frozenset({1}))) == frozenset({1})
    assert s.op("*", (frozenset(), frozenset({0, 1}))) == frozenset()
    assert s.op("conv", (frozenset({1}),)) == frozenset({1})
    assert s.op("id", ()) == frozenset({0})


def test_complex_algebra_rejects_points_outside_the_carrier():
    s = SubsetAlgebra(z2())
    with pytest.raises(IndexOutOfRange):
        eval_term(parse_term("(join x y)"), s, {"x": frozenset({7}), "y": frozenset()})
    with pytest.raises(IndexOutOfRange):
        s.op("*", [frozenset({9}), frozenset({0})])
    with pytest.raises(IndexOutOfRange):
        s.op("conv", [frozenset({-1})])


def test_complex_meet_mode_nabla():
    structure = build_structure(2, signature(("g", 1, MEET)),
                                [{(a, b) for a in range(2) for b in range(2)}])
    s = SubsetAlgebra(structure)
    # Every point has both predecessors, so {0} never covers them all.
    assert s.op("g", (frozenset({0}),)) == frozenset()
    assert s.op("g", (frozenset({0, 1}),)) == frozenset({0, 1})


def test_iso_phi_examples_and_round_trip():
    lat = chain(2)
    frame = full_structure(3)
    algebra = ConvAlgebra(lat, frame)
    assert iso_phi(algebra.function([1, 0, 1])) == frozenset({0, 2})
    assert iso_phi(algebra.bot()) == frozenset()
    for f in algebra.carrier_list():
        back = iso_phi_inv(iso_phi(f), lat, 3)
        assert back.values == f.values


def test_iso_phi_inv_rejects_points_outside_the_carrier():
    with pytest.raises(IndexOutOfRange):
        iso_phi_inv(frozenset({5}), chain(2), 2)
    with pytest.raises(IndexOutOfRange):
        iso_phi_inv(frozenset({-1}), chain(2), 2)
    assert iso_phi_inv(frozenset({1}), chain(2), 2).values == (0, 1)


def test_iso_phi_requires_two_elements():
    algebra = ConvAlgebra(chain3(), z2())
    with pytest.raises(NotTwoElement):
        iso_phi(algebra.function([0, 1]))
    with pytest.raises(NotTwoElement):
        iso_phi_inv(frozenset(), chain3(), 2)


def test_iso_phi_transports_all_operations():
    lat = chain(2)
    for name, structure in structure_pool():
        algebra = ConvAlgebra(lat, structure)
        subsets = SubsetAlgebra(structure)
        funcs = algebra.carrier_list()
        for spec in structure.signature.rel_specs:
            for args in product(funcs, repeat=spec.arity):
                assert iso_phi(algebra.op(spec.name, args)) == \
                    subsets.op(spec.name, [iso_phi(a) for a in args]), name


# -- functorial maps ------------------------------------------------------------------


def test_lift_morphism_example():
    lat3, lat2 = chain3(), chain(2)
    phi = [0, 1, 1]
    ok, _ = is_lattice_morphism(phi, lat3, lat2)
    assert ok
    alpha = LFunction([1, 0], lat3)
    lifted = lift_lattice_morphism(phi, lat2, alpha)
    assert lifted.values == (1, 0)


def test_collapsing_map_still_validates():
    # 0,m -> 0 and 1 -> 1 preserves bounds, meets and joins on the chain.
    ok, witness = is_lattice_morphism([0, 0, 1], chain3(), chain(2))
    assert ok, witness


def test_lift_morphism_rejects_non_morphism():
    # Swapping the bounds cannot be a morphism.
    with pytest.raises(NotAMorphism):
        lift_lattice_morphism([1, 0], chain(2), LFunction([0, 1], chain(2)))


def test_identity_lift_is_identity():
    lat = chain3()
    alpha = LFunction([2, 0], lat)
    assert lift_lattice_morphism([0, 1, 2], lat, alpha).values == alpha.values


def test_lift_commutes_with_convolution():
    lat3, lat2 = chain3(), chain(2)
    phi = [0, 1, 1]
    dom = ConvAlgebra(lat3, z2())
    cod = ConvAlgebra(lat2, z2())
    for args in product(dom.carrier_list(), repeat=2):
        lifted = lift_lattice_morphism(phi, lat2, dom.op("*", args),
                                       validate=False)
        pushed = cod.op("*", tuple(
            cod.function(lift_lattice_morphism(phi, lat2, a, validate=False).values)
            for a in args))
        assert lifted.values == pushed.values


def test_pullback_examples():
    lat = chain3()
    dom = build_structure(4, signature(("r", 1, JOIN)),
                          [{(i, (i + 1) % 4) for i in range(4)}])
    cod = build_structure(2, signature(("r", 1, JOIN)), [{(0, 1), (1, 0)}])
    p = [0, 1, 0, 1]
    beta = LFunction([2, 0], lat)
    pulled = pullback_pmorphism(p, dom, cod, beta)
    assert pulled.values == (2, 0, 2, 0)
    top = LFunction([2, 2], lat)
    assert pullback_pmorphism(p, dom, cod, top).values == (2, 2, 2, 2)


def test_pullback_rejects_non_p_morphism():
    dom = build_structure(2, signature(("r", 1, JOIN)), [{(0, 1)}])
    cod = build_structure(1, signature(("r", 1, JOIN)), [set()])
    with pytest.raises(NotAPMorphism):
        pullback_pmorphism([0, 0], dom, cod, LFunction([0], chain3()))


def test_product_split_merge():
    two = chain(2)
    prod = two.product(two)
    frame = z2()
    algebra = ConvAlgebra(prod, frame)
    funcs = algebra.carrier_list()
    assert len(funcs) == 16
    for alpha in funcs:
        b, c = product_iso(alpha)
        assert product_iso_inv(b, c, prod).values == alpha.values
    const = algebra.function([prod.pair_index(1, 0)] * 2)
    b, c = product_iso(const)
    assert set(b.values) == {1} and set(c.values) == {0}


def test_product_split_commutes_with_ops():
    two = chain(2)
    prod = two.product(two)
    ap = ConvAlgebra(prod, z2())
    a1 = ConvAlgebra(two, z2())
    for args in product(ap.carrier_list(), repeat=2):
        out = ap.op("*", args)
        for side in (0, 1):
            algebra = a1
            lhs = product_iso(out)[side].values
            rhs = algebra.op("*", tuple(
                algebra.function(product_iso(a)[side].values) for a in args)).values
            assert lhs == rhs


def test_product_iso_requires_product_lattice():
    with pytest.raises(NotAProductLattice):
        product_iso(LFunction([0, 1], chain3()))
    with pytest.raises(NotAProductLattice):
        product_iso_inv(LFunction([0], chain(2)), LFunction([0], chain(2)),
                        chain3())


# -- enumeration and decomposition --------------------------------------------------


def test_enumeration_is_lexicographic():
    algebra = ConvAlgebra(chain(2), full_structure(2))
    got = [f.values for f in enumerate_functions(algebra)]
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumeration_counts():
    assert len(list(ConvAlgebra(chain3(), full_structure(2)).elements())) == 9


def test_ordered_enumeration_filters():
    s = build_structure(2, signature(("dia", 1, JOIN)),
                        [{(0, 0), (0, 1), (1, 1)}], order_pairs=[(0, 1)])
    algebra = ConvAlgebra(chain(2), s, ordered=True)
    got = [f.values for f in algebra.elements()]
    assert got == [(0, 0), (0, 1), (1, 1)]  # the decreasing one is excluded


def test_enumeration_budget():
    algebra = ConvAlgebra(chain(2), full_structure(12))
    with pytest.raises(BudgetExceeded) as exc:
        list(enumerate_functions(algebra, budget=1000))
    assert exc.value.required == 4096


def test_carrier_list_checks_budget_on_every_call():
    algebra = ConvAlgebra(chain3(), full_structure(3))
    assert len(algebra.carrier_list()) == 27
    with pytest.raises(BudgetExceeded):
        algebra.carrier_list(5)
    with pytest.raises(BudgetExceeded):
        algebra.carrier_codes(5)


def test_ordered_carrier_matches_a_loop_filter(monkeypatch):
    # Random orders on 1-4 points over chain3 and M3; a small chunk limit
    # makes the array filter run over several chunks.
    monkeypatch.setattr(convolution, "_CHUNK_ENTRIES", 16)
    rng = random.Random(5)
    for _ in range(30):
        lat, n = rng.choice([chain3(), m3()]), rng.randrange(1, 5)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
        perm = rng.sample(range(n), n)
        s = build_structure(n, signature(("f", 1, JOIN)), [set()],
                            order_pairs=[(perm[a], perm[b]) for a, b in pairs])
        algebra = ConvAlgebra(lat, s, ordered=True)
        expect = [v for v in product(range(lat.size), repeat=n)
                  if all(lat.leq[v[x], v[y]] for x in range(n) for y in range(n)
                         if s.order[x, y])]
        codes = algebra.carrier_codes()
        assert [tuple(r) for r in algebra._decode(codes).tolist()] == expect
        assert [f.values for f in algebra.elements()] == expect
        assert [f.values for f in algebra.carrier_list()] == expect
        assert algebra.carrier_count() == len(expect)
        small = lat.size ** n - 1
        for call in (algebra.carrier_codes, algebra.carrier_list,
                     lambda budget: list(algebra.elements(budget))):
            with pytest.raises(BudgetExceeded):
                call(small)


def test_codes_are_enumeration_positions_and_tables_match_ops():
    algebra = ConvAlgebra(chain3(), z2())
    carrier = algebra.carrier_list()
    codes = algebra.carrier_codes()
    assert codes.tolist() == list(range(len(carrier)))
    assert [tuple(r) for r in algebra._decode(codes).tolist()] == [f.values for f in carrier]
    star = algebra._table(z2().relation("*"))
    meet, neg = algebra._table("meet"), algebra._table("neg")
    for a, fa in zip(codes, carrier):
        assert carrier[neg[a]] == algebra.neg(fa)
        for b, fb in zip(codes, carrier):
            assert carrier[star[a, b]] == algebra.op("*", (fa, fb))
            assert carrier[meet[a, b]] == algebra.meet(fa, fb)
    assert carrier[algebra._table(z2().relation("id"))[()]] == algebra.op("id", ())

    s = build_structure(2, signature(("dia", 1, JOIN)),
                        [{(0, 0), (0, 1), (1, 1)}], order_pairs=[(0, 1)])
    ordered = ConvAlgebra(chain3(), s, ordered=True)
    assert [tuple(r) for r in ordered._decode(ordered.carrier_codes()).tolist()] == \
        [f.values for f in ordered.carrier_list()]


@pytest.mark.parametrize("law, valid", [
    ("(join (op dia (join x y)) z) = (join (join (op dia x) (op dia y)) z)", True),
    # least counterexample at 109, past the first chunk; imp leaves the carrier
    ("(imp (op dia (imp x z)) y) = (op dia y)", False),
])
def test_ordered_exhaustive_verdict_matches_a_loop(law, valid):
    # 3 variables over the 6 monotone functions of chain3 on a 2-chain:
    # 216 assignments outnumber the 81-entry code tables of all of L^X.
    s = build_structure(2, signature(("dia", 1, JOIN)),
                        [{(0, 0), (0, 1), (1, 1)}], order_pairs=[(0, 1)])
    algebra = ConvAlgebra(chain3(), s, ordered=True)
    lhs, rhs = law.split(" = ")
    eq = Equation(parse_term(lhs, s.signature), parse_term(rhs, s.signature))
    verdict = check_equation(eq, algebra, mode="exhaustive")
    expect = ("valid_exhaustive", 216, None)
    for k, combo in enumerate(product(algebra.carrier_list(), repeat=3)):
        env = dict(zip("xyz", combo))
        if eval_term(eq.lhs, algebra, env) != eval_term(eq.rhs, algebra, env):
            expect = ("counterexample", k + 1, env)
            break
    assert (verdict.status, verdict.tried, verdict.assignment) == expect
    assert verdict.is_valid == valid


@pytest.mark.parametrize("size", [1, 2, 3, 5, 64, 70])
@pytest.mark.parametrize("ordered", [False, True])
def test_bulk_draws_match_a_randrange_loop(size, ordered):
    lat = chain(size) if size != 64 else boolean(6)
    s = build_structure(3, signature(("f", 1, JOIN)),
                        [{(a, b) for a in range(3) for b in range(3)}],
                        order_pairs=[(0, 1), (1, 2)] if ordered else None)
    algebra = ConvAlgebra(lat, s, ordered=ordered)
    for seed, count in [(0, 1), (1, 7), (2, 1000)]:
        bulk, loop = random.Random(seed), random.Random(seed)
        rows = algebra._draw_rows(bulk, count)
        expect = []
        while len(expect) < count:
            values = tuple(loop.randrange(size) for _ in range(3))
            if not ordered or all(lat.leq[a, b] for a, b in zip(values, values[1:])):
                expect.append(values)
        assert [tuple(r) for r in rows.tolist()] == expect
        assert bulk.random() == loop.random()


def _point_zero_frame(n):
    """n points and f(a)(y) = a(0) for every y."""
    return build_structure(n, signature(("f", 1, JOIN)), [{(0, y) for y in range(n)}])


@pytest.mark.parametrize("n", [1, 5, 63])
def test_subset_draws_match_a_randrange_loop(n):
    subsets = SubsetAlgebra(_point_zero_frame(n))
    bulk, loop = random.Random(n), random.Random(n)
    rows = subsets._draw_rows(bulk, 300)
    codes = [loop.randrange(2 ** n) for _ in range(300)]
    assert rows.dtype == bool and rows.shape == (300, n)
    assert rows.tolist() == [[bool(c >> x & 1) for x in range(n)] for c in codes]
    assert bulk.random() == loop.random()


@pytest.mark.parametrize("n", [64, 70])
def test_sampled_subsets_beyond_int64(n):
    # 2**n subsets, so the codes drawn need more than 63 bits; x <= f(x)
    # fails for every x with a point other than 0 but not 0 itself.
    s = _point_zero_frame(n)
    eq = Equation(Join(Var("x"), RelOp("f", (Var("x"),))), RelOp("f", (Var("x"),)))
    v = check_equation(eq, SubsetAlgebra(s))
    assert v.status == "counterexample" and v.samples == 10_000
    x = v.assignment["x"]
    assert 0 not in x and x


def test_delta_decompose_examples():
    lat = chain3()
    alpha = LFunction([1, 2], lat)
    parts = [d.values for d in delta_decompose(alpha)]
    assert parts == [(1, 0), (0, 2)]
    assert delta_decompose(LFunction([0, 0], lat)) == []


def test_delta_join_recovers_everything():
    lat = chain3()
    algebra = ConvAlgebra(lat, full_structure(3))
    for alpha in algebra.carrier_list():
        acc = algebra.bot()
        for d in delta_decompose(alpha):
            acc = algebra.join(acc, algebra.function(d.values))
        assert acc.values == alpha.values


def test_ordered_algebra_images_are_monotone():
    s = build_structure(3, signature(("dia", 1, JOIN), ("box", 1, MEET)),
                        [{(a, b) for a in range(3) for b in range(3) if a <= b},
                         {(a, b) for a in range(3) for b in range(3) if b <= a}],
                        order_pairs=[(0, 1), (1, 2)])
    algebra = ConvAlgebra(chain3(), s)
    for alpha in algebra.carrier_list():
        for rel in ("dia", "box"):
            assert algebra.is_order_preserving(algebra.op(rel, (alpha,)))


def test_ordered_algebra_requires_order():
    with pytest.raises(ValueError):
        ConvAlgebra(chain3(), z2(), ordered=True)


def test_lfunction_labels_and_json_literal():
    lat = chain3()
    f = lfunction_from_labels(["1", "2"], lat)
    assert f.values == (1, 2)
    assert f.labels() == ["1", "2"]
    with pytest.raises(UnknownElement):
        lfunction_from_labels(["zz"], lat)
    with pytest.raises(UnknownElement):
        LFunction([9], lat)
