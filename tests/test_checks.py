"""The law verifiers: expected passes, expected failures, and hypotheses."""

import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_convolution import lattices, structures

from convalg import checks, suites
from convalg.catalog import (boolean, chain, cyclic_group, lattice_pool, m3,
                             n5, structure_pool, symmetric_group_3)
from convalg.checks import (Report, _expect_group_signature,
                            _homomorphism_witness,
                            check_closure_correspondence,
                            check_equation_transfer,
                            check_finitely_supported, check_monadic_axioms,
                            check_nabla_equation, check_operator,
                            check_relation_algebra, check_residuation,
                            check_structural_isos, check_subset_isomorphism,
                            check_z2_associativity, default_equation_pool)
from convalg.convolution import (ConvAlgebra, SubsetAlgebra,
                                 lift_lattice_morphism, product_iso,
                                 pullback_pmorphism)
from convalg.errors import NotHeyting, SignatureMismatch
from convalg.structures import (JOIN, MEET, RelStructure, build_structure,
                                from_group, full_structure, signature)
from convalg.terms import (Equation, Neg, Var, Verdict, _chunks, eval_term,
                           parse_term)


def test_operator_pass():
    algebra = ConvAlgebra(chain(3), cyclic_group(2))
    assert check_operator(algebra, "*").status == "pass"


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


def test_operator_decides_the_complete_law_exhaustively():
    # boolean2 over Z2 used to be sampled, and chain3 over Z3 skipped.
    for lat, s in ((chain(2), cyclic_group(2)), (boolean(2), cyclic_group(2)),
                   (chain(3), cyclic_group(3))):
        r = check_operator(ConvAlgebra(lat, s), "*")
        assert (r.status, r.stats["complete_law"]) == ("pass", "exhaustive")


def test_operator_certificate_never_runs_outside_distributive_lattices(monkeypatch):
    # h(x, y) = x /\ y on one point is not binary additive over M3 or N5,
    # yet over M3 the certificate alone passes: its "if" direction needs
    # a distributive lattice.
    s = build_structure(1, signature(("h", 2, JOIN)), [{(0, 0, 0)}])
    assert checks._complete_law(ConvAlgebra(m3(), s), 0, 10 ** 6) == ("exhaustive", None)

    def refuse(*args):
        raise AssertionError("the certificate ran")
    monkeypatch.setattr(checks, "_complete_law", refuse)
    for lat in (m3(), n5()):
        r = check_operator(ConvAlgebra(lat, s), "h")
        assert (r.status, r.stats["laws_hold"]) == ("observed", False)
        assert "complete_law" not in r.stats


def test_operator_certificate_over_budget_builds_no_table():
    # chain3 over Z2: 9**2 table entries times 4 generators, 324 lookups.
    algebra = ConvAlgebra(chain(3), cyclic_group(2))
    r = check_operator(algebra, "*", budget=323)
    assert (r.status, r.stats["complete_law"]) == ("pass", "over budget")
    assert algebra.structure.relation("*") not in algebra._tables
    r = check_operator(algebra, "*", budget=324)
    assert (r.status, r.stats["complete_law"]) == ("pass", "exhaustive")


def loop_view(algebra, i):
    """(carrier, at, fold, unit, labels) for relation ``i``, by loops: the
    carrier as value tuples, the operation on value tuples as the code
    table ``algebra._tables[i]`` reads, the pointwise join (meet for meet
    relations) and its unit, and the labels of a value tuple."""
    lat, n = algebra.lattice, algebra.structure.carrier_size
    additive = algebra.structure.signature.rel_specs[i].mode == JOIN
    pick = lat.join_table if additive else lat.meet_table
    unit = (lat.bottom if additive else lat.top,) * n

    def code(v):
        c = 0
        for x in v:
            c = c * lat.size + x
        return c

    def at(args):
        c = int(algebra._tables[i][tuple(code(a) for a in args)])
        return tuple(c // lat.size ** (n - 1 - x) % lat.size for x in range(n))

    def fold(u, v):
        return tuple(pick[a][b] for a, b in zip(u, v))

    carrier = [f.values for f in algebra.carrier_list()]
    return carrier, at, fold, unit, lambda v: [lat.labels[x] for x in v]


def reference_subset_scan(algebra, rel):
    """Whether the operation, as its code table reads, sends the join (meet
    for meet relations) of every subset of the carrier in each argument to
    the join of the images, by loops over the carrier and its subsets."""
    i = algebra.structure.relation(rel)
    arity = algebra.structure.signature.rel_specs[i].arity
    carrier, at, fold, unit, _ = loop_view(algebra, i)
    q = len(carrier)
    for k in range(arity):
        for fixed in product(carrier, repeat=arity - 1):
            for mask in range(2 ** q):
                joined, images = unit, unit
                for f in (carrier[j] for j in range(q) if mask >> j & 1):
                    image = at(fixed[:k] + (f,) + fixed[k:])
                    joined, images = fold(joined, f), fold(images, image)
                if at(fixed[:k] + (joined,) + fixed[k:]) != images:
                    return False
    return True


def reference_additivity(algebra, i):
    """Per argument k, the other arguments (as label lists, in product
    order) at which the binary or the empty law fails, as the code table
    reads, by loops over the carrier."""
    arity = algebra.structure.signature.rel_specs[i].arity
    carrier, at, fold, unit, labels = loop_view(algebra, i)
    failing = {}
    for k in range(arity):
        for fixed in product(carrier, repeat=arity - 1):
            def put(f):
                return at(fixed[:k] + (f,) + fixed[k:])
            if put(unit) != unit or any(put(fold(x, y)) != fold(put(x), put(y))
                                        for x in carrier for y in carrier):
                failing.setdefault(k, []).append([labels(f) for f in fixed])
    return failing


def reference_certificate(algebra, i):
    """The certificate's witness by loops: the first (k, a, fixed) at which
    the operation at a differs from the join of its values at the
    join-irreducibles j.(up-set of x) of the carrier below a (meets,
    meet-irreducibles on down-sets, above a, for meet relations), with
    J(L) and M(L) found as the elements that are not the join (meet) of
    the elements strictly below (above) them."""
    lat, structure = algebra.lattice, algebra.structure
    n, spec = structure.carrier_size, structure.signature.rel_specs[i]
    additive = spec.mode == JOIN
    carrier, at, fold, unit, labels = loop_view(algebra, i)

    def side(u, w):  # u on the generator side of w
        return lat.leq[u, w] if additive else lat.leq[w, u]
    fold_all = lat.join if additive else lat.meet
    values = [e for e in range(lat.size)
              if fold_all(c for c in range(lat.size) if c != e and side(c, e)) != e]

    def reach(x, y):  # y in the up-set (down-set) of x
        if not algebra.ordered:
            return x == y
        return bool(structure.order[x, y] if additive else structure.order[y, x])
    gens = [tuple(v if reach(x, y) else unit[0] for y in range(n))
            for v in values for x in range(n)]
    for k in range(spec.arity):
        for a in carrier:
            for fixed in product(carrier, repeat=spec.arity - 1):
                def put(f):
                    return at(fixed[:k] + (f,) + fixed[k:])
                acc = unit
                for g in gens:
                    if all(side(u, w) for u, w in zip(g, a)):
                        acc = fold(acc, put(g))
                if put(a) != acc:
                    return {"law": f"irreducibles@{k}", "arg": labels(a),
                            "fixed": [labels(f) for f in fixed]}
    return None


def _corrupt(algebra, i, spots):
    """Put a copy of relation ``i``'s code table in place, with the entry
    at carrier positions ``args`` set to the carrier code at ``value``
    for each (*args, value) of ``spots``."""
    codes = algebra.carrier_codes()
    table = algebra._table(i).copy()
    for *args, value in spots:
        table[tuple(codes[args])] = codes[value]
    algebra._tables[i] = table


def test_certificate_matches_the_subset_law_on_tiny_spaces():
    ordered = build_structure(
        2, signature(("f", 1, JOIN), ("g", 1, MEET), ("h", 2, JOIN)),
        [{(0, 0), (0, 1), (1, 1)}, {(1, 1), (1, 0), (0, 0)},
         {(0, 0, 0), (0, 0, 1), (1, 1, 1)}], order_pairs=[(0, 1)])
    algebras = [ConvAlgebra(chain(2), cyclic_group(2)),
                ConvAlgebra(chain(3), ordered, ordered=True)]
    for lat in (chain(3), boolean(2)):
        for mode in (JOIN, MEET):
            algebras += [
                ConvAlgebra(lat, build_structure(1, signature(("h", 2, mode)), [{(0, 0, 0)}])),
                ConvAlgebra(lat, build_structure(1, signature(("f", 1, mode)), [{(0, 0)}]))]
    rng = random.Random(11)
    verdicts = set()
    for algebra in algebras:
        for i, spec in enumerate(algebra.structure.signature.rel_specs):
            if not spec.arity:
                continue
            q, clean = len(algebra.carrier_codes()), algebra._table(i).copy()
            for _ in range(6):
                algebra._tables[i] = clean
                _corrupt(algebra, i, [[rng.randrange(q) for _ in range(spec.arity + 1)]
                                      for _ in range(rng.randrange(4))])
                how, witness = checks._complete_law(algebra, i, 10 ** 6)
                assert how == "exhaustive"
                assert (witness is None) == reference_subset_scan(algebra, spec.name)
                verdicts.add(witness is None)
    assert verdicts == {True, False}


def _with_order(structure, pairs):
    """``structure`` ordered by the order ``pairs`` generate, with each
    join (meet) relation closed upward (downward) in its output."""
    n = structure.carrier_size
    order = build_structure(n, signature(), [], order_pairs=pairs).order
    rels = [{t[:-1] + (y,) for t in rel for y in range(n)
             if (order[t[-1], y] if spec.mode == JOIN else order[y, t[-1]])}
            for spec, rel in zip(structure.signature.rel_specs, structure.relations)]
    return build_structure(n, structure.signature, rels, order_pairs=pairs)


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_certificate_matches_the_binary_and_empty_laws(data):
    """Random distributive lattices and structures, half of them ordered,
    with 0-3 corrupted carrier entries in a relation's code table: the
    certificate passes iff the binary and empty laws hold over that table,
    and its witness is the loop reference's, at the least argument with a
    failure and at other arguments where those laws fail."""
    lat = data.draw(lattices().filter(lambda lat: lat.is_distributive and lat.size <= 6))
    structure = data.draw(structures())
    n = structure.carrier_size
    ordered = data.draw(st.booleans())
    if ordered:
        perm = data.draw(st.permutations(range(n)))
        pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                  .filter(lambda p: p[0] < p[1])))
        structure = _with_order(structure, [(perm[a], perm[b]) for a, b in pairs])
    algebra = ConvAlgebra(lat, structure, ordered=ordered)
    q = len(algebra.carrier_codes())
    small = [i for i, spec in enumerate(structure.signature.rel_specs)
             if spec.arity and q ** (spec.arity + 1) <= 3000]
    assume(small)
    i = data.draw(st.sampled_from(small))
    arity = structure.signature.rel_specs[i].arity
    _corrupt(algebra, i, data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=arity + 1, max_size=arity + 1),
        max_size=3)))

    how, witness = checks._complete_law(algebra, i, 10 ** 6)
    failing = reference_additivity(algebra, i)
    assert how == "exhaustive"
    assert (witness is None) == (not failing)
    assert witness == reference_certificate(algebra, i)
    if witness is not None:
        k = int(witness["law"].split("@")[1])
        assert k == min(failing) and witness["fixed"] in failing[k]


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


def reference_finitely_supported(algebra, rel, budget):
    """(tuples, witness) of the finite-support checker at seed 0, as a loop
    over argument tuples.  The draws are the checker's: per chunk of tuples,
    the tuples when sampled, then one comparand element per argument."""
    i = algebra.structure.relation(rel)
    spec = algebra.structure.signature.rel_specs[i]
    lat, n, k = algebra.lattice, algebra.structure.carrier_size, spec.arity
    joinish = spec.mode == JOIN
    fill, fold = (lat.bottom, lat.join) if joinish else (lat.top, lat.meet)
    sampled = algebra.space_size() ** k > budget
    total = min(2000, budget) if sampled else algebra.space_size() ** k
    grid = None if sampled else list(product(algebra.carrier_list(), repeat=k))
    rng = random.Random(0)
    for start, stop in _chunks(total, algebra):
        tuples = ([[algebra.random_element(rng) for _ in range(k)] for _ in range(start, stop)]
                  if sampled else grid[start:stop])
        drawn = [[algebra.random_element(rng) for _ in range(k)] for _ in tuples]
        for position, args, draws in zip(range(start, stop), tuples, drawn):
            out = algebra.op(rel, args)
            outs = [algebra.op(rel, [algebra.function(
                        [v if p == x else fill for p, v in enumerate(a.values)])
                        for a, x in zip(args, xs)])
                    for xs in product(range(n), repeat=k)]
            folded = [fold([o.values[p] for o in outs]) for p in range(n)]
            witness = {"args": [a.labels() for a in args]}
            if list(out.values) != folded:
                witness.update(output=out.labels(), delta_fold=[lat.labels[v] for v in folded])
                return position + 1, witness
            bent = [algebra.meet(a, r) if joinish else algebra.join(a, r)
                    for a, r in zip(args, draws)]
            there = algebra.op(rel, bent)
            if not (there.le(out) if joinish else out.le(there)):
                witness["comparand"] = [b.labels() for b in bent]
                return position + 1, witness
    return total, None


def test_finite_support_witness_matches_the_loop_reference():
    # Operations corrupted by a pointwise map of their argument values: one
    # that moves the unit of the fold breaks the delta fold, a non-monotone
    # one that keeps it breaks only the comparand check.  Budgets make some
    # scans sampled, over one chunk or several.
    rng = random.Random(4)
    pool = dict(structure_pool())
    kinds = set()
    for lat in (chain(2), chain(3), boolean(2)) * 4:
        for sname in ("frame2-succ", "frame3-cycle", "mixed2", "min3", "max3-meet",
                      "z2-group"):
            algebra = ConvAlgebra(lat, pool[sname])
            spec = rng.choice([s for s in algebra.structure.signature.rel_specs if s.arity])
            g = np.array([rng.randrange(lat.size) for _ in range(lat.size)])
            if rng.random() < 0.6:
                g[lat.bottom if spec.mode == JOIN else lat.top] = (
                    lat.bottom if spec.mode == JOIN else lat.top)
            algebra._eval = lambda i, args, algebra=algebra, g=g: \
                ConvAlgebra._eval(algebra, i, [g[a] for a in args])
            budget = rng.choice([50, 700, 10**6])
            r = check_finitely_supported(algebra, spec.name, budget=budget)
            tuples, witness = reference_finitely_supported(algebra, spec.name, budget)
            assert (r.status, r.witness, r.stats["tuples"]) == (
                "pass" if witness is None else "fail", witness, tuples)
            kinds.add(witness and ("delta_fold" if "delta_fold" in witness else "comparand"))
    assert kinds == {None, "delta_fold", "comparand"}


def test_sampled_de_morgan_scans_keep_to_the_budget(monkeypatch):
    # 9**3 triples exceed a budget of 100, so each De Morgan scan samples at
    # most 100 triples; the original law fails within the first chunk of 64.
    drawn = []
    draw_rows = ConvAlgebra._draw_rows
    monkeypatch.setattr(ConvAlgebra, "_draw_rows",
                        lambda self, rng, count: drawn.append(count) or draw_rows(self, rng, count))
    monkeypatch.setattr(checks, "_eq_verdicts", lambda *args, **kwargs: ([], {}))
    r = check_relation_algebra(chain(3), cyclic_group(2), budget=100)
    assert r.status == "pass" and r.stats["de_morgan_scan"] == "sampled"
    assert r.stats["original_de_morgan_holds"] is False
    assert sum(drawn) == 3 * (100 + 64)


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


def reference_monadic_pointwise(lat, n):
    """The monadic checker's pointwise check as a loop over the carrier:
    the witness of the first element whose images are not the constants
    at its join and meet, or None."""
    algebra = ConvAlgebra(lat, checks.full_structure(n, extended=True))
    for alpha in algebra.elements():
        dia = algebra.op("dia", (alpha,))
        box = algebra.op("box", (alpha,))
        if set(dia.values) != {lat.join(alpha.values)} or \
                set(box.values) != {lat.meet(alpha.values)}:
            return {"alpha": alpha.labels(), "dia": dia.labels(), "box": box.labels()}
    return None


def test_monadic_pointwise_matches_the_loop_reference(monkeypatch):
    # Random relations in place of the all-pairs frame break the pointwise
    # description; 81 and 256 elements take more than one chunk.
    rng = random.Random(2)
    true_frame = checks.full_structure
    outcomes = set()
    for lat, n in [(chain(3), 2), (boolean(2), 2), (chain(3), 4), (boolean(2), 4)] * 3:
        relations = [{(a, b) for a in range(n) for b in range(n) if rng.random() < 0.8}
                     for _ in range(2)]
        if rng.random() < 0.25:
            relations = list(true_frame(n, extended=True).relations)
        monkeypatch.setattr(checks, "full_structure", lambda n, extended, rels=relations:
                            RelStructure(n, signature(("dia", 1, JOIN), ("box", 1, MEET)), rels))
        r = check_monadic_axioms(lat, n)
        expect = reference_monadic_pointwise(lat, n)
        if expect is None:
            assert r.witness is None or "alpha" not in r.witness
        else:
            assert (r.status, r.witness, r.stats) == ("fail", expect, {})
        outcomes.add(expect is None)
    assert outcomes == {True, False}


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


def test_z2_associativity_beyond_the_grid_runs_on_the_generators():
    # 16**6 triples over boolean4/Z2; 1 + 4 * 2 generators per variable.
    r = check_z2_associativity(boolean(4))
    assert r.status == "pass"
    assert r.stats == {"assignments": 9 ** 3, "associative": True, "distributive": True}


def test_z2_sampled_validity_is_only_observed():
    # One draw misses M3's counterexample, which the second draw finds.
    r = check_z2_associativity(m3(), budget=1)
    assert (r.status, r.witness) == ("observed", None)
    assert r.stats == {"assignments": 1, "associative": True,
                       "distributive": False, "verdict": "valid_sampled"}
    assert check_z2_associativity(m3(), budget=2).status == "pass"
    r = check_z2_associativity(boolean(2), budget=100)  # 5**3 generator triples
    assert (r.status, r.stats["verdict"]) == ("observed", "valid_sampled")


def test_a_sampled_validity_never_fails_a_checker():
    # Each check below samples at so small a budget that it misses a real
    # counterexample, and the other side of its comparison says the law
    # fails; a sampled "valid" is not held against that, by the checkers
    # or by the suites' own expectations.
    frame = build_structure(3, signature(("f", 1, JOIN)), [{(0, 0), (0, 1), (1, 1), (2, 0)}])
    r = check_closure_correspondence(chain(3), frame, budget=4)
    assert r.status == "pass" and not r.stats["transitive"]
    r = check_relation_algebra(chain(3), cyclic_group(2), budget=1)
    assert r.status == "pass" and r.stats["de_morgan_scan"] == "sampled"
    pool = dict(structure_pool())
    for name, lattices in (("mixed2", [chain(3)]), ("binary2-partial", [])):
        s = pool[name]
        r = check_equation_transfer(lattices, s, default_equation_pool(s.signature), budget=1)
        assert r.status == "pass"
    for suite in (suites.suite_type2, suites.suite_z2_biconditional,
                  suites.suite_relation_algebra):
        assert suite(budget=1).status == "pass"


def test_type2_mismatch_names_the_counterexample(monkeypatch):
    # Subset verdicts forced valid: the chain's first counterexample is the
    # witness, rendered as labels.
    check_equation = suites.check_equation
    monkeypatch.setattr(suites, "check_equation", lambda eq, algebra, **options: (
        Verdict("valid_exhaustive", tried=1) if isinstance(algebra, SubsetAlgebra)
        else check_equation(eq, algebra, **options)))
    r = suites.suite_type2()
    assert r.status == "fail"
    assert r.witness["witness"] == {"equation": "absorption", "convolution": "counterexample",
                                    "subsets": "valid_exhaustive",
                                    "assignment": {"x": ["0", "1"], "y": ["0", "0"]}}


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


def test_relation_algebra_sampled_by_the_budget():
    # Over chain3/S3 at a budget of 100 only the one-variable laws 2 and 4
    # fit the 13 generators; the other six laws and both scans sample.
    r = check_relation_algebra(chain(3), symmetric_group_3(), budget=100)
    assert r.status == "pass"
    assert r.stats["de_morgan_scan"] == "sampled"
    assert (r.stats["sampled_laws"], r.stats["reduced_laws"]) == (6, 3)
    assert r.stats["assignments"] == 3 * 13 + 6 * 100


def test_sampled_laws_count_sampled_counterexamples():
    comm = Equation(parse_term("(op * x y)"), parse_term("(op * y x)"))
    algebra = ConvAlgebra(chain(3), symmetric_group_3())
    failures, stats = checks._eq_verdicts(algebra, [("comm", comm)], budget=100)
    assert [f["law"] for f in failures] == ["comm"]
    assert stats == {"assignments": 3, "sampled_laws": 1}


def test_relation_algebra_reduces_the_additive_laws():
    # Over chain3/S3 at a budget of 10,000: laws 1, 3 (both sides) 5 and
    # 6 run over the 13 generators, laws 2 and 4 over the 729 elements,
    # and law 7, which uses neg, is sampled.
    r = check_relation_algebra(chain(3), symmetric_group_3(), budget=10_000)
    assert r.status == "pass"
    assert (r.stats["reduced_laws"], r.stats["sampled_laws"]) == (5, 1)
    assert r.stats["assignments"] == 3 * 13 ** 3 + 2 * 13 ** 2 + 3 * 729 + 10_000
    assert r.stats["de_morgan_scan"] == "sampled"


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(lattices().filter(lambda lat: lat.size <= 6))
def test_z2_associativity_holds_iff_distributive(lat):
    r = check_z2_associativity(lat)
    assert r.status == "pass"
    assert r.stats["associative"] == lat.is_distributive


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(lattices().filter(lambda lat: lat.is_distributive and lat.size <= 6))
def test_original_de_morgan_over_z2_holds_iff_boolean(lat):
    r = check_relation_algebra(lat, cyclic_group(2))
    assert r.status == "pass" and r.stats["de_morgan_scan"] == "exhaustive"
    assert r.stats["original_de_morgan_holds"] == lat.is_boolean


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


def reference_subset_isomorphism(structure, instance=None):
    """The subset-isomorphism checker written as loops over the carrier,
    one element, pair and argument tuple at a time."""
    name = instance or repr(structure)
    algebra = ConvAlgebra(chain(2), structure)
    subsets = SubsetAlgebra(structure)
    iso_phi = checks.iso_phi  # looked up per call, so a patched map is used
    funcs = algebra.carrier_list()
    images = [iso_phi(f) for f in funcs]
    if len(set(images)) != len(funcs) or set(images) != set(subsets.elements()):
        return Report("subset-iso", name, "fail",
                      witness={"kind": "not a bijection"}, stats={})
    checked = 0
    if iso_phi(algebra.bot()) != subsets.bot() or iso_phi(algebra.top()) != subsets.top():
        return Report("subset-iso", name, "fail",
                      witness={"kind": "bounds"}, stats={})
    for f in funcs:
        for g in funcs:
            checked += 1
            if iso_phi(algebra.meet(f, g)) != subsets.meet(iso_phi(f), iso_phi(g)):
                return Report("subset-iso", name, "fail",
                              witness={"kind": "meet", "f": f.labels(),
                                       "g": g.labels()}, stats={})
            if iso_phi(algebra.join(f, g)) != subsets.join(iso_phi(f), iso_phi(g)):
                return Report("subset-iso", name, "fail",
                              witness={"kind": "join", "f": f.labels(),
                                       "g": g.labels()}, stats={})
    for spec in structure.signature.rel_specs:
        for args in product(funcs, repeat=spec.arity):
            checked += 1
            lhs = iso_phi(algebra.op(spec.name, args))
            rhs = subsets.op(spec.name, [iso_phi(a) for a in args])
            if lhs != rhs:
                return Report("subset-iso", name, "fail",
                              witness={"kind": "operation", "relation": spec.name,
                                       "args": [a.labels() for a in args],
                                       "function_side": sorted(lhs),
                                       "subset_side": sorted(rhs)},
                              stats={"checked": checked})
    return Report("subset-iso", name, "pass", stats={"checked": checked})


def test_subset_isomorphism_matches_the_loop_reference(monkeypatch):
    # The true map, then maps that break each law: a point permutation is
    # a Boolean isomorphism that commutes with the relations only when it
    # is an automorphism of the structure, so it reaches the operations
    # (nullary ones included); the others break bounds, meets, joins and
    # bijectivity.
    true_phi = checks.iso_phi

    def permuted(f):
        n = len(f.values)
        return frozenset((x + 1) % n for x in true_phi(f))

    def swapped(a, b):  # exchanges the images of two subsets
        a, b = frozenset(a), frozenset(b)
        return lambda f: {a: b, b: a}.get(true_phi(f), true_phi(f))

    maps = {"true": true_phi, "permuted": permuted,
            "swap-1-12": swapped({1}, {1, 2}), "swap-0-01": swapped({0}, {0, 1}),
            "complement": lambda f: frozenset(range(len(f.values))) - true_phi(f),
            "constant": lambda f: frozenset()}
    outcomes = set()
    for label, phi in maps.items():
        monkeypatch.setattr(checks, "iso_phi", phi)
        for name, s in structure_pool():
            r = check_subset_isomorphism(s, instance=name)
            assert r.to_dict() == reference_subset_isomorphism(s, instance=name).to_dict(), \
                (label, name)
            outcomes.add(r.witness["kind"] if r.witness else r.status)
            if r.witness and r.witness["kind"] == "operation" and not r.witness["args"]:
                outcomes.add("nullary operation")
    assert outcomes == {"pass", "not a bijection", "bounds", "meet", "join",
                        "operation", "nullary operation"}


def reference_commutes_with_ops(push, dom, cod):
    """push: element of dom -> element of cod; the homomorphism laws as
    loops over dom's carrier, one pair and argument tuple at a time."""
    funcs = dom.carrier_list()
    if push(dom.bot()) != cod.bot() or push(dom.top()) != cod.top():
        return {"kind": "bounds"}
    for f in funcs:
        for g in funcs:
            if push(dom.meet(f, g)) != cod.meet(push(f), push(g)):
                return {"kind": "meet", "f": f.labels(), "g": g.labels()}
            if push(dom.join(f, g)) != cod.join(push(f), push(g)):
                return {"kind": "join", "f": f.labels(), "g": g.labels()}
    for spec in dom.structure.signature.rel_specs:
        for args in product(funcs, repeat=spec.arity):
            if push(dom.op(spec.name, args)) != cod.op(spec.name,
                                                       [push(a) for a in args]):
                return {"kind": "operation", "relation": spec.name,
                        "args": [a.labels() for a in args]}
    return None


def _structural_maps():
    """(dom, images, cod) for the maps structural-isos checks."""
    two, z2 = chain(2), cyclic_group(2)
    split = ConvAlgebra(two.product(two), z2)
    z4 = from_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
    z4r = RelStructure(4, signature(("*", 2, JOIN), ("conv", 1, JOIN)), z4.relations[:2])
    z2r = RelStructure(2, z4r.signature, z2.relations[:2])
    pull = ConvAlgebra(chain(3), z2r)
    dom = ConvAlgebra(chain(3), z2)

    def images(algebra, fn):
        return np.array([fn(f).values for f in algebra.carrier_list()])

    return [
        (split, images(split, lambda f: product_iso(f)[0]), ConvAlgebra(two, z2)),
        (split, images(split, lambda f: product_iso(f)[1]), ConvAlgebra(two, z2)),
        (dom, images(dom, lambda f: lift_lattice_morphism([0, 1, 1], two, f)),
         ConvAlgebra(two, z2)),
        (pull, images(pull, lambda f: pullback_pmorphism([0, 1, 0, 1], z4r, z2r, f)),
         ConvAlgebra(chain(3), z4r)),
    ]


def test_homomorphism_witness_matches_the_loop_reference():
    # The structural-isos maps, then seeded corruptions: one image row
    # replaced, or one relation of the codomain redrawn (nullary ones too).
    rng = random.Random(0)
    cases = _structural_maps()
    for dom, images, cod in list(cases):
        for _ in range(25):
            bent = images.copy()
            bent[rng.randrange(len(bent))] = [rng.randrange(cod.lattice.size)
                                              for _ in range(bent.shape[1])]
            cases.append((dom, bent, cod))
    for lat in (chain(2), chain(3), m3()):
        for _ in range(8):
            s = cyclic_group(2)
            relations = list(s.relations)
            k = rng.randrange(len(relations))
            width = s.signature.rel_specs[k].arity + 1
            relations[k] = {t for t in product(range(2), repeat=width) if rng.random() < 0.5}
            dom = ConvAlgebra(lat, s)
            cod = ConvAlgebra(lat, RelStructure(2, s.signature, relations))
            cases.append((dom, dom._decode(dom.carrier_codes()), cod))
    kinds = set()
    for dom, images, cod in cases:
        def push(e, dom=dom, images=images, cod=cod):
            return cod.function(images[dom._encode(e._np)])
        got = _homomorphism_witness(dom, images, cod)[0]
        assert got == reference_commutes_with_ops(push, dom, cod)
        kinds.add(got["kind"] if got else None)
        if got and got["kind"] == "operation" and not got["args"]:
            kinds.add("nullary operation")
    assert kinds == {None, "bounds", "meet", "join", "operation", "nullary operation"}


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
