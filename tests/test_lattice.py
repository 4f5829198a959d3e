"""Lattice construction, classification, Heyting structure, derivations.

The oracles here are deliberately independent of the implementation: bounds
are found by scanning the order matrix, never by consulting the meet/join
tables under test.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convalg import lattice as lattice_module
from convalg.catalog import boolean, chain, get_lattice, lattice_pool
from convalg.errors import (NotALattice, NotAPoset, NotHeyting,
                            UnknownElement)
from convalg.lattice import (FiniteLattice, _transitive_closure,
                             build_lattice, derive, lattice_from_json,
                             lattice_to_json)


def chain3():
    return build_lattice(["0", "m", "1"], [("0", "m"), ("m", "1")])


def m3():
    return build_lattice(["0", "a", "b", "c", "1"],
                         [("0", "a"), ("0", "b"), ("0", "c"),
                          ("a", "1"), ("b", "1"), ("c", "1")])


def n5():
    return build_lattice(["0", "a", "b", "c", "1"],
                         [("0", "a"), ("a", "b"), ("b", "1"),
                          ("0", "c"), ("c", "1")])


def b2():
    return build_lattice(["0", "a", "b", "1"],
                         [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


# -- oracles ------------------------------------------------------------------


def oracle_glb(lat, elems):
    """Greatest lower bound by reading whole columns of the order matrix
    only: the common lower bounds, then the one above all of them."""
    lower = np.flatnonzero(lat.leq[:, list(elems)].all(axis=1))
    tops = lower[lat.leq[np.ix_(lower, lower)].all(axis=0)]
    assert len(tops) <= 1
    return int(tops[0]) if len(tops) else None


def oracle_lub(lat, elems):
    """Least upper bound by reading whole rows of the order matrix only."""
    upper = np.flatnonzero(lat.leq[list(elems)].all(axis=0))
    bots = upper[lat.leq[np.ix_(upper, upper)].all(axis=1)]
    assert len(bots) <= 1
    return int(bots[0]) if len(bots) else None


def oracle_tables(lat):
    """(glb, lub) tables of every pair, by the order-matrix oracles."""
    n = lat.size
    return ([[oracle_glb(lat, [a, b]) for b in range(n)] for a in range(n)],
            [[oracle_lub(lat, [a, b]) for b in range(n)] for a in range(n)])


def oracle_distributive(lat):
    meet, join = oracle_tables(lat)
    n = lat.size
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def oracle_irreducibles(lat):
    """j is join-irreducible iff it is not the lub of the elements strictly
    below it (the empty lub is bottom), dually for meet-irreducibles."""
    elems = range(lat.size)
    join = [e for e in elems
            if oracle_lub(lat, [c for c in elems if c != e and lat.leq[c, e]]) != e]
    meet = [e for e in elems
            if oracle_glb(lat, [c for c in elems if c != e and lat.leq[e, c]]) != e]
    return [join, meet]


def described(lat):
    """Everything a build fixes, read from the lattice itself."""
    try:
        imp = lat.heyting_table().tolist()
    except NotHeyting:
        imp = None
    return {"meet": lat.meet_np.tolist(), "join": lat.join_np.tolist(),
            "bounds": (lat.bottom, lat.top),
            "flags": (lat.is_distributive, lat.is_boolean),
            "irreducibles": [a.tolist() for a in lat.irreducibles], "imp": imp}


def oracle_described(labels, leq):
    """What building (labels, leq) must give, from the definitions alone:
    the error as (type, text, pair), or what ``described`` reads."""
    labels = [str(x) for x in labels]
    if len(set(labels)) != len(labels):
        return ("NotAPoset", f"duplicate labels in {labels}", None)
    missing = reference_missing_bound(labels, leq)
    if missing is not None:
        return ("NotALattice",) + missing
    lat = SimpleNamespace(leq=leq, size=len(labels))
    n = lat.size
    meet, join = oracle_tables(lat)
    bottom, top = oracle_lub(lat, []), oracle_glb(lat, [])
    distributive = oracle_distributive(lat)
    complemented = all(any(meet[a][b] == bottom and join[a][b] == top for b in range(n))
                       for a in range(n))
    imp = None
    if distributive:
        imp = [[oracle_lub(lat, [c for c in range(n) if leq[meet[a][c], b]])
                for b in range(n)] for a in range(n)]
    return {"meet": meet, "join": join, "bounds": (bottom, top),
            "flags": (distributive, distributive and complemented),
            "irreducibles": oracle_irreducibles(lat), "imp": imp}


def built_described(labels, leq):
    try:
        return described(FiniteLattice(labels, leq))
    except NotAPoset as exc:
        return ("NotAPoset", str(exc), None)
    except NotALattice as exc:
        return ("NotALattice", str(exc), exc.pair)


# -- construction --------------------------------------------------------------


def test_three_chain_is_distributive_not_boolean():
    lat = chain3()
    assert lat.size == 3
    assert lat.is_distributive and not lat.is_boolean
    assert lat.labels[lat.bottom] == "0" and lat.labels[lat.top] == "1"


def test_m3_not_distributive_matches_oracle():
    lat = m3()
    assert not lat.is_distributive
    assert not oracle_distributive(lat)
    # The classic witness: a /\ (b \/ c) = a but (a /\ b) \/ (a /\ c) = 0.
    a, b, c = lat.index("a"), lat.index("b"), lat.index("c")
    assert lat.meet([a, lat.join([b, c])]) == a
    assert lat.join([lat.meet([a, b]), lat.meet([a, c])]) == lat.bottom


def test_n5_not_distributive():
    assert not n5().is_distributive
    assert not oracle_distributive(n5())


def test_b2_is_boolean():
    assert b2().is_boolean


def test_cycle_raises_not_a_poset():
    with pytest.raises(NotAPoset):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_missing_bound_raises_not_a_lattice():
    # Two incomparable elements have no join.
    with pytest.raises(NotALattice) as exc:
        build_lattice(["a", "b"], [])
    assert exc.value.pair is not None


def test_duplicate_labels_rejected():
    with pytest.raises(NotAPoset):
        build_lattice(["a", "a"], [])
    # Labels are compared as the strings they become.
    with pytest.raises(NotAPoset, match=r"duplicate labels in \['1', '1'\]"):
        FiniteLattice([1, "1"], [[1, 1], [0, 1]])


def test_order_pair_with_unknown_label():
    with pytest.raises(UnknownElement):
        build_lattice(["a"], [("a", "z")])


def test_tables_match_oracle_on_pool():
    for lat in (chain3(), m3(), n5(), b2()):
        for a in range(lat.size):
            for b_ in range(lat.size):
                assert lat.meet_np[a, b_] == oracle_glb(lat, [a, b_])
                assert lat.join_np[a, b_] == oracle_lub(lat, [a, b_])


def test_irreducibles_match_oracle():
    for lat in (build_lattice(["x"], []), chain3(), m3(), n5(), b2(),
                n5().dual(), chain3().product(b2())):
        assert [a.tolist() for a in lat.irreducibles] == oracle_irreducibles(lat)


def test_big_lattice_tables_and_flags_match_oracle():
    # The tables of the largest catalog lattices against the order-matrix
    # oracle, their flags against a triple scan of those tables, and the
    # relative pseudocomplement against the lub of {c : a /\ c <= b}.
    # The catalog builds boolean(6) and chain(70) in closed form, so their
    # searched builds are checked too.
    for lat, boolean_flag in ((boolean(6), True), (chain(70), False),
                              (chain(8).product(chain(8)), False),
                              (searched(boolean(6)), True), (searched(chain(70)), False)):
        n = lat.size
        meet, join = lat.meet_np.tolist(), lat.join_np.tolist()
        for a in range(n):
            for b_ in range(n):
                assert meet[a][b_] == oracle_glb(lat, [a, b_])
                assert join[a][b_] == oracle_lub(lat, [a, b_])
        assert lat.is_distributive == all(
            meet[a][join[b_][c]] == join[meet[a][b_]][meet[a][c]]
            for a in range(n) for b_ in range(n) for c in range(n))
        assert lat.is_distributive and lat.is_boolean == boolean_flag
        imp = lat.heyting_table()
        for a in range(n):
            for b_ in range(n):
                assert imp[a, b_] == oracle_lub(
                    lat, [c for c in range(n) if lat.leq[meet[a][c], b_]])


def reference_missing_bound(labels, leq):
    """(message, pair) of the first pair without a bound, glbs before lubs,
    found by matching down-sets one pair at a time; None for a lattice."""
    n = len(labels)
    for below, what in ((leq, "greatest lower"), (leq.T, "least upper")):
        ids = {below[:, a].tobytes() for a in range(n)}
        for a in range(n):
            for b in range(n):
                if (below[:, a] & below[:, b]).tobytes() not in ids:
                    return (f"no {what} bound for ({labels[a]}, {labels[b]})",
                            (labels[a], labels[b]))
    return None


def test_missing_bound_names_the_pair_a_loop_finds():
    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 8))
        labels = [f"e{i}" for i in range(n)]
        rel = np.triu(rng.random((n, n)) < 0.35, 1)
        perm = rng.permutation(n)
        leq = _transitive_closure(rel)[np.ix_(perm, perm)]
        expect = reference_missing_bound(labels, leq)
        try:
            FiniteLattice(labels, leq)
            got = None
        except NotALattice as exc:
            got = (str(exc), exc.pair)
        assert got == expect
        outcomes.add(None if expect is None else expect[0].split()[1])
    assert outcomes == {None, "greatest", "least"}


@st.composite
def posets(draw, max_size=9):
    """(labels, leq) of a poset on up to ``max_size`` elements, bounded or
    not, its elements in a drawn order.  The labels are integers, and now
    and then the last one is the string of the first, so that they are
    distinct as given but not as strings."""
    n = draw(st.integers(1, max_size))
    edges = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rel = np.triu(np.array(edges, dtype=bool).reshape(n, n), 1)
    if draw(st.booleans()):
        rel[0, 1:] = rel[:-1, -1] = True
    perm = draw(st.permutations(range(n)))
    labels = list(range(n))
    if n > 1 and draw(st.integers(0, 4)) == 2:
        labels[-1] = str(labels[0])
    return labels, _transitive_closure(rel)[np.ix_(perm, perm)]


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(posets(), posets(max_size=4))
def test_construction_matches_the_definitions(first, second):
    # Tables, bounds, flags, irreducibles and the Heyting table of random
    # posets, their duals and products, or the error and the pair it names,
    # against oracles that read only the order matrix.
    got = built_described(*first)
    assert got == oracle_described(*first)
    if isinstance(got, tuple):
        return
    lat = FiniteLattice(*first)
    assert described(lat.dual()) == oracle_described(lat.labels, lat.leq.T)
    try:
        other = FiniteLattice(*second)
    except (NotAPoset, NotALattice):
        return
    if lat.size * other.size <= 16:
        prod = lat.product(other)
        leq = (lat.leq[:, None, :, None] & other.leq[None, :, None, :]).reshape(
            prod.size, prod.size)
        assert np.array_equal(prod.leq, leq)
        assert described(prod) == oracle_described(prod.labels, leq)


def test_one_row_blocks_build_the_same_lattices(monkeypatch):
    lats = [lat for _, lat in lattice_pool()] + [chain(70), boolean(6)]
    expected = [described(lat) for lat in lats]
    monkeypatch.setattr(lattice_module, "_BLOCK", 1)
    for lat, want in zip(lats, expected):
        assert len(lattice_module._blocks(lat.size, lat.size ** 2)) == lat.size
        assert described(FiniteLattice(lat.labels, lat.leq)) == want


def test_chain200_build_stays_within_its_blocks():
    # An unblocked n^3 temporary would take 8 MB for 200 elements alone.
    # catalog.chain is built in closed form, so the order is searched here.
    searched(chain(3))  # numpy's first-call allocations are not the build's
    closed = chain(200)
    tracemalloc.start()
    try:
        FiniteLattice(closed.labels, closed.leq).heyting_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_absorption_and_idempotence():
    for lat in (chain3(), m3(), n5(), b2()):
        for a in range(lat.size):
            assert lat.meet([a, a]) == a and lat.join([a, a]) == a
            for b_ in range(lat.size):
                assert lat.join([a, lat.meet([a, b_])]) == a
                assert lat.meet([a, lat.join([a, b_])]) == a


def test_commutativity_and_associativity():
    for lat in (chain3(), m3(), n5(), b2()):
        meet, join = lat.meet_np.tolist(), lat.join_np.tolist()
        for a in range(lat.size):
            for b_ in range(lat.size):
                assert meet[a][b_] == meet[b_][a]
                assert join[a][b_] == join[b_][a]
                for c in range(lat.size):
                    assert meet[meet[a][b_]][c] == meet[a][meet[b_][c]]
                    assert join[join[a][b_]][c] == join[a][join[b_][c]]


def test_boolean_flag_matches_complement_oracle():
    for lat in (chain3(), m3(), n5(), b2()):
        has_complements = all(
            any(oracle_glb(lat, [a, b_]) == lat.bottom
                and oracle_lub(lat, [a, b_]) == lat.top
                for b_ in range(lat.size))
            for a in range(lat.size))
        assert lat.is_boolean == (oracle_distributive(lat) and has_complements)


# -- meets and joins of sets -----------------------------------------------------


def test_empty_meet_is_top_empty_join_is_bottom():
    for lat in (chain3(), m3(), b2()):
        assert lat.meet([]) == lat.top
        assert lat.join([]) == lat.bottom


def test_meet_join_examples():
    lat = chain3()
    assert lat.meet([lat.index("m"), lat.index("1")]) == lat.index("m")
    dia = m3()
    assert dia.join([dia.index("a"), dia.index("b")]) == dia.index("1")
    assert dia.join([dia.index("a"), dia.index("b")]) == \
        oracle_lub(dia, [dia.index("a"), dia.index("b")])


def test_unknown_element_rejected():
    with pytest.raises(UnknownElement):
        chain3().meet([7])
    with pytest.raises(UnknownElement):
        chain3().index("zz")


# -- Heyting structure ------------------------------------------------------------


def test_heyting_implies_chain3():
    lat = chain3()
    m, zero = lat.index("m"), lat.index("0")
    # Oracle: the join of everything whose meet with m stays below 0.
    candidates = [c for c in range(lat.size)
                  if lat.leq[oracle_glb(lat, [m, c]), zero]]
    assert lat.heyting_implies(m, zero) == oracle_lub(lat, candidates) == zero
    assert lat.pseudocomplement(m) == zero


def test_imp_self_is_top():
    for lat in (chain3(), b2()):
        for a in range(lat.size):
            assert lat.heyting_implies(a, a) == lat.top


def test_residuation_law_exhaustive_up_to_size_8():
    pool = [
        build_lattice([str(i) for i in range(n)],
                      [(str(i), str(i + 1)) for i in range(n - 1)])
        for n in (2, 3, 4, 5)
    ]
    two = build_lattice(["0", "1"], [("0", "1")])
    pool += [b2(), chain3().product(two)]
    pool.append(boolean(3))
    for lat in pool:
        assert lat.size <= 8
        for a in range(lat.size):
            for b_ in range(lat.size):
                imp = lat.heyting_implies(a, b_)
                for c in range(lat.size):
                    meets = lat.meet([a, c])
                    assert bool(lat.leq[meets, b_]) == bool(lat.leq[c, imp])


def test_byte_masks_meet_and_join_every_pair():
    """Over every catalog lattice of at most 8 irreducibles, its dual, and
    M3 and N5 as searched, in both modes: the AND of two masks decodes to
    the meet of their elements and the OR to their join (the other way
    round over M), and each mask decodes to its element.  A lattice of
    more than 8 irreducibles of a kind has no masks for it."""
    pool = [lat for _, lat in lattice_pool()] + [
        chain(1), chain(9), boolean(3).product(chain(2)), m3(), n5(),
        chain(10), chain(3).product(chain(8))]
    for lat in pool + [lat.dual() for lat in pool]:
        for dual in (False, True):
            masks = lat.byte_masks(dual)
            if len(lat.irreducibles[dual]) > 8:
                assert masks is None
                continue
            bits, decode = masks
            assert bits.dtype == np.uint8 and not bits.flags.writeable
            assert decode[bits].tolist() == list(range(lat.size))
            both, either = bits[:, None] & bits, bits[:, None] | bits
            meet, join = (decode[either], decode[both]) if dual else (decode[both], decode[either])
            assert (meet == lat.meet_np).all() and (join == lat.join_np).all()
            assert lat.byte_masks(dual) is masks


def test_non_distributive_heyting_raises():
    with pytest.raises(NotHeyting):
        n5().heyting_implies(0, 1)


# -- derivations --------------------------------------------------------------------


def test_dual_swaps_bounds():
    lat = chain3()
    d = derive(lat, "dual")
    assert d.labels[d.bottom] == "1" and d.labels[d.top] == "0"
    assert np.array_equal(d.leq, lat.leq.T)


def test_dual_is_built_once():
    for lat in (chain3(), m3(), n5()):
        dual = lat.dual()
        assert dual is lat.dual() and derive(lat, "dual") is dual
        fresh = FiniteLattice(lat.labels, lat.leq.T)
        assert dual == fresh
        for table in ("leq", "meet_np", "join_np"):
            assert np.array_equal(getattr(dual, table), getattr(fresh, table))
        assert (dual.bottom, dual.top) == (fresh.bottom, fresh.top)


def test_dual_dual_is_identity():
    for lat in (chain3(), m3(), n5()):
        dd = derive(derive(lat, "dual"), "dual")
        assert dd == lat


def attributes(lat):
    """Every attribute a build fixes, with the types it holds them in."""
    try:
        imp = lat.heyting_table()
        imp = (imp.tolist(), imp.dtype)
    except NotHeyting:
        imp = None
    arrays = {name: getattr(lat, name) for name in ("leq", "meet_np", "join_np")}
    return {"labels": lat.labels, "size": lat.size, "imp": imp,
            **{name: (a.tolist(), a.dtype, a.flags.writeable) for name, a in arrays.items()},
            "bounds": [(b, type(b)) for b in (lat.bottom, lat.top)],
            "irreducibles": [(a.tolist(), a.dtype, a.flags.writeable)
                             for a in lat.irreducibles],
            "flags": [(f, type(f)) for f in (lat.is_distributive, lat.is_boolean)]}


def searched(lat):
    """The lattice of the same labels and order, built by searching it."""
    return FiniteLattice(lat.labels, lat.leq)


def assert_built_as_searched(lat, factors=None):
    fresh = searched(lat)
    assert attributes(lat) == attributes(fresh)
    assert lat == fresh and hash(lat) == hash(fresh)
    assert lat.factors == factors


def derived_pool():
    """The pool, 1-element and 64-element lattices, and products and duals
    among them, each with the factors it was built from, or None."""
    pool = [lat for _, lat in lattice_pool()] + [boolean(0)]
    two, six = chain(2), chain(2).product(chain(3))
    out = [(a.product(b), (a, b)) for a in pool for b in pool]
    out += [(lat.dual(), None) for lat, _ in out] + [(lat.dual(), None) for lat in pool]
    out += [(six.product(two), (six, two)), (two.product(six), (two, six)),
            (six.product(six).dual(), None), (six.dual().product(two), (six.dual(), two)),
            (chain(8).product(chain(8)), (chain(8), chain(8))),
            (boolean(6).dual(), None), (chain(70).dual(), None)]
    return out


def test_derived_lattices_match_the_searched_build():
    # Duals and products are read off the lattices they derive from; they
    # must hold exactly what searching their order gives, dtypes included.
    for lat, factors in derived_pool():
        assert_built_as_searched(lat, factors)


def test_chains_and_boolean_lattices_match_the_searched_build():
    # catalog.chain and catalog.boolean are built in closed form; they,
    # their duals and their products with the pool must hold exactly what
    # searching their order gives.  The closed form is one expression for
    # every n, so products are taken for the small chains and chain(70).
    pool = [lat for _, lat in lattice_pool()]
    chains = [chain(n) for n in (*range(1, 71), 200)]
    booleans = [boolean(k) for k in range(7)]
    for lat in chains + booleans:
        assert_built_as_searched(lat)
        assert_built_as_searched(lat.dual())
    for lat in [chain(n) for n in (*range(1, 9), 70)] + booleans:
        for other in pool:
            assert_built_as_searched(lat.product(other), (lat, other))


def test_m3_and_n5_match_the_searched_build():
    # catalog.m3 and catalog.n5 are built in closed form too
    pool = [lat for _, lat in lattice_pool()]
    for lat in (get_lattice("M3"), get_lattice("N5")):
        assert_built_as_searched(lat)
        assert_built_as_searched(lat.dual())
        for other in pool:
            assert_built_as_searched(lat.product(other), (lat, other))
            assert_built_as_searched(other.product(lat), (other, lat))


def test_catalog_builds_chains_and_boolean_lattices_without_a_search(monkeypatch):
    class Searched(Exception):
        pass

    def search(*args):
        raise Searched

    monkeypatch.setattr(FiniteLattice, "_bound_tables", search)
    for name, size in (("chain70", 70), ("boolean6", 64), ("chain8*chain8", 64),
                       ("chain3*boolean2", 12)):
        lat = get_lattice(name)
        assert (lat.size, lat.dual().top) == (size, lat.bottom)
    # M3 and N5 are written out too, and a lattice given by its order is
    # still searched
    for name, size in (("M3", 5), ("N5", 5), ("M3*N5", 25)):
        lat = get_lattice(name)
        assert (lat.size, lat.dual().top, lat.is_distributive) == (size, lat.bottom, False)
    with pytest.raises(Searched):
        searched(get_lattice("N5"))


def test_importing_convalg_searches_no_lattice():
    # convolution._TWO, the lattice 2 under every 2^X, is chain(2).
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "calls = []\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call' and\n"
            "               frame.f_code.co_name == '_bound_tables' and calls.append(1))\n"
            "import convalg\n"
            "sys.setprofile(None)\n"
            "print(len(calls), convalg.convolution._TWO.labels)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "0 ('0', '1')\n"), done.stderr


def test_dual_swaps_its_tables_bounds_and_irreducibles():
    lat = n5()
    dual = lat.dual()
    assert dual.meet_np is lat.join_np and dual.join_np is lat.meet_np
    assert (dual.bottom, dual.top) == (lat.top, lat.bottom)
    assert dual.irreducibles == lat.irreducibles[::-1]
    assert_built_as_searched(dual.dual())


def test_product_with_colliding_labels_is_rejected_as_searched():
    # (x, y.z) and (x.y, z) are both labelled x.y.z.
    left = build_lattice(["x", "x.y"], [("x", "x.y")])
    right = build_lattice(["y.z", "z"], [("y.z", "z")])
    labels = [f"{a}.{b}" for a in left.labels for b in right.labels]
    leq = np.kron(left.leq, right.leq)
    with pytest.raises(NotAPoset) as want:
        FiniteLattice(labels, leq)
    with pytest.raises(NotAPoset) as got:
        left.product(right)
    assert str(got.value) == str(want.value) == (
        "duplicate labels in ['x.y.z', 'x.z', 'x.y.y.z', 'x.y.z']")


def warshall(rel):
    """Reflexive-transitive closure by Warshall's loop over the elements."""
    out = rel.copy()
    out[np.diag_indices(len(rel))] = True
    for k in range(len(rel)):
        out |= out[:, k:k + 1] & out[k:k + 1, :]
    return out


def test_closure_matches_warshall():
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(0, 14))
        rel = rng.random((n, n)) < rng.choice([0.05, 0.15, 0.4])  # cycles too
        got = _transitive_closure(rel)
        assert got.dtype == bool and np.array_equal(got, warshall(rel))
    # A path of 40 steps needs six squarings.
    path = np.eye(41, k=1, dtype=bool)
    assert np.array_equal(_transitive_closure(path), np.triu(np.ones((41, 41), bool)))


def test_product_of_two_chains_is_b2():
    two = build_lattice(["0", "1"], [("0", "1")])
    prod = derive(two, "product", two)
    assert prod.size == 4 and prod.is_boolean
    assert prod.factors == (two, two)
    i = prod.pair_index(1, 0)
    assert prod.unpair_index(i) == (1, 0)


def test_generated_sublattice_examples():
    lat = b2()
    sub, emb = lat.generated_sublattice([lat.index("a")])
    assert [lat.labels[e] for e in emb] == ["0", "a", "1"]
    sub0, emb0 = lat.generated_sublattice([])
    assert [lat.labels[e] for e in emb0] == ["0", "1"]
    sub_all, emb_all = lat.generated_sublattice(range(lat.size))
    assert sub_all == lat and emb_all == tuple(range(lat.size))


def test_generated_sublattice_closed_and_embeds():
    lat = m3()
    gens = [lat.index("a"), lat.index("b")]
    sub, emb = lat.generated_sublattice(gens)
    back = {e: k for k, e in enumerate(emb)}
    for x in range(sub.size):
        for y in range(sub.size):
            # The inclusion preserves meets and joins.
            assert emb[sub.meet_np[x, y]] == lat.meet_np[emb[x], emb[y]]
            assert emb[sub.join_np[x, y]] == lat.join_np[emb[x], emb[y]]
    assert lat.bottom in back and lat.top in back


def test_generated_sublattice_is_minimal():
    lat = b2()
    gens = {lat.index("a")}
    sub, emb = lat.generated_sublattice(gens)
    keep = gens | {lat.bottom, lat.top}
    for e in emb:
        if e in keep:
            continue
        remaining = set(emb) - {e}
        produced = {lat.meet_np[u, v] for u in remaining for v in remaining}
        produced |= {lat.join_np[u, v] for u in remaining for v in remaining}
        assert not produced <= remaining  # dropping e breaks closure


# -- JSON interchange ------------------------------------------------------------------


def test_json_round_trip_is_canonical():
    doc1 = {"labels": ["1", "0", "m"], "leq": [["0", "m"], ["m", "1"]]}
    doc2 = {"labels": ["m", "1", "0"], "leq": [["0", "m"], ["m", "1"], ["0", "1"]]}
    lat1 = lattice_from_json(doc1)
    lat2 = lattice_from_json(json.dumps(doc2))
    assert lattice_to_json(lat1) == lattice_to_json(lat2)
    assert lat1 == lat2
    reloaded = lattice_from_json(lattice_to_json(lat1))
    assert lattice_to_json(reloaded) == lattice_to_json(lat1)


def test_lattice_equality_and_hash():
    assert chain3() == chain3()
    assert hash(chain3()) == hash(chain3())
    assert chain3() != b2()
