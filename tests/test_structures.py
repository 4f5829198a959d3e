"""Relational structures: validation, groups, p-morphisms, unions."""

import numpy as np
import pytest

from convalg.errors import (ArityMismatch, IndexOutOfRange, NotAGroup,
                            OrderNotClosed, SignatureMismatch)
from convalg.structures import (JOIN, MEET, RelStructure, build_structure,
                                disjoint_union, from_group, full_structure,
                                is_p_morphism, signature,
                                structure_from_json, structure_to_json)


def z2():
    return from_group([[0, 1], [1, 0]])


def z4():
    return from_group([[(a + b) % 4 for b in range(4)] for a in range(4)])


def reduct(structure, keep):
    idx = [structure.signature.index(n) for n in keep]
    sig = signature(*((structure.signature.rel_specs[i].name,
                       structure.signature.rel_specs[i].arity,
                       structure.signature.rel_specs[i].mode) for i in idx))
    return RelStructure(structure.carrier_size, sig,
                        [structure.relations[i] for i in idx])


# -- construction ---------------------------------------------------------------


def test_kripke_frame_builds():
    s = build_structure(2, signature(("r", 1, JOIN)), [{(0, 1), (1, 1)}])
    assert s.carrier_size == 2
    assert s.predecessors(0, 1) == [(0,), (1,)]


def test_empty_relation_is_valid():
    s = build_structure(3, signature(("r", 2, JOIN)), [set()])
    assert s.relations[0] == frozenset()


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        build_structure(2, signature(("r", 1, JOIN)), [{(0, 1, 1)}])


def test_negative_arity_rejected():
    with pytest.raises(ArityMismatch):
        signature(("r", -1, JOIN))


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_structure(2, signature(("r", 1, JOIN)), [{(0, 5)}])
    with pytest.raises(IndexOutOfRange):
        build_structure(0, signature(), [])


def test_carrier_indices_are_integers():
    # int() would make a point of a bool, a float or a numeral string;
    # none is one, while numpy integers are
    sig = signature(("f", 1, JOIN))
    for bad in [(0, 1.7), (True, 1), ("1", 0), (np.float64(1), 0), (np.bool_(True), 0)]:
        with pytest.raises(IndexOutOfRange):
            RelStructure(2, sig, [{bad}])
    for pair in [(True, 1), (0.0, 1), (0, "1")]:
        with pytest.raises(IndexOutOfRange):
            build_structure(2, sig, [set()], order_pairs=[pair])
    assert RelStructure(2, sig, [{(np.int64(0), np.int32(1))}]).relations == (
        frozenset({(0, 1)}),)
    assert build_structure(2, sig, [set()], order_pairs=[(np.int64(0), 1)]).order[0, 1]


def test_order_not_closed_names_witness():
    # (0,0) present and 0 <= 1 demands (0,1) for an up-closed join relation.
    with pytest.raises(OrderNotClosed) as exc:
        build_structure(2, signature(("r", 1, JOIN)), [{(0, 0)}],
                        order_pairs=[(0, 1)])
    assert exc.value.relation == "r"
    assert exc.value.witness == (0, 0)


def test_meet_relation_must_be_down_closed():
    with pytest.raises(OrderNotClosed):
        build_structure(2, signature(("s", 1, MEET)), [{(0, 1)}],
                        order_pairs=[(0, 1)])
    # Down-closed variant passes.
    s = build_structure(2, signature(("s", 1, MEET)), [{(0, 1), (0, 0)}],
                        order_pairs=[(0, 1)])
    assert s.order is not None


def test_order_cycle_rejected():
    with pytest.raises(OrderNotClosed, match="not a partial order"):
        build_structure(2, signature(), [], order_pairs=[(0, 1), (1, 0)])


@pytest.mark.parametrize("order", [
    np.ones((3, 3), dtype=bool),  # every pair: no antisymmetry
    np.zeros((3, 3), dtype=bool),  # not reflexive
    np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool),  # 0 <= 1 <= 2 without 0 <= 2
    np.eye(2, dtype=bool),  # not a relation on 3 points
])
def test_a_structure_refuses_an_order_that_is_not_a_partial_order(order):
    # ordered carriers and samples assume a partial order: the all-pairs
    # relation has no covering pairs, so over chain2 all 8 maps passed as
    # monotone, not only the 2 constant ones
    sig = signature(("f", 1, JOIN))
    with pytest.raises(OrderNotClosed, match="not a partial order"):
        RelStructure(3, sig, [set()], order=order)
    chain3 = build_structure(3, sig, [set()], order_pairs=[(0, 1), (1, 2)])
    assert RelStructure(3, sig, [set()], order=chain3.order) == chain3


# -- groups ------------------------------------------------------------------------


def test_z2_relations_exact():
    s = z2()
    assert s.relations[s.relation("*")] == frozenset(
        {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
    assert s.relations[s.relation("conv")] == frozenset({(0, 0), (1, 1)})
    assert s.relations[s.relation("id")] == frozenset({(0,)})


def test_z3_inverse_pairs():
    s = from_group([[(a + b) % 3 for b in range(3)] for a in range(3)])
    assert len(s.relations[s.relation("*")]) == 9
    assert s.relations[s.relation("conv")] == frozenset({(0, 0), (1, 2), (2, 1)})


def test_non_associative_magma_rejected():
    # x*y = x except 1*1 = 0: (0*1)*1 = 0 but 0*(1*1) = 0 ... build a real
    # counterexample: subtraction mod 3 is not associative.
    table = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(NotAGroup) as exc:
        from_group(table)
    assert exc.value.axiom == "associativity"


def test_no_identity_rejected():
    table = [[0, 0], [0, 0]]
    with pytest.raises(NotAGroup) as exc:
        from_group(table)
    assert exc.value.axiom in ("identity", "inverses")


def test_table_entry_out_of_carrier():
    with pytest.raises(NotAGroup):
        from_group([[0, 1], [1, 7]])


# -- full structures -----------------------------------------------------------------


def test_full_structure_examples():
    one = full_structure(1)
    assert one.relations[0] == frozenset({(0, 0)})
    two = full_structure(2)
    assert len(two.relations[0]) == 4
    ext = full_structure(2, extended=True)
    assert ext.signature.rel_specs[0].mode == JOIN
    assert ext.signature.rel_specs[1].mode == MEET
    assert ext.relations[0] == ext.relations[1]
    assert len(ext.relations[0]) == 4


# -- p-morphisms ------------------------------------------------------------------------


def test_identity_is_p_morphism():
    for s in (z2(), full_structure(3),
              build_structure(2, signature(("r", 1, JOIN)), [{(0, 1)}])):
        ok, witness = is_p_morphism(list(range(s.carrier_size)), s, s)
        assert ok and witness is None


def test_quotient_z4_to_z2_on_product_converse_reduct():
    dom = reduct(z4(), ["*", "conv"])
    cod = reduct(z2(), ["*", "conv"])
    p = [0, 1, 0, 1]
    # Oracle: both inclusions of the predecessor condition, written out.
    for i in range(2):
        for x in range(4):
            left = {t[:-1] for t in cod.relations[i] if t[-1] == p[x]}
            right = {tuple(p[v] for v in t[:-1])
                     for t in dom.relations[i] if t[-1] == x}
            assert left <= right and right <= left
    ok, witness = is_p_morphism(p, dom, cod)
    assert ok and witness is None


def test_quotient_fails_on_the_identity_constant():
    # p^{-1} of the codomain identity is the kernel {0, 2}, not {0}: the
    # nullary slot breaks the predecessor condition at x = 2.
    ok, witness = is_p_morphism([0, 1, 0, 1], z4(), z2())
    assert not ok
    assert witness["relation"] == "id"
    assert witness["x"] in (0, 2)


def test_constant_map_to_empty_relation_fails():
    dom = build_structure(2, signature(("r", 1, JOIN)), [{(0, 1)}])
    cod = build_structure(1, signature(("r", 1, JOIN)), [set()])
    ok, witness = is_p_morphism([0, 0], dom, cod)
    assert not ok
    assert witness["x"] == 1
    assert witness["left_only"] == []
    assert witness["right_only"] == [(0,)]


def test_p_morphisms_compose():
    cycle4 = build_structure(4, signature(("r", 1, JOIN)),
                             [{(i, (i + 1) % 4) for i in range(4)}])
    cycle2 = build_structure(2, signature(("r", 1, JOIN)),
                             [{(0, 1), (1, 0)}])
    loop1 = build_structure(1, signature(("r", 1, JOIN)), [{(0, 0)}])
    p = [0, 1, 0, 1]
    q = [0, 0]
    ok_p, _ = is_p_morphism(p, cycle4, cycle2)
    ok_q, _ = is_p_morphism(q, cycle2, loop1)
    assert ok_p and ok_q
    comp = [q[p[x]] for x in range(4)]
    ok_c, _ = is_p_morphism(comp, cycle4, loop1)
    assert ok_c


def test_ordered_p_morphism_requires_monotone_map():
    sig = signature(("r", 1, JOIN))
    dom = build_structure(2, sig, [{(0, 1), (1, 1), (0, 0)}], order_pairs=[(0, 1)])
    cod = build_structure(2, sig, [{(0, 1), (1, 1), (0, 0)}], order_pairs=[(0, 1)])
    ok, witness = is_p_morphism([1, 0], dom, cod)
    assert not ok and witness["kind"] == "order"


def test_p_morphism_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        is_p_morphism([0, 0], z2(), full_structure(1))


# -- disjoint unions ----------------------------------------------------------------------


def test_disjoint_union_single_points():
    sig = signature(("r", 1, JOIN))
    x = build_structure(1, sig, [{(0, 0)}])
    u = disjoint_union(x, x)
    assert u.carrier_size == 2
    assert u.relations[0] == frozenset({(0, 0), (1, 1)})


def test_disjoint_union_counts_add():
    sig = signature(("r", 1, JOIN))
    x = build_structure(2, sig, [{(0, 1)}])
    y = build_structure(3, sig, [{(0, 0), (1, 2)}])
    u = disjoint_union(x, y)
    assert u.carrier_size == 5
    assert len(u.relations[0]) == 3
    assert (2, 2) in u.relations[0] and (3, 4) in u.relations[0]


def test_disjoint_union_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        disjoint_union(z2(), full_structure(2))


# -- JSON ------------------------------------------------------------------------------------


def test_structure_json_round_trip():
    s = build_structure(2, signature(("r", 1, JOIN), ("s", 0, MEET)),
                        [{(0, 1), (1, 1)}, {(0,)}], order_pairs=[(0, 1)])
    doc = structure_to_json(s)
    back = structure_from_json(doc)
    assert back == s
    assert structure_to_json(back) == doc


def test_structure_json_defaults_to_join_mode():
    doc = {"carrier": 2,
           "relations": [{"name": "r", "arity": 1, "tuples": [[0, 1]]}]}
    s = structure_from_json(doc)
    assert s.signature.rel_specs[0].mode == JOIN
