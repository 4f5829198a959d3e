"""Catalog constructors: exact contents, determinism, name resolution."""

import json

import pytest

from convalg.catalog import (boolean, catalog_entries, chain, get_group,
                             get_lattice, get_structure, grid_labels,
                             lattice_pool, m3, n5, structure_pool,
                             symmetric_group_3, type2_structure)
from convalg.convolution import ConvAlgebra
from convalg.errors import InvalidGrid, UnknownName
from convalg.lattice import lattice_from_json, lattice_to_json
from convalg.structures import (JOIN, MEET, structure_from_json,
                                structure_to_json)


def test_chain2_is_the_two_element_lattice():
    two = chain(2)
    assert two.size == 2 and two.is_boolean
    assert two.labels == ("0", "1")


def test_boolean2_flags():
    lat = boolean(2)
    assert lat.size == 4 and lat.is_boolean
    assert lat.labels == ("0", "a", "b", "ab")


def test_boolean_order_is_the_subset_order():
    for k in range(7):
        lat = boolean(k)
        subsets = [set(label) - {"0"} for label in lat.labels]
        assert lat.size == 2 ** k and lat.is_boolean
        assert lat.leq.tolist() == [[a <= b for b in subsets] for a in subsets]


def test_m3_n5_non_distributive():
    assert not m3().is_distributive
    assert not n5().is_distributive
    assert not n5().is_boolean


def test_get_lattice_names():
    assert get_lattice("chain3").size == 3
    assert get_lattice("boolean2").is_boolean
    assert get_lattice("M3") == m3()
    assert get_lattice("n5") == n5()
    prod = get_lattice("chain2*chain2")
    assert prod.size == 4 and prod.is_boolean
    with pytest.raises(UnknownName):
        get_lattice("zorp")


def test_get_group_names():
    assert get_group("Z2").carrier_size == 2
    assert get_group("z3").carrier_size == 3
    assert get_group("S3").carrier_size == 6
    with pytest.raises(UnknownName):
        get_group("Q8")


def test_s3_is_nonabelian_but_validates():
    s3 = symmetric_group_3()
    mult = s3.relations[s3.relation("*")]
    table = {}
    for a, b, c in mult:
        table[(a, b)] = c
    assert any(table[(a, b)] != table[(b, a)] for a in range(6) for b in range(6))


def test_get_structure_names():
    assert get_structure("Z2").carrier_size == 2
    assert get_structure("full3").carrier_size == 3
    assert len(get_structure("fullext2").signature) == 2
    assert get_structure("type2_3").carrier_size == 3
    assert get_structure("frame2-succ").carrier_size == 2
    with pytest.raises(UnknownName):
        get_structure("mystery")


def test_pools_have_promised_sizes():
    assert len(structure_pool()) >= 20
    assert all(s.carrier_size <= 3 for _, s in structure_pool())
    assert all(spec.arity <= 2
               for _, s in structure_pool() for spec in s.signature.rel_specs)
    assert any(spec.arity == 0
               for _, s in structure_pool() for spec in s.signature.rel_specs)
    assert any(spec.mode == MEET
               for _, s in structure_pool() for spec in s.signature.rel_specs)
    assert len(lattice_pool()) >= 6


def test_type2_grid_validation():
    with pytest.raises(InvalidGrid):
        type2_structure(1)


def test_type2_negation_is_an_involution():
    for n in (2, 3, 4):
        s, names = type2_structure(n)
        neg = s.relations[s.relation(names["star"])]
        mapping = {a: b for a, b in neg}
        assert all(mapping[mapping[a]] == a for a in range(n))


def test_type2_lattice_ops_are_total_functional():
    s, names = type2_structure(3)
    for key in ("sqcap", "sqcup"):
        rel = s.relations[s.relation(names[key])]
        outputs = {}
        for a, b, c in rel:
            assert (a, b) not in outputs
            outputs[(a, b)] = c
        assert len(outputs) == 9


def test_type2_n2_join_formula():
    # Oracle: enumerate the max-relation triples and fold the formula.
    s, names = type2_structure(2)
    lat = chain(2)
    algebra = ConvAlgebra(lat, s)
    meet, join = lat.meet_np.tolist(), lat.join_np.tolist()
    for a0 in range(2):
        for a1 in range(2):
            for b0 in range(2):
                for b1 in range(2):
                    alpha = algebra.function([a0, a1])
                    beta = algebra.function([b0, b1])
                    out = algebra.op(names["sqcup"], (alpha, beta))
                    at1 = join[join[meet[a0][b1]][meet[a1][b0]]][meet[a1][b1]]
                    at0 = meet[a0][b0]
                    assert out.values == (at0, at1)


def test_type2_star_is_reindexing():
    s, names = type2_structure(4)
    lat = chain(4)
    algebra = ConvAlgebra(lat, s)
    alpha = algebra.function([0, 3, 1, 2])
    out = algebra.op(names["star"], (alpha,))
    assert out.values == tuple(reversed(alpha.values))


def test_type2_constants():
    s, names = type2_structure(3)
    algebra = ConvAlgebra(chain(3), s)
    assert algebra.op(names["one1"], ()).values == (0, 0, 2)
    assert algebra.op(names["one0"], ()).values == (2, 0, 0)


def test_type2_mixed_modes():
    s, names = type2_structure(2, mixed=True)
    spec = {sp.name: sp.mode for sp in s.signature.rel_specs}
    assert spec["min"] == MEET and spec["max"] == JOIN
    assert spec["c0"] == MEET and spec["c1"] == JOIN


def test_grid_labels_are_exact_rationals():
    assert grid_labels(3) == ["0", "1/2", "1"]
    assert grid_labels(2) == ["0", "1"]


def test_catalog_builds_are_deterministic():
    for name, lat in lattice_pool():
        again = dict(lattice_pool())[name]
        assert json.dumps(lattice_to_json(lat), sort_keys=True) == \
            json.dumps(lattice_to_json(again), sort_keys=True)
    fresh = dict(structure_pool.__wrapped__())  # past the per-process cache
    for name, s in structure_pool():
        again = fresh[name]
        assert json.dumps(structure_to_json(s), sort_keys=True) == \
            json.dumps(structure_to_json(again), sort_keys=True)


def test_the_structure_pool_is_built_once_per_process():
    # a structure keeps its kernel indices and subset images, which a
    # rebuilt pool would drop and validate again on every call
    first, second = structure_pool(), structure_pool()
    assert all(a is b for (_, a), (_, b) in zip(first, second, strict=True))


def test_catalog_documents_load_unchanged():
    """The loaders' shape checks accept every document the catalog writes."""
    lattices = [lat for _, lat in lattice_pool()] + [
        get_lattice(name) for name in ("chain3", "boolean2", "M3", "N5", "chain2*chain3")]
    for lat in lattices:
        doc = json.loads(json.dumps(lattice_to_json(lat)))
        assert lattice_to_json(lattice_from_json(doc)) == doc
    structures = [s for _, s in structure_pool()] + [
        get_structure(name) for name in ("Z2", "S3", "full2", "fullext2", "type2_3",
                                         "type2mixed_3")]
    for s in structures:
        doc = json.loads(json.dumps(structure_to_json(s)))
        assert structure_from_json(doc) == s


def test_catalog_entries_are_json_lines():
    entries = catalog_entries()
    assert any(e.kind == "lattice" for e in entries)
    assert any(e.kind == "group" for e in entries)
    for e in entries:
        doc = e.to_dict()
        assert set(doc) == {"name", "kind", "parameters"}
        json.dumps(doc)
