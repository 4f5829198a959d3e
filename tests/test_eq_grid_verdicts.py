"""The verdicts of the eq-grid benchmark batch are pinned.

The batch's cases are built by ``perfbench/workloads.py``, which is read
here without being changed, and each case is checked as the benchmark
checks it.  Every verdict's ``to_json()`` line, or the name of the error
a case raises, must match ``tests/data/eq-grid-verdicts-seed{0,1}.jsonl``
line for line, so a change that moves a path, a count or a least
counterexample of any of the 255 cases fails here.  When a change is
meant to move one, rewrite the pins with

    PYTHONPATH=src python tests/test_eq_grid_verdicts.py

and list the lines that moved in CHANGES.md.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import convalg
from convalg.errors import ConvalgError

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
SEEDS = (0, 1)


def _workloads():
    """perfbench/workloads.py as a module, imported without writing bytecode
    next to it."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("eq_grid_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name], write = module, sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
        del sys.modules[spec.name]
    return module


def _verdict(lattices, case):
    lat = lattices.get(case.lattice)
    if case.kind in ("conv", "ordered"):
        algebra = convalg.ConvAlgebra(lat, case.structure, ordered=case.kind == "ordered")
    elif case.kind == "subset":
        algebra = convalg.SubsetAlgebra(case.structure)
    else:
        algebra = lat
    try:
        return convalg.check_equation(case.equation, algebra, mode=case.mode,
                                      budget=case.budget, seed=case.seed).to_json()
    except ConvalgError as exc:
        return {"error": type(exc).__name__}


def verdict_lines(seed: int) -> list[str]:
    """One JSON line per eq-grid case at ``seed``: its label and verdict."""
    lattices, cases = _workloads().eq_grid(convalg, seed)
    return [json.dumps({"case": case.label, "verdict": _verdict(lattices, case)},
                       sort_keys=True) + "\n" for case in cases]


@pytest.mark.parametrize("seed", SEEDS)
def test_eq_grid_verdicts_are_pinned(seed):
    pinned = (DATA / f"eq-grid-verdicts-seed{seed}.jsonl").read_text().splitlines(True)
    got = verdict_lines(seed)
    assert len(got) == len(pinned) == 255
    moved = [(i + 1, a, b) for i, (a, b) in enumerate(zip(got, pinned)) if a != b]
    assert not moved, f"{len(moved)} verdicts moved, the first (line, got, pinned): {moved[0]}"


# the cases over a lattice that is not distributive whose verdicts the
# generators decide at both seeds: a unary relation of either mode, with
# meets or joins of its own mode, or x * id over S3, whose other argument
# is ground
MOVED = {"rand/M3/n2/mult2", "rand/N5/n2/mult2", "rand/N5/n3/add2", "rand/N5/n4/mult2",
         "group/M3/S3/inv1", "group/M3/S3/unit1", "group/N5/S3/inv1", "group/N5/S3/unit1"}


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_verdicts_over_m3_and_n5_match_the_whole_grid(seed):
    lattices, cases = _workloads().eq_grid(convalg, seed)
    moved = set()
    for case in cases:
        lat = lattices.get(case.lattice)
        if case.kind != "conv" or lat.is_distributive:
            continue
        algebra = convalg.ConvAlgebra(lat, case.structure)
        v = convalg.check_equation(case.equation, algebra, mode=case.mode,
                                   budget=case.budget, seed=case.seed)
        if v.path == "generators":
            moved.add(case.label)
            full = convalg.check_equation(case.equation, algebra, mode="exhaustive",
                                          budget=10 ** 6)
            assert full.status == v.status, case.label
    assert moved == MOVED


# the cases that the free lattice decides at both seeds: absorption with a
# relation over M3 and N5, and commutativity of the Z3 convolution over
# them, each on at most 15,625 rows of the whole grid
FREE = {"rand/M3/n4/absorb1", "rand/M3/n6/absorb1", "rand/N5/n4/absorb1",
        "rand/N5/n5/absorb1", "rand/N5/n6/absorb1", "group/M3/Z3/comm2", "group/N5/Z3/comm2"}


@pytest.mark.parametrize("seed", SEEDS)
def test_free_verdicts_match_the_whole_grid(seed):
    lattices, cases = _workloads().eq_grid(convalg, seed)
    free = set()
    for case in cases:
        if case.kind != "conv":
            continue
        algebra = convalg.ConvAlgebra(lattices.get(case.lattice), case.structure)
        v = convalg.check_equation(case.equation, algebra, mode=case.mode,
                                   budget=case.budget, seed=case.seed)
        if v.path == "free":
            free.add(case.label)
            full = convalg.check_equation(case.equation, algebra, mode="exhaustive",
                                          budget=15_625)
            assert full.status == v.status, case.label
    assert free == FREE


if __name__ == "__main__":
    for seed in SEEDS:
        (DATA / f"eq-grid-verdicts-seed{seed}.jsonl").write_text("".join(verdict_lines(seed)))
