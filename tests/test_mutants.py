"""The mutation table of ``tools/mutants.py`` matches today's source.

No mutant runs here (``python tools/mutants.py`` runs them); each row's
old text must occur exactly once in its file, and each test it names
must exist, so a change to the code updates the table instead of
orphaning a row.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _table():
    path = ROOT / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutant_table", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name], write = module, sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
        del sys.modules[spec.name]
    return module.MUTANTS


MUTANTS = _table()


def test_mutant_ids_are_distinct():
    ids = [m.id for m in MUTANTS]
    assert len(set(ids)) == len(ids) >= 8


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_each_mutant_applies_once_and_names_tests_that_exist(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
