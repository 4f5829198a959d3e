"""The traced benchmark run wraps convalg's public calls from outside.

``perfbench/tracing.py`` replaces names on convalg's modules and classes
and reads each one from its owner's ``__dict__``, so a name it patches
must stay defined on its own class (``random_element``, ``op_resolver``,
``dual_conv``, ...).  Installing and removing the tracer here makes the
deletion or move of any such name fail the test suite.
"""

import importlib.util
import random
from pathlib import Path

from convalg import checks, cli, suites, terms
from convalg.catalog import chain, cyclic_group
from convalg.convolution import ConvAlgebra, SubsetAlgebra
from convalg.terms import Equation, Join, Var


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    patched = [(ConvAlgebra, name) for name in
               ("__init__", "op", "conv", "dual_conv", "op_resolver", "meet",
                "join", "neg", "imp", "le", "elements", "carrier_list",
                "random_element")]
    patched += [(SubsetAlgebra, name) for name in
                ("op", "op_resolver", "elements", "carrier_list", "random_element")]
    before = {(owner, name): owner.__dict__[name] for owner, name in patched}
    functions = (terms.check_equation, checks.check_operator, cli.main,
                 suites.SUITES["paper-core"])

    tracer = _tracing().Tracer("hooks")
    tracer.install()
    try:
        assert all(owner.__dict__[name] is not before[owner, name]
                   for owner, name in patched)
        algebra = ConvAlgebra(chain(3), cyclic_group(2))
        algebra.random_element(random.Random(0))
        algebra.op_resolver("*")((algebra.bot(), algebra.top()))
        verdict = checks.check_equation(
            Equation(Join(Var("x"), Var("x")), Var("x")), algebra)
        assert verdict.status == "valid_exhaustive"
        assert tracer.assignments == verdict.tried == 9
        assert tracer.totals["convolution.apply"][1] == 1
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[name] is before[owner, name] for owner, name in patched)
    assert (terms.check_equation, checks.check_operator, cli.main,
            suites.SUITES["paper-core"]) == functions
