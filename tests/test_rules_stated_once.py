"""The budget rule and the report rule are each stated once.

``convolution.resolve_budget`` is the only place that reads
``DEFAULT_BUDGET`` for a missing budget (and rejects one below 1), and
``checks.Report.of`` the only place that turns a list of failures into a
status and a witness.  A hand-written copy of either rule in a checker is
where the copies drift apart, so this test fails if one comes back: a
report built by calling ``Report`` itself, or a status or witness written
into a report after it is built.

``terms.check_equation`` is also the unit of a verdict: each call from
outside is one verdict, so nothing inside ``terms.py`` calls it again.
And it searches rows of the algebra it is given: the only algebra
``terms.py`` builds is the one-point ``L^1`` of a bare lattice, in
``_batch_algebra``.

The path that decides a verdict is chosen in one place too: only
``terms._route`` names a path it refines the grid or the samples into,
or asks whether one point, code tables, ``2^X``, generator domains or
the free lattice apply (``_two_valued`` decides ``2^X`` through
``_route`` itself), and no code infers a path from which of a verdict's fields are
set.  Only ``check_equation`` builds a ``Verdict``, after one search,
with no branch of its own on the path.  And which variables of an
equation, or of the relation-algebra checker's De Morgan scans, range
over generators is decided in ``terms`` alone, from one classifier of
how a variable occurs.  That rule holds over any finite lattice: it reads
whether the lattice is distributive only to choose between arguments free
of a variable and ground ones, and for the case t ∨ ¬s = ¬s.

Every claim subset-iso or structural-isos makes on a map (a homomorphism,
one-one and onto where claimed) is decided by ``checks._claim_witness``,
structural-isos's lattice-free claims once per process: the checkers and
claim builders count no images, compare no sets of them and no operations
of their own.

Every transfer comparison, 2^X against the subset algebra and L^X
against 2^X in equation-transfer and the chain against the subset
algebra in ``check_type2_transfer``, is decided by ``checks._transfer``:
only it and the associativity side of ``check_z2_associativity`` pass
``two_valued=False``, only it asks whether two verdicts are decided, and
``suites.py`` decides no verdict of its own.

A lattice's tables are searched from its order, except where they are
known outright: ``FiniteLattice._derived``, which takes them unchecked,
is called only by the order dual and the product in ``lattice.py`` and
by the chains, Boolean lattices, M3 and N5 of ``catalog.py``.

Terms are evaluated in one place: an equation's compiled plan
(``terms._Plan.run``) is the only code in ``terms.py`` that applies an
algebra's batched operations, and the relation-algebra checker's De
Morgan bounds run such a plan rather than a term walk of their own.

A relation's name, arity and mode are facts about the structure, which
no lattice changes: ``RelStructure.spec`` is the only code that raises
WrongMode or ArityMismatch for a relation application, no plan keeps
relation indices of its own, and the algebras read a structure's order
pairs and batch width from it instead of computing them.  So is which
tuples end where: ``RelStructure._kernel_index`` is a relation's whole
convolution kernel, the only code that groups its tuples by the point
they end at for evaluation besides the subset algebra's own images and
``terms._free``'s unfolding into lattice polynomials, and an algebra
keeps nothing per relation but its code tables.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "convalg"


def _sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _function(text, name):
    node = next(node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return ast.get_source_segment(text, node)


def test_the_budget_default_is_read_in_one_function():
    sources = _sources()
    copies = [name for name, text in sources.items()
              for _ in range(text.count("DEFAULT_BUDGET if"))]
    assert copies == ["convolution.py"]
    assert "DEFAULT_BUDGET if" in _function(sources["convolution.py"], "resolve_budget")


def test_the_report_rule_is_written_once():
    sources = _sources()
    assert not [name for name, text in sources.items() if '"pass" if not failures' in text]
    copies = [name for name, text in sources.items()
              for _ in range(text.count("failures[0] if failures"))]
    assert copies == ["checks.py"]
    assert "failures[0] if failures" in _function(sources["checks.py"], "of")


def test_every_report_is_built_by_the_report_rule():
    sources = _sources()
    calls = [(name, node.lineno) for name, text in sources.items()
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Report"]
    assert not calls, f"a report is built by hand at {calls}; Report.of builds each one"
    writes = [(name, node.lineno) for name in ("checks.py", "suites.py")
              for node in ast.walk(ast.parse(sources[name]))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in ("status", "witness")]
    assert not writes, (
        f"a report's status or witness is overwritten at {writes}; a suite's own "
        "expectations are failures that _aggregate passes to Report.of")


def test_no_function_in_terms_calls_check_equation():
    tree = ast.parse(_sources()["terms.py"])
    callers = [(outer.name, node.lineno)
               for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
               for node in ast.walk(outer)
               if isinstance(node, ast.Call) and (
                   getattr(node.func, "id", None) == "check_equation"
                   or getattr(node.func, "attr", None) == "check_equation")]
    assert not callers, (
        f"check_equation is called from {callers}: each public call is one verdict to "
        "perfbench's verdict probe and tracer, which wrap that name, so a nested call "
        "counts a second verdict and its assignments twice")


def test_terms_builds_an_algebra_only_for_a_bare_lattice():
    tree = ast.parse(_sources()["terms.py"])
    allowed = {id(node) for outer in ast.walk(tree)
               if isinstance(outer, ast.FunctionDef) and outer.name == "_batch_algebra"
               for node in ast.walk(outer)}
    builds = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and id(node) not in allowed
              and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
              in ("ConvAlgebra", "SubsetAlgebra")]
    assert not builds, (
        f"terms.py builds an algebra on lines {builds}: a check searches tables of "
        "the given algebra's own rows, so a per-check algebra costs a build per call")



def test_the_path_of_a_verdict_is_chosen_in_check_equation():
    trees = {name: ast.parse(text) for name, text in _sources().items()}
    functions = {outer.name: outer for outer in ast.walk(trees["terms.py"])
                 if isinstance(outer, ast.FunctionDef)}

    def within(*names):
        return {id(node) for name in names for node in ast.walk(functions[name])}

    def called(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None))

    builder, chooser, scan = within("check_equation"), within("_route"), within("_bounded_below")
    builds = [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
              if id(node) not in builder and called(node) == "Verdict"]
    assert not builds, f"a verdict is built at {builds}; check_equation builds each one"
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
             if id(node) not in chooser]
    # a path's name may be compared with, or looked up, anywhere else
    reads = {id(sub) for _, node in nodes if isinstance(node, (ast.Compare, ast.Subscript))
             for sub in ast.walk(node if isinstance(node, ast.Compare) else node.slice)}
    named = [(name, node.lineno) for name, node in nodes if isinstance(node, ast.Constant)
             and node.value in ("codes", "one-point", "generators", "free")
             and id(node) not in reads]
    assert not named, f"a path is named at {named}; _route chooses the path"
    inferred = [(name, node.lineno) for name, node in nodes if isinstance(node, ast.Compare)
                and getattr(node.left, "attr", None) in ("samples", "generators")
                and any(isinstance(op, ast.IsNot) for op in node.ops)]
    assert not inferred, (
        f"a path is inferred from a verdict's fields at {inferred}; read Verdict.path")
    # a second chooser of grid, one point, codes, 2^X, generators or the
    # free lattice calls these
    choosers = [(name, called(node), node.lineno) for name, node in nodes
                if called(node) in ("_one_point_rows", "_tabled", "_two_valued", "_domains",
                                    "_free")
                and not (called(node) == "_domains" and id(node) in scan)]
    assert not choosers, f"{choosers} choose a path outside _route"
    searches = [called(node) for node in ast.walk(functions["check_equation"])]
    assert searches.count("_first_failure") == 1 and "_route" in searches
    assert not {node.value for node in ast.walk(functions["check_equation"])
                if isinstance(node, ast.Constant)} & {"grid", "codes", "one-point",
                                                      "generators", "two-valued",
                                                      "free"}
    assert not {"_assignments", "_grid", "_domains"} & {
        called(node) for node in ast.walk(functions["_two_valued"])}


def test_which_variables_range_over_generators_is_decided_in_terms():
    # terms._Plan.occurrences classifies how a variable occurs in each
    # step of a plan, and _families (equations) and _bounded_below (the
    # De Morgan scans) state their rules over it; the yes/no _linear and
    # the recursive _occurrence it replaced are gone, and no other module
    # classifies terms or builds generator domains (nor names _generators,
    # the 2^X search's own chooser, which _route replaced).
    sources = _sources()
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = {name: {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
               for name, tree in trees.items()}
    assert not [name for name, names in defined.items() if names & {"_linear", "_occurrence"}]
    assert ({"occurrences", "_families", "_domains", "_bounded_below"}
            <= defined["terms.py"])
    used = {name: {getattr(node, "id", None) or getattr(node, "attr", None)
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
            for name, tree in trees.items() if name != "terms.py"}
    assert not [name for name, names in used.items()
                if names & {"occurrences", "_families", "_domains", "_disjoint",
                            "_generators"}]
    # the relation-algebra checker names no generator, linearity or mode
    # of its own: its scans take their domains from terms
    checker = ast.parse(_function(sources["checks.py"], "check_relation_algebra"))
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(checker) if isinstance(node, (ast.Name, ast.Attribute))}
    assert "_bounded_below" in names
    assert not names & {"_generator_rows", "irreducibles", "JOIN", "MEET", "mode", "ordered"}


def test_the_generator_rule_reads_distributivity_in_two_places():
    # _families reduces over any finite lattice: whether it is distributive
    # is passed to occurrences (arguments free of a variable, or ground) and
    # gates case (b), and no other part of the rule reads it, so no return
    # of None rests on it alone
    sources = _sources()
    families = ast.parse(_function(sources["terms.py"], "_families"))
    places = {}
    for node in ast.walk(families):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "occurrences":
            places.update({id(sub): "occurrences" for arg in node.args for sub in ast.walk(arg)})
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                              for t in node.targets] == ["disjoint"]:
            places.update({id(sub): "case (b)" for sub in ast.walk(node.value)})
    reads = [places.get(id(node), node.lineno) for node in ast.walk(families)
             if isinstance(node, ast.Attribute) and node.attr == "is_distributive"]
    assert sorted(reads, key=str) == ["case (b)", "occurrences"], (
        f"_families reads is_distributive at {reads}")
    for module, name in (("terms.py", "occurrences"), ("terms.py", "_domains"),
                         ("convolution.py", "_generator_rows")):
        assert "is_distributive" not in _function(sources[module], name)


def test_terms_has_one_term_evaluator():
    sources = _sources()
    tree = ast.parse(sources["terms.py"])
    batched = {"_meet", "_join", "_neg", "_imp", "_eval"}
    callers = {outer.name for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
               for node in ast.walk(outer) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) in batched}
    assert callers == {"run"}, (
        f"{sorted(callers)} apply batched operations; terms are evaluated by _Plan.run")
    defined = {node.name for text in sources.values() for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.FunctionDef)}
    assert "_value" not in defined
    # the De Morgan scans run their bounds through a _Plan, compiled once
    # with the checker's laws
    laws = ast.parse(_function(sources["checks.py"], "_relation_algebra_laws"))
    assert "_Plan" in {getattr(node, "id", None) for node in ast.walk(laws)}


def test_structural_claims_are_decided_by_one_rule():
    text = _sources()["checks.py"]
    named = {}
    for name in ("check_subset_isomorphism", "check_structural_isos", "_decided",
                 "_fixed_witnesses", "_fixed_claims", "_lattice_claims", "_split_claims",
                 "_lift_claims", "_pullback_claims"):
        tree = ast.parse(_function(text, name))
        named[name] = {getattr(node, "id", None) or getattr(node, "attr", None)
                       for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named[name] & {"bincount", "_homomorphism_witness"}, (
            f"{name} decides a map itself; _claim_witness decides each claim row")
        # no comparison of sets, such as set(images) != set(subsets.elements())
        compared = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                    and any(getattr(call.func, "id", None) in ("set", "frozenset")
                            for operand in [node.left, *node.comparators]
                            for call in ast.walk(operand) if isinstance(call, ast.Call))]
        assert not compared, f"{name} compares sets of images: {compared}"
    # subset-iso's one claim row and each structural-isos row, those cached
    # per process included, go through _claim_witness
    assert {name for name, names in named.items() if "_claim_witness" in names} == {
        "check_subset_isomorphism", "_decided"}
    assert {name for name, names in named.items() if "_decided" in names} == {
        "check_structural_isos", "_fixed_witnesses"}
    cached = next(node for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.FunctionDef) and node.name == "_fixed_witnesses")
    assert [ast.unparse(d) for d in cached.decorator_list] == ["cache"]


def test_unchecked_lattices_are_built_in_four_places():
    allowed = {"catalog.py": ("chain", "boolean", "m3", "n5"),
               "lattice.py": ("_dual", "product")}
    outside, inside = [], []
    for name, text in _sources().items():
        tree = ast.parse(text)
        within = {id(node): outer.name for outer in ast.walk(tree)
                  if isinstance(outer, ast.FunctionDef) and outer.name in allowed.get(name, ())
                  for node in ast.walk(outer)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_derived" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                if id(node) in within:
                    inside.append((name, within[id(node)]))
                else:
                    outside.append((name, node.lineno))
    assert not outside, (
        f"FiniteLattice._derived is called at {outside}: it checks only the labels, "
        "so a lattice given by an order is searched through FiniteLattice(labels, leq)")
    assert sorted(inside) == [("catalog.py", "boolean"), ("catalog.py", "chain"),
                              ("catalog.py", "m3"), ("catalog.py", "n5"),
                              ("lattice.py", "_dual"), ("lattice.py", "product")]


def test_a_relation_application_is_resolved_on_the_structure():
    raised = []
    for name, text in _sources().items():
        def visit(node, within):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.append((node.exc.func.id, name, within))
            for child in ast.iter_child_nodes(node):
                visit(child, child.name if isinstance(child, ast.FunctionDef) else within)
        visit(ast.parse(text), None)
    # the others declare a relation (its spec, its tuples), parse a term
    # against a signature, or pair two component functions
    assert sorted(r for r in raised if r[0] in ("ArityMismatch", "WrongMode")) == [
        ("ArityMismatch", "convolution.py", "product_iso_inv"),
        ("ArityMismatch", "structures.py", "__init__"),
        ("ArityMismatch", "structures.py", "__post_init__"),
        ("ArityMismatch", "structures.py", "spec"),
        ("ArityMismatch", "terms.py", "_build"),
        ("WrongMode", "structures.py", "__post_init__"),
        ("WrongMode", "structures.py", "spec")]
    plan = next(node for node in ast.walk(ast.parse(_sources()["terms.py"]))
                if isinstance(node, ast.ClassDef) and node.name == "_Plan")
    assert not {"_sig", "_index"} & {getattr(node, "attr", None) or getattr(node, "value", None)
                                     for node in ast.walk(plan)}
    # an algebra may keep the structure's width, but computes neither fact
    for cls in ("ConvAlgebra", "SubsetAlgebra"):
        init = next(node for node in ast.walk(ast.parse(_sources()["convolution.py"]))
                    if isinstance(node, ast.ClassDef) and node.name == cls).body
        init = next(node for node in init if getattr(node, "name", None) == "__init__")
        stores = [(node.targets[0].attr, ast.unparse(node.value)) for node in ast.walk(init)
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "attr", None)
                  in ("_width", "_order_pairs")]
        assert stores in ([], [("_width", "structure._width")]), f"{cls}.__init__: {stores}"
    # the functions that read a relation's tuples at their last point: the
    # kernel, the subset images, the free unfolding, and the structure's
    # own validation, batch width and predecessor queries
    grouping = []
    for name, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(n, "attr", None) == "relations" for n in ast.walk(node)) and any(
                    isinstance(n, ast.Subscript) and "-1" in ast.unparse(n.slice)
                    for n in ast.walk(node)):
                grouping.append((name, node.name))
    assert sorted(grouping) == [
        ("convolution.py", "_image"), ("structures.py", "__init__"),
        ("structures.py", "_check_order_closure"), ("structures.py", "_kernel_index"),
        ("structures.py", "is_p_morphism"), ("structures.py", "predecessors"),
        ("terms.py", "_free")]
    # an algebra builds no kernel of its own, and its only dict is its code tables
    conv = next(node for node in ast.walk(ast.parse(_sources()["convolution.py"]))
                if isinstance(node, ast.ClassDef) and node.name == "ConvAlgebra")
    assert not {"_kernel", "_kernels"} & {getattr(node, "name", None) or getattr(
        node, "attr", None) for node in ast.walk(conv)}
    init = next(node for node in conv.body if getattr(node, "name", None) == "__init__")
    assert [ast.unparse(node.target if isinstance(node, ast.AnnAssign) else node.targets[0])
            for node in ast.walk(init) if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Dict)] == ["self._tables"]


def test_each_transfer_comparison_is_decided_by_one_rule():
    sources = _sources()
    suites = ast.parse(sources["suites.py"])
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(suites) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert not names & {"check_equation", "SubsetAlgebra"}, (
        "suites.py decides a verdict itself; the checkers in checks.py decide each one")
    private = [alias.name for node in ast.walk(suites)
               if isinstance(node, ast.ImportFrom) and node.module == "checks"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"suites.py imports {private}, private to checks.py"

    def within(found):
        # the innermost function around each node that ``found`` accepts
        out = {}
        for name, text in sources.items():
            for outer in ast.walk(ast.parse(text)):
                if isinstance(outer, ast.FunctionDef):
                    out |= {id(node): (name, outer.name) for node in ast.walk(outer) if found(node)}
        return set(out.values())

    def decided(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return getattr(node, "attr", None) == "decided"
    assert within(lambda node: isinstance(node, ast.keyword) and node.arg == "two_valued"
                  and getattr(node.value, "value", None) is False) == {
        ("checks.py", "_transfer"), ("checks.py", "check_z2_associativity")}
    assert within(lambda node: isinstance(node, ast.BoolOp)
                  and sum(map(decided, node.values)) >= 2) == {("checks.py", "_transfer")}
