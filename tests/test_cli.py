"""Command-line interface: exit codes, determinism, file handling."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from convalg import checks, suites, terms
from convalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


@pytest.fixture
def assoc_eq(tmp_path):
    path = tmp_path / "assoc.json"
    path.write_text(json.dumps({"lhs": "(op * (op * x y) z)",
                                "rhs": "(op * x (op * y z))"}))
    return str(path)


def test_eq_check_valid_exits_zero(capsys, assoc_eq):
    code, out = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "Z2", "--eq", assoc_eq,
                    "--mode", "exhaustive")
    assert code == 0
    doc = lines(out)[0]
    assert doc["status"] == "valid_exhaustive"


def test_eq_check_counterexample_exits_one(capsys, assoc_eq):
    code, out = run(capsys, "eq", "check", "--lattice", "N5",
                    "--structure", "Z2", "--eq", assoc_eq,
                    "--mode", "exhaustive")
    assert code == 1
    doc = lines(out)[0]
    assert doc["status"] == "counterexample"
    assert set(doc["assignment"]) == {"x", "y", "z"}


def test_eq_check_sample_mode_seeded(capsys, assoc_eq):
    code, out = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "Z2", "--eq", assoc_eq,
                    "--mode", "sample", "--samples", "50", "--seed", "3")
    assert code == 0
    doc = lines(out)[0]
    assert doc["status"] == "valid_sampled" and doc["seed"] == 3


def test_eq_check_sampled_counterexample_names_its_draws(capsys, tmp_path):
    path = tmp_path / "comm.json"
    path.write_text(json.dumps({"lhs": "(op * x y)", "rhs": "(op * y x)"}))
    code, out = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "S3", "--eq", str(path),
                    "--mode", "sample", "--samples", "50", "--seed", "3")
    assert code == 1
    doc = lines(out)[0]
    assert doc["status"] == "counterexample"
    assert (doc["samples"], doc["seed"]) == (50, 3)
    assert "path" not in doc["stats"]


def test_identical_invocations_are_byte_identical(capsys, assoc_eq):
    _, first = run(capsys, "eq", "check", "--lattice", "chain3",
                   "--structure", "Z2", "--eq", assoc_eq, "--mode", "exhaustive")
    _, second = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "Z2", "--eq", assoc_eq, "--mode", "exhaustive")
    assert first == second


def test_env_budget_downgrades_to_sampling(capsys, assoc_eq, monkeypatch):
    # 4**3 triples of 2^X and 3**3 of its generators exceed the budget
    monkeypatch.setenv("CONVALG_BUDGET", "20")
    code, out = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "Z2", "--eq", assoc_eq, "--mode", "auto")
    assert code == 0
    doc = lines(out)[0]
    assert doc["status"] == "valid_sampled"
    assert doc["stats"]["budget"] == 20


def test_an_over_budget_law_is_decided_on_two_values(capsys, assoc_eq):
    # 729**3 triples over chain3/S3 and 13**3 of its generators exceed the
    # budget; 2^X's 7**3 generator triples fit it
    code, out = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "S3", "--eq", assoc_eq, "--budget", "500")
    assert code == 0
    assert lines(out) == [{"status": "valid_exhaustive",
                           "equation": "(op * (op * x y) z) = (op * x (op * y z))",
                           "stats": {"assignments": 343, "budget": 500,
                                     "path": "two-valued"}}]


def test_a_partial_reduction_names_its_variables(capsys, tmp_path):
    # relation-algebra law 7 over chain3/S3: b over its 13 generators, a
    # over the 729 elements of the carrier
    path = tmp_path / "law7.json"
    path.write_text(json.dumps({"lhs": "(join (op * (op conv a) (neg (op * a b))) (neg b))",
                                "rhs": "(neg b)"}))
    code, out = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "S3", "--eq", str(path), "--budget", "10000")
    assert code == 0
    assert lines(out)[0]["stats"] == {"assignments": 9477, "budget": 10000,
                                      "path": "irreducibles", "generators": 13,
                                      "reduced": ["b"]}


def test_invalid_env_budget_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CONVALG_BUDGET", "abc")
    code, out = run(capsys, "suite", "run", "quick")
    assert code == 2
    assert lines(out) == [{"error": "ValueError",
                           "detail": "invalid literal for int() with base 10: 'abc'"}]


def test_budget_below_one_is_usage_error(capsys, assoc_eq):
    code, out = run(capsys, "eq", "check", "--lattice", "chain3",
                    "--structure", "Z2", "--eq", assoc_eq, "--budget", "0")
    assert code == 2
    assert lines(out)[0]["error"] == "ValueError"


def test_eval_subcommand(capsys):
    code, out = run(capsys, "eval", "--lattice", "chain3", "--structure", "Z2",
                    "--term", "(op * x y)",
                    "--assign", '{"x": ["1", "2"], "y": ["2", "1"]}')
    assert code == 0
    assert lines(out)[0]["result"] == ["1", "2"]


def test_eval_rejects_literal_of_wrong_length(capsys):
    code, out = run(capsys, "eval", "--lattice", "chain3", "--structure", "Z2",
                    "--term", "(meet x y)",
                    "--assign", '{"x": ["2"], "y": ["1", "2"]}')
    assert code == 2
    assert lines(out)[0]["error"] == "UnknownElement"


def test_lattice_check_file_and_catalog(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"labels": ["1", "m", "0"],
                                "leq": [["0", "m"], ["m", "1"]]}))
    code, out = run(capsys, "lattice", "check", str(path))
    assert code == 0
    doc = lines(out)[0]
    assert doc["status"] == "valid"
    assert doc["flags"]["is_distributive"] is True
    code, out = run(capsys, "lattice", "check", "catalog:boolean2")
    assert code == 0
    assert lines(out)[0]["flags"]["is_boolean"] is True


def test_lattice_check_invalid_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": ["a", "b"],
                                "leq": [["a", "b"], ["b", "a"]]}))
    code, out = run(capsys, "lattice", "check", str(path))
    assert code == 1
    assert lines(out)[0]["error"] == "NotAPoset"


LATTICE_CHECK_PINS = [
    "chain1", "chain2", "chain3", "chain4", "chain5", "chain16", "chain70",
    "boolean0", "boolean1", "boolean2", "boolean3", "boolean4", "boolean5",
    "boolean6", "M3", "N5", "chain2*chain3", "chain3*chain3", "chain8*chain8",
    "M3*N5", "chain2*boolean3", "chain2*chain2*chain2", "catalog:N5*M3",
    "boolean7", "pentagon"]


def test_lattice_check_output_is_pinned(capsys):
    # One line per name, recorded while every lattice, products included,
    # was built by searching its order; the last two names are unknown.
    codes, out = [], ""
    for name in LATTICE_CHECK_PINS:
        code, printed = run(capsys, "lattice", "check", name)
        codes.append(code)
        out += printed
    assert codes == [0] * 23 + [2, 2]
    pinned = (Path(__file__).parent / "data" / "lattice-check.jsonl").read_bytes()
    assert out.encode() == pinned


def test_unknown_name_is_usage_error(capsys):
    code, out = run(capsys, "lattice", "check", "no-such-lattice")
    assert code == 2


def test_structure_check(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "carrier": 2,
        "relations": [{"name": "r", "arity": 1, "mode": "join",
                       "tuples": [[0, 1], [1, 1]]}]}))
    code, out = run(capsys, "structure", "check", str(path))
    assert code == 0
    code, out = run(capsys, "structure", "check", "Z3")
    assert code == 0
    path.write_text(json.dumps({
        "carrier": 2,
        "relations": [{"name": "r", "arity": 1, "mode": "join",
                       "tuples": [[0, 5]]}]}))
    code, out = run(capsys, "structure", "check", str(path))
    assert code == 1


def test_a_relation_mode_that_is_neither_join_nor_meet_is_a_wrong_mode(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "carrier": 2,
        "relations": [{"name": "r", "arity": 1, "mode": "sideways", "tuples": [[0, 1]]}]}))
    code, out = run(capsys, "structure", "check", str(path))
    assert (code, lines(out)[0]["error"]) == (1, "WrongMode")
    assert lines(out)[0]["detail"] == "relation 'r': mode must be join or meet"


def test_eq_check_over_the_budget_says_how_many_evaluations_it_needs(capsys, assoc_eq):
    code, out = run(capsys, "eq", "check", "--lattice", "chain3", "--structure", "Z2",
                    "--eq", assoc_eq, "--mode", "exhaustive", "--budget", "700")
    assert (code, lines(out)) == (2, [{"error": "BudgetExceeded", "detail":
                                       "exhaustive check needs 729 evaluations, budget is 700"}])


def test_catalog_list(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == 0
    docs = lines(out)
    names = {d["name"] for d in docs}
    assert {"chainN", "booleanK", "M3", "N5", "ZN", "S3"} <= names
    assert any(d["kind"] == "suite" and d["name"] == "paper-core" for d in docs)


def test_suite_run_quick(capsys):
    code, out = run(capsys, "suite", "run", "quick")
    assert code == 0
    docs = lines(out)
    assert len(docs) == 3
    assert all(d["status"] == "pass" for d in docs)


def test_suite_unknown_name(capsys):
    code, out = run(capsys, "suite", "run", "nope")
    assert code == 2


def test_bad_usage_exits_two(capsys):
    assert main(["eq", "check", "--lattice", "chain3"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("assign", ['[1,2]', '{"x": 5}', '{"x": "12"}', '{"x": [1, 2]}'])
def test_eval_rejects_an_assignment_of_the_wrong_shape(capsys, assign):
    # a string would otherwise be read as the labels of its characters, and
    # integers as the labels they spell
    code, out = run(capsys, "eval", "--lattice", "chain3", "--structure", "Z2",
                    "--term", "x", "--assign", assign)
    assert (code, lines(out)[0]["error"]) == (2, "ValueError")


@pytest.mark.parametrize("doc", [["x"], {"lhs": 3, "rhs": "x"}])
def test_eq_check_rejects_an_equation_of_the_wrong_shape(capsys, tmp_path, doc):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "eq", "check", "--lattice", "chain3", "--structure", "Z2",
                    "--eq", str(path))
    assert (code, lines(out)[0]["error"]) == (2, "ValueError")


@pytest.mark.parametrize("command", ["lattice", "structure"])
@pytest.mark.parametrize("doc", [[1], []])
def test_check_rejects_a_document_that_is_no_object(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, command, "check", str(path))
    assert (code, lines(out)[0]["error"]) == (2, "ValueError")


@pytest.mark.parametrize("command, doc", [
    ("lattice", {"labels": ["a"], "leq": [1]}),
    ("lattice", {"labels": "ab", "leq": []}),
    ("lattice", {"labels": ["a", "b"], "leq": ["ab"]}),
    ("structure", {"carrier": 2, "relations": 5}),
    ("structure", {"carrier": 2, "relations": [5]}),
    ("structure", {"carrier": 2, "relations": [{"name": "r", "arity": 1, "tuples": 3}]}),
    ("structure", {"carrier": 2, "relations": [], "order": 5}),
    ("structure", {"carrier": 2.7, "relations": []}),
    ("structure", {"carrier": True, "relations": []}),
    ("structure", {"carrier": 2, "relations": [{"name": "r", "arity": 1.9,
                                                "tuples": [[0, 1]]}]}),
    ("structure", {"carrier": 2, "relations": [{"name": "r", "arity": 1, "mode": 5,
                                                "tuples": [[0, 1]]}]}),
    ("structure", {"carrier": 2, "relations": [{"name": "r", "arity": 1, "mode": None,
                                                "tuples": [[0, 1]]}]}),
])
def test_check_rejects_a_field_of_the_wrong_shape(capsys, tmp_path, command, doc):
    # none is coerced: not "ab" into the labels a, b, nor 2.7 or true into a carrier
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, command, "check", str(path))
    assert (code, lines(out)[0]["error"]) == (2, "ValueError")


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, out = run(capsys, "lattice", "check", str(path))
    assert code == 2


@pytest.mark.parametrize("seed", [0, 1])
def test_paper_core_report_is_pinned(capsys, monkeypatch, seed):
    # The report stream recorded before the batched evaluation core landed,
    # and every inner checker report behind it (witnesses, assignment
    # counts, scan modes), recorded before the code tables landed; and the
    # number of the battery's verdicts that each path decided.
    monkeypatch.delenv("CONVALG_BUDGET", raising=False)
    inner, original = [], suites._aggregate
    paths = Counter()

    def aggregate(name, instance, reports, *args, **kwargs):
        inner.extend(r.to_json() + "\n" for r in reports)
        return original(name, instance, reports, *args, **kwargs)
    monkeypatch.setattr(suites, "_aggregate", aggregate)

    def counted(decide):
        def check_equation(*args, **kwargs):
            verdict = decide(*args, **kwargs)
            paths[verdict.path] += 1
            return verdict
        return check_equation
    monkeypatch.setattr(checks, "check_equation", counted(checks.check_equation))
    code, out = run(capsys, "suite", "run", "paper-core", "--seed", str(seed))
    assert code == 0
    data = Path(__file__).parent / "data"
    assert out.encode() == (data / f"paper-core-seed{seed}.txt").read_bytes()
    pinned = (data / f"paper-core-inner-seed{seed}.jsonl").read_text().splitlines(True)
    assert len(inner) == len(pinned) == 322
    for k, (got, want) in enumerate(zip(inner, pinned)):
        if got != want:
            report = json.loads(want)
            pytest.fail(f"inner report {k} ({report['checker']} {report['instance']}) "
                        f"differs from the pin:\n  got:    {got}  pinned: {want}")
    assert inner == pinned
    # a grid of at most terms._TABLE_MIN (256) assignments stays on value rows
    assert paths == {"grid": 966, "one-point": 392, "codes": 204, "generators": 8}
    assert "two-valued" not in paths  # the battery has no use for 2^X at this budget


def test_paper_core_depends_on_the_seed_only_through_its_drawn_relations(capsys, monkeypatch):
    # Every verdict of the battery is exhaustive, so its inner reports at
    # two seeds differ only in the 50 relations on 3 points that
    # closure-correspondence draws and in the seed they record.
    monkeypatch.delenv("CONVALG_BUDGET", raising=False)
    inner, original = [], suites._aggregate

    def aggregate(name, instance, reports, *args, **kwargs):
        inner.extend(r.to_dict() for r in reports)
        return original(name, instance, reports, *args, **kwargs)
    monkeypatch.setattr(suites, "_aggregate", aggregate)
    for seed in ("0", "1"):
        assert run(capsys, "suite", "run", "paper-core", "--seed", seed)[0] == 0
    first, second = inner[:len(inner) // 2], inner[len(inner) // 2:]
    drawn = [(a, b) for a, b in zip(first, second) if a["checker"] == "closure-correspondence"
             and a["instance"].startswith("|X|=3,")]
    assert len(first) == len(second) and len(drawn) == 50
    for a, b in zip(first, second):
        if (a, b) not in drawn:
            for report in (a, b):
                report["stats"].pop("seed", None)
            assert a == b


# The checks that test the variety theorem, which a valid two-valued verdict
# rests on, or compare L^X with 2^X, which a refutation on 2^X is.
THEOREM_CHECKS = {"check_equation_transfer", "check_type2_transfer",
                  "check_z2_associativity"}


def _theorem_check(frame):
    """The theorem check that ``frame`` runs on behalf of, if any."""
    while frame is not None and frame.f_code.co_name not in THEOREM_CHECKS:
        frame = frame.f_back
    return frame and frame.f_code.co_name


@pytest.mark.parametrize("budget", ["1", "30"])
def test_no_two_valued_verdict_reaches_the_theorem_checks(capsys, monkeypatch, budget):
    # Every verdict that one of the theorem checks receives from
    # check_equation is on another path, and no route of 2^X is searched
    # on their behalf, where its verdict would be thrown away, though the
    # other members route laws through 2^X at both budgets.  At budget 30
    # the free lattice decides 162 of the theorem checks' laws.  A verdict
    # counts for the nearest theorem check on the stack, since they decide
    # through checks._transfer and its comprehension's own frame.
    monkeypatch.delenv("CONVALG_BUDGET", raising=False)
    received, searched = Counter(), Counter()

    def recorded(decide):
        def check_equation(*args, **kwargs):
            verdict = decide(*args, **kwargs)
            if _theorem_check(sys._getframe(1)):
                received[verdict.path] += 1
            return verdict
        return check_equation
    monkeypatch.setattr(checks, "check_equation", recorded(checks.check_equation))
    route = terms._route

    def routed(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_two_valued":
            searched[_theorem_check(sys._getframe(1))] += 1
        return route(*args, **kwargs)
    monkeypatch.setattr(terms, "_route", routed)
    run(capsys, "suite", "run", "paper-core", "--budget", budget)
    assert received and "two-valued" not in received
    assert list(searched) == [None]
    assert received["free"] == (162 if budget == "30" else 0)


def test_every_paper_core_member_reports_at_budget_one(capsys, monkeypatch):
    # Each member samples, reduces or reports "observed" where its grid
    # outgrows the budget, so none stops the battery, and the exit status
    # follows the reports.
    monkeypatch.delenv("CONVALG_BUDGET", raising=False)
    code, out = run(capsys, "suite", "run", "paper-core", "--budget", "1")
    docs = lines(out)
    members = [name for name, _ in suites.SUITES["paper-core"].members]
    assert [d["checker"] for d in docs] == [f"suite:{name}" for name in members]
    assert len(docs) == 12
    assert code == (1 if any(d["status"] == "fail" for d in docs) else 0)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("CONVALG_BUDGET", None)
    done = subprocess.run([sys.executable, "-m", "convalg", "suite", "run", "quick"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [d["checker"] for d in lines(done.stdout)][0] == "suite:subset-iso"


@pytest.mark.parametrize("argv,env", [
    (["suite", "run", "paper-core", "--budget", "0"], None),
    (["suite", "run", "quick"], "0"),
], ids=["flag", "environment"])
def test_a_budget_below_one_stops_before_any_report(capsys, monkeypatch, argv, env):
    monkeypatch.delenv("CONVALG_BUDGET", raising=False)
    if env is not None:
        monkeypatch.setenv("CONVALG_BUDGET", env)
    code, out = run(capsys, *argv)
    assert code == 2
    assert lines(out) == [{"error": "ValueError",
                           "detail": "budget must be at least 1, got 0"}]


def _unbuffered_env(**extra):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("CONVALG_BUDGET", None)
    return {**env, **extra}


def test_a_reader_that_leaves_early_ends_the_run_silently():
    # The reader closes the pipe after the first report; the later writes
    # fail with EPIPE, which ends the run with status 1 and no traceback.
    # paper-core runs long enough after its first report that the pipe is
    # closed before the next one is written.
    proc = subprocess.Popen([sys.executable, "-m", "convalg", "suite", "run", "paper-core"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_unbuffered_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.communicate(timeout=120)[1]
    assert (proc.returncode, stderr) == (1, b"")
    assert json.loads(first)["checker"] == "suite:subset-iso"


def test_an_error_line_without_a_reader_ends_the_run_silently():
    # The pipe has no reader from the start, so the error line itself
    # fails with EPIPE.
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "convalg", "suite", "run", "quick"],
                              stdout=write, stderr=subprocess.PIPE, timeout=120,
                              env=_unbuffered_env(CONVALG_BUDGET="0"))
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


_COUNT_BUILDS = """
import contextlib, io, sys
from convalg import cli, convolution, terms
plans, tabulated = [0], []
compile_plan, tabulate = terms._Plan.__init__, convolution.ConvAlgebra._tabulate
def counted(self, *terms_):
    plans[0] += 1
    compile_plan(self, *terms_)
def logged(self, key):
    tabulated.append(key)
    return tabulate(self, key)
terms._Plan.__init__, convolution.ConvAlgebra._tabulate = counted, logged
for battery in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["suite", "run", "paper-core"])
    print(plans[0], sorted({type(key).__name__ for key in tabulated}))
    plans[0] = 0
"""


def test_a_battery_compiles_each_law_once_and_tabulates_only_relations():
    # Every checker builds its laws once per process, so a fresh process
    # compiles 121 plans for one paper-core battery (1,094 when each call
    # built its own), and a second battery compiles none.  The lattice
    # operations' code tables are the lattice's: _tabulate builds only
    # relation tables, keyed by their index.
    done = subprocess.run([sys.executable, "-c", _COUNT_BUILDS], capture_output=True,
                          text=True, env=_unbuffered_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    first, second = (line.split(" ", 1) for line in done.stdout.splitlines())
    assert int(first[0]) <= 121 and int(second[0]) == 0
    assert first[1] == second[1] == "['int']"
