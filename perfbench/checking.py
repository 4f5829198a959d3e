"""Correctness checks on a finished run, made outside the timed region.

Counts attempted and failed operations.  A failure is a raised error, a
verdict the oracle contradicts, a batch whose outputs differ from the
first batch's on the same inputs, a paper-core member that does not
report pass, or a paper-core report stream whose digest differs from an
earlier run of the same sources with the same seed.
"""

from __future__ import annotations

import hashlib
import json
import random

import workloads
from oracle import Lattice, Oracle, parse

SPOT_CHECKS = 6      # seeded assignments per valid verdict
_TWO = Lattice([[True, True], [False, True]])


def check(cv, workload: str, inputs, run: dict, digest_key: str, results_dir) -> dict:
    """``digest_key`` names the sources and seed a paper-core digest belongs to."""
    summary = {"attempted": 0, "failed": 0, "known_failures": 0,
               "notes": [], "exhaustive_frac": 0.0}
    if workload == "paper-core":
        _check_paper_core(run, digest_key, results_dir, summary)
    elif workload == "eq-grid":
        _check_batches(run, inputs[1], _EqGridJudge(cv, inputs[0]), summary)
    else:
        _check_batches(run, inputs, _ChurnJudge(), summary)
    summary["correct"] = summary["failed"] == summary["known_failures"]
    return summary


def check_traced(workload: str, untraced: dict, traced: dict, summary: dict) -> None:
    """Tracing must not change any output."""
    if workload == "paper-core":
        same_outputs = traced["text"] == untraced["text"]
    else:
        same_outputs = not traced["mismatches"][0]
    summary["attempted"] += 1
    if not same_outputs:
        summary["failed"] += 1
        summary["correct"] = False
        summary["notes"].append("traced run's outputs differ from the untraced run's")


# -- paper-core ----------------------------------------------------------------------


def _check_paper_core(run: dict, key: str, results_dir, summary: dict) -> None:
    lines = run["text"].splitlines()
    reports = [json.loads(line) for line in lines]
    summary["attempted"] += 12
    passed = sum(r.get("status") == "pass" for r in reports)
    summary["failed"] += 12 - min(passed, 12)
    if run["code"] != 0 or len(reports) != 12:
        summary["notes"].append(f"exit code {run['code']}, {len(reports)} reports")
    digest = hashlib.sha256(run["text"].encode()).hexdigest()
    summary["digest"] = digest
    summary["notes"].append(f"paper-core report sha256 {digest} ({passed}/12 pass)")
    results_dir.mkdir(exist_ok=True)
    store = results_dir / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = digest
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    else:
        summary["attempted"] += 1
        if earlier != digest:
            summary["failed"] += 1
            summary["notes"].append(f"digest differs from earlier run: {earlier}")


# -- batches -----------------------------------------------------------------------


def same(a, b) -> bool:
    """Same outputs: equal verdicts (and operation results), or the same error."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _check_batches(run: dict, items, judge, summary: dict) -> None:
    """The oracle judges the reference batch; each timed batch must repeat it."""
    problems = []
    for item, result in zip(items, run["first"]):
        problem = judge.problem(item, result)
        problems.append(problem)
        if problem is not None and len(summary["notes"]) < 20:
            summary["notes"].append(f"{judge.label(item)}: {problem}")
    for differing in run["mismatches"]:
        differing = set(differing)
        for i, problem in enumerate(problems):
            summary["attempted"] += 1
            if problem is None and i in differing:
                problem = "differs from the reference batch"
                summary["notes"].append(f"{judge.label(items[i])}: {problem}")
            if problem is not None:
                summary["failed"] += 1
                summary["known_failures"] += problem == judge.KNOWN
    # share of all cases, so that a case that stops raising and samples
    # does not lower it
    exhaustive = sum(judge.verdict(r).samples is None for r in run["first"]
                     if not isinstance(r, Exception))
    summary["exhaustive_frac"] = exhaustive / len(items)


def _spot_envs(rng, names, carrier: int, n: int, order=None):
    """Seeded assignments of carrier functions, monotone when ``order`` is set."""
    for _ in range(SPOT_CHECKS):
        env = {}
        for name in names:
            for _ in range(200):
                f = tuple(rng.randrange(n) for _ in range(carrier))
                if order is None or all(_le_at(f, a, b, order) for a in range(carrier)
                                        for b in range(carrier)):
                    break
            else:
                f = (0,) * carrier       # all-equal functions are monotone
            env[name] = f
        yield env


def _le_at(f, a, b, order) -> bool:
    leq = order[1]
    return not order[0][a][b] or leq[f[a]][f[b]]


def _agrees(oracle: Oracle, lhs, rhs, verdict, to_tuple, envs) -> str | None:
    if verdict.status == "counterexample":
        env = {k: to_tuple(v) for k, v in verdict.assignment.items()}
        if oracle.value(lhs, env) == oracle.value(rhs, env):
            return "counterexample witness has equal sides under the oracle"
        return None
    for env in envs:
        if oracle.value(lhs, env) != oracle.value(rhs, env):
            return f"{verdict.status} but the oracle finds a counterexample {env}"
    return None


def _relations(structure) -> dict:
    return {spec.name: (spec.mode, sorted(rel))
            for spec, rel in zip(structure.signature.rel_specs, structure.relations)}


class _EqGridJudge:
    KNOWN = "BudgetExceeded on an ordered algebra over budget (known defect)"

    def __init__(self, cv, lattices):
        self.cv = cv
        self.tables = {name: Lattice(lat.leq.tolist()) for name, lat in lattices.items()}

    def label(self, case) -> str:
        return case.label

    def verdict(self, result):
        return result

    def problem(self, case, result) -> str | None:
        if isinstance(result, Exception):
            if case.expect_error and isinstance(result, self.cv.errors.BudgetExceeded):
                return self.KNOWN
            return f"raised {type(result).__name__}: {result}"
        verdict = result
        names = case.equation.variables()
        rng = random.Random(case.seed)
        if case.kind == "subset":
            n = case.structure.carrier_size
            oracle = Oracle(_TWO, n, _relations(case.structure))

            def to_tuple(s):
                return tuple(int(x in s) for x in range(n))
            envs = _spot_envs(rng, names, n, 2)
        elif case.kind == "lattice":
            oracle = Oracle(self.tables[case.lattice], 1, {})

            def to_tuple(v):
                return (v,)
            envs = _spot_envs(rng, names, 1, oracle.lat.n)
        else:
            lat = self.tables[case.lattice]
            n = case.structure.carrier_size
            oracle = Oracle(lat, n, _relations(case.structure))

            def to_tuple(f):
                return f.values
            order = None
            if case.kind == "ordered":
                order = (case.structure.order.tolist(), lat.leq)
                if verdict.assignment and not all(
                        _le_at(to_tuple(f), a, b, order)
                        for f in verdict.assignment.values()
                        for a in range(n) for b in range(n)):
                    return "witness is not order-preserving"
            envs = _spot_envs(rng, names, n, lat.n, order)
        return _agrees(oracle, parse(case.lhs), parse(case.rhs), verdict, to_tuple, envs)


class _ChurnJudge:
    KNOWN = None
    LAW = (parse(workloads.CHURN_LAW[0]), parse(workloads.CHURN_LAW[1]))

    def __init__(self):
        self.tables = {}

    def label(self, pair) -> str:
        return f"{pair.lattice}/n{pair.carrier}"

    def verdict(self, result):
        return result[3]

    def problem(self, pair, result) -> str | None:
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        lattice, structure, outputs, verdict = result
        key = lattice.leq.tobytes()
        if key not in self.tables:
            self.tables[key] = Lattice(lattice.leq.tolist())
        lat = self.tables[key]
        oracle = Oracle(lat, pair.carrier, _relations(structure))
        for (name, args), out in zip(pair.calls, outputs):
            env = {f"a{k}": tuple(v) for k, v in enumerate(args)}
            node = ["op", name] + [f"a{k}" for k in range(len(args))]
            if oracle.value(node, env) != out.values:
                return f"op {name} disagrees with the oracle"
        if not verdict.is_valid:
            return f"valid law reported {verdict.status}"
        envs = _spot_envs(random.Random(pair.seed), ["x"], pair.carrier, lat.n)
        return _agrees(oracle, *self.LAW, verdict, lambda f: f.values, envs)
