"""convalg benchmark: time to verdict, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-core --seed 0 --seconds 10 --trace 0

Workloads:
  paper-core   the full 12-member battery through the CLI entry point
               (``suite run paper-core --seed N``) at the default budget;
  eq-grid      a seeded batch of standalone ``check_equation`` calls;
  build-churn  fresh (lattice, structure) pairs, each used for a few
               operation calls and one small 1-variable verdict.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it also runs the workload once with every layer's public
calls wrapped (see tracing.py) and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A fuller record (provenance,
every metric, spans) is written to perfbench/results/.

Times are reported at a reference machine speed (see speed.py): each
measured interval is scaled by how fast a fixed snippet, sampled every
10 ms during the run, ran around it.  The raw times are printed as ``#``
lines and kept in the results file.

Everything runs in this one single-threaded process; convalg is imported
from ./src and sees only the generated lattices, structures and equations.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checking  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracing import SPAN_SCHEMA, Patcher, Tracer  # noqa: E402

WORKLOADS = ("paper-core", "eq-grid", "build-churn")
MEMBERS = ("subset-iso", "operator-laws", "finite-support", "equation-transfer",
           "z2-associativity", "nabla-equation", "closure-correspondence",
           "monadic", "relation-algebra", "residuation", "structural-isos", "type2")
SETUP_REPS = 11
MIN_BATCHES = 4
RESULTS = HERE / "results"


class VerdictProbe(Patcher):
    """Untraced-run timing at the verdict boundary only: each equation
    check's interval is kept and its way of deciding counted; nothing
    below it is wrapped."""

    def __init__(self):
        super().__init__()
        self.intervals: list[tuple[float, float]] = []
        self.exhaustive = 0

    def install(self) -> None:
        from convalg import terms
        check_equation = terms.check_equation

        def timed(*args, **kwargs):
            start = perf_counter()
            verdict = check_equation(*args, **kwargs)
            self.intervals.append((start, perf_counter()))
            self.exhaustive += verdict.samples is None
            return verdict
        self.set_everywhere(check_equation, timed)


# -- set-up ---------------------------------------------------------------------


def fresh_import():
    """Import convalg from ./src, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "convalg" or m.startswith("convalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("convalg.cli")
    return sys.modules["convalg"]


def generate(cv, workload: str, seed: int):
    if workload == "paper-core":
        return ["suite", "run", "paper-core", "--seed", str(seed)]
    if workload == "eq-grid":
        return workloads.eq_grid(cv, seed)
    return workloads.build_churn(seed)


def set_up(workload: str, seed: int):
    """Import convalg and generate the inputs SETUP_REPS times; the last
    import and inputs are the ones used."""
    intervals = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        cv = fresh_import()
        inputs = generate(cv, workload, seed)
        intervals.append((start, perf_counter()))
    return cv, inputs, intervals


# -- workloads ---------------------------------------------------------------------


def run_paper_core(cv, argv, probe: bool):
    """One battery through the CLI entry point; a battery outlasts --seconds."""
    verdicts = VerdictProbe() if probe else None
    if verdicts:
        verdicts.install()
    stream = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stream):
            code = cv.cli.main(argv)
    finally:
        wall = (start, perf_counter())
        if verdicts:
            verdicts.uninstall()
    return {"wall": [wall], "code": code, "text": stream.getvalue(),
            "probe": verdicts}


def eq_case(cv, lattices, case):
    lat = lattices.get(case.lattice)
    if case.kind == "conv":
        algebra = cv.ConvAlgebra(lat, case.structure)
    elif case.kind == "ordered":
        algebra = cv.ConvAlgebra(lat, case.structure, ordered=True)
    elif case.kind == "subset":
        algebra = cv.SubsetAlgebra(case.structure)
    else:
        algebra = lat
    return cv.check_equation(case.equation, algebra, mode=case.mode,
                             budget=case.budget, seed=case.seed)


def churn_pair(cv, pair):
    lat = workloads.make_lattice(pair.lattice)
    structure = cv.build_structure(pair.carrier, cv.signature(*pair.specs),
                                   pair.relations)
    algebra = cv.ConvAlgebra(lat, structure)
    outputs = [algebra.op(name, [algebra.function(v) for v in args])
               for name, args in pair.calls]
    eq = cv.parse_equation({"lhs": workloads.CHURN_LAW[0],
                            "rhs": workloads.CHURN_LAW[1]}, structure.signature)
    verdict = cv.check_equation(eq, algebra, budget=workloads.CHURN_BUDGET,
                                seed=pair.seed)
    return lat, structure, outputs, verdict


def run_batch(step, items):
    """Outputs, each item's (start, end) and the batch's (start, end)."""
    results, intervals = [], []
    start = perf_counter()
    for item in items:
        t = perf_counter()
        try:
            results.append(step(item))
        except Exception as exc:  # a raised error is a failed operation
            results.append(exc)
        intervals.append((t, perf_counter()))
    return results, intervals, (start, perf_counter())


def run_batches(step, items, seconds: float, timed_batches: int | None,
                reference=None):
    """A reference batch, then timed batches until ``seconds`` have passed,
    at least MIN_BATCHES of them.

    The untimed reference batch warms the process up and its outputs are
    the ones the oracle judges; every timed batch must repeat them, and the
    indices where one does not are kept.  Steps return outputs without
    their algebra, so a batch's caches are freed before the next batch
    starts, and a collection before each batch starts it from a similar
    heap.  A traced run passes the untraced run's ``reference`` and a fixed
    count of ``timed_batches``."""
    first = reference
    if first is None:
        gc.collect()
        first, _, _ = run_batch(step, items)
    walls, intervals, mismatches = [], [], []
    begin = perf_counter()
    while (len(walls) < MIN_BATCHES or perf_counter() - begin < seconds
           if timed_batches is None else len(walls) < timed_batches):
        gc.collect()
        results, items_timed, wall = run_batch(step, items)
        walls.append(wall)
        intervals.append(items_timed)
        mismatches.append([i for i, (a, b) in enumerate(zip(first, results))
                           if not checking.same(a, b)])
    return {"wall": walls, "intervals": intervals, "first": first,
            "mismatches": mismatches}


def run_workload(cv, workload: str, inputs, seconds: float, untraced=None):
    """The untraced measurement, or, given its result ``untraced``, one
    battery or batch for the traced run."""
    if workload == "paper-core":
        return run_paper_core(cv, inputs, probe=untraced is None)
    if workload == "eq-grid":
        lattices, items = inputs
        step = lambda case: eq_case(cv, lattices, case)  # noqa: E731
    else:
        items = inputs
        step = lambda pair: churn_pair(cv, pair)  # noqa: E731
    if untraced is None:
        return run_batches(step, items, seconds, None)
    return run_batches(step, items, 0.0, 1, untraced["first"])


# -- results ------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def source_sha256() -> str:
    """A digest of the convalg sources under test."""
    digest = hashlib.sha256()
    for path in sorted(Path("src/convalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, workload: str, source: str) -> dict:
    import numpy
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        git_sha = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unavailable"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha,
            "source_sha256": source, "seed": seed,
            "workload": workload, "budget": workloads.DEFAULT_BUDGET,
            "platform": platform.platform(), "span_schema": SPAN_SCHEMA}


def timings(workload: str, run: dict, setup, duration) -> dict:
    """The timing metrics, with ``duration`` turning an interval into seconds."""
    if workload == "paper-core":
        latencies = [duration(*iv) for iv in run["probe"].intervals]
    else:
        # each case's or pair's median over the timed batches
        latencies = [statistics.median(duration(*iv) for iv in case)
                     for case in zip(*run["intervals"])]
    return {
        "setup_s": (statistics.median(duration(*iv) for iv in setup), "s"),
        "wall_s": (statistics.median(duration(*iv) for iv in run["wall"]), "s"),
        "verdict_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "verdict_p90_ms": (1000 * quantile(latencies, 0.90), "ms"),
    }


def end_to_end(workload: str, run: dict, setup, summary: dict, clock) -> dict:
    if workload == "paper-core":
        samples = len(run["probe"].intervals)
        exhaustive = run["probe"].exhaustive / samples
    else:
        samples = len(run["intervals"][0])
        exhaustive = summary["exhaustive_frac"]
    return {
        **timings(workload, run, setup, clock.scaled),
        "exhaustive_frac": (exhaustive, "ratio"),
        "ops_ok_frac": (1 - summary["failed"] / summary["attempted"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/convalg/__init__.py").is_file():
        print("perfbench: run from the root of a convalg checkout "
              "(src/convalg not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import numpy  # noqa: F401  third-party import, kept out of setup_s

    with SpeedClock() as clock:
        cv, inputs, setup = set_up(args.workload, args.seed)
        if not Path(cv.__file__).resolve().is_relative_to(Path("src").resolve()):
            print(f"perfbench: convalg imported from {cv.__file__}, not ./src",
                  file=sys.stderr)
            return 2
        run = run_workload(cv, args.workload, inputs, args.seconds)
        if args.trace:
            tracer, traced = run_traced(cv, args, inputs, run)

    source = source_sha256()
    summary = checking.check(cv, args.workload, inputs, run,
                             f"{source}:{args.seed}", RESULTS)
    metrics, samples = end_to_end(args.workload, run, setup, summary, clock)
    raw = timings(args.workload, run, setup, lambda t0, t1: t1 - t0)

    record = {"provenance": provenance(args.seed, args.workload, source),
              "seconds": args.seconds, "trace": args.trace,
              "raw_timings": {k: v for k, (v, _) in raw.items()},
              "batches": len(run["wall"]), "verdict_samples": samples,
              "speed_samples": len(clock.durations), "checks": summary}
    if args.trace:
        checking.check_traced(args.workload, run, traced, summary)
        overhead = clock.scaled(*traced["wall"][0]) / metrics["wall_s"][0] - 1
        metrics = tracer.metrics(MEMBERS)
        metrics["trace_overhead_frac"] = (overhead, "ratio")
        record["spans"] = tracer.span_records()
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    prov = record["provenance"]
    print(f"# workload={args.workload} seed={args.seed} python={prov['python']} "
          f"numpy={prov['numpy']} nproc={prov['nproc']} git={prov['git_sha']} "
          f"budget={prov['budget']} batches={len(run['wall'])} "
          f"verdict_samples={samples}")
    for line in summary["notes"]:
        print("# " + line)
    print(f"# ops_failed_frac {summary['failed'] / summary['attempted']:.6f} "
          f"({summary['failed']}/{summary['attempted']})")
    for name, (value, unit) in raw.items():
        print(f"# raw {name} {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": record["metrics"]}))
    return 0


def run_traced(cv, args, inputs, untraced: dict):
    """Run the workload once more with every layer wrapped."""
    tracer = Tracer(f"{args.workload}-{args.seed}-{random.getrandbits(32):08x}")
    tracer.install()
    try:
        traced = run_workload(cv, args.workload, inputs, 0.0, untraced)
    finally:
        tracer.uninstall()
    return tracer, traced


if __name__ == "__main__":
    sys.exit(main())
