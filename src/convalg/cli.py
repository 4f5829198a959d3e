"""Command-line interface.

Subcommands: ``lattice check FILE``, ``structure check FILE``, ``eval``,
``eq check``, ``suite run NAME``, ``catalog list``.  Anywhere a FILE is
expected a catalog name works too (optionally prefixed ``catalog:``).
Reports are JSON lines with sorted keys, so identical invocations produce
byte-identical output; exit status is 0 for pass/valid, 1 for a check
failure or counterexample (witness printed), 2 for usage errors and
invalid input elsewhere.  ``lattice check`` and ``structure check`` report
an invalid document as a result, ``{"status": "invalid", ...}``, and exit
with 1.  The environment variable CONVALG_BUDGET overrides the default
evaluation budget of 10^6.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .convolution import DEFAULT_BUDGET, ConvAlgebra, lfunction_from_labels
from .errors import (ConvalgError, NotALattice, NotAPoset, UnknownName)
from .lattice import FiniteLattice, lattice_from_json, lattice_to_json
from .structures import RelStructure, structure_from_json, structure_to_json
from .suites import SUITES, run_suite
from .terms import check_equation, eval_term, parse_equation, parse_term


def _emit(doc: dict):
    print(json.dumps(doc, sort_keys=True))


def _load_doc(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_lattice(spec: str) -> FiniteLattice:
    if spec.startswith("catalog:"):
        return catalog.get_lattice(spec[len("catalog:"):])
    if os.path.exists(spec):
        return lattice_from_json(_load_doc(spec))
    return catalog.get_lattice(spec)


def _resolve_structure(spec: str) -> RelStructure:
    if spec.startswith("catalog:"):
        return catalog.get_structure(spec[len("catalog:"):])
    if os.path.exists(spec):
        return structure_from_json(_load_doc(spec))
    return catalog.get_structure(spec)


def _cmd_lattice_check(args) -> int:
    try:
        lat = _resolve_lattice(args.file)
    except (NotAPoset, NotALattice) as exc:
        _emit({"status": "invalid", "error": type(exc).__name__, "detail": str(exc)})
        return 1
    _emit({"status": "valid", "lattice": lattice_to_json(lat),
           "flags": {"is_distributive": lat.is_distributive,
                     "is_boolean": lat.is_boolean},
           "size": lat.size})
    return 0


def _cmd_structure_check(args) -> int:
    try:
        s = _resolve_structure(args.file)
    except ConvalgError as exc:
        if isinstance(exc, UnknownName):
            raise
        _emit({"status": "invalid", "error": type(exc).__name__, "detail": str(exc)})
        return 1
    _emit({"status": "valid", "structure": structure_to_json(s)})
    return 0


def _cmd_eval(args) -> int:
    lat = _resolve_lattice(args.lattice)
    structure = _resolve_structure(args.structure)
    algebra = ConvAlgebra(lat, structure)
    term = parse_term(args.term, structure.signature)
    raw = json.loads(args.assign)
    env = {name: algebra.function(lfunction_from_labels(vals, lat).values)
           for name, vals in raw.items()}
    result = eval_term(term, algebra, env)
    _emit({"result": result.labels(), "term": args.term})
    return 0


def _cmd_eq_check(args) -> int:
    lat = _resolve_lattice(args.lattice)
    structure = _resolve_structure(args.structure)
    algebra = ConvAlgebra(lat, structure)
    eq = parse_equation(_load_doc(args.eq), structure.signature)
    verdict = check_equation(eq, algebra, mode=args.mode, samples=args.samples,
                             seed=args.seed, budget=args.budget)
    doc = verdict.to_json()
    doc["equation"] = str(eq)
    _emit(doc)
    return 0 if verdict.is_valid else 1


def _cmd_suite_run(args) -> int:
    ok = True
    for report in run_suite(args.name, budget=args.budget, seed=args.seed):
        _emit(report.to_dict())
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_catalog_list(args) -> int:
    for entry in catalog.catalog_entries():
        _emit(entry.to_dict())
    for name in sorted(SUITES):
        _emit({"name": name, "kind": "suite",
               "parameters": SUITES[name].description})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convalg",
        description="finite-model workbench for convolution algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="lattice documents")
    lat_sub = lat.add_subparsers(dest="action", required=True)
    lat_check = lat_sub.add_parser("check", help="validate and canonicalize")
    lat_check.add_argument("file")
    lat_check.set_defaults(func=_cmd_lattice_check)

    st = sub.add_parser("structure", help="structure documents")
    st_sub = st.add_subparsers(dest="action", required=True)
    st_check = st_sub.add_parser("check", help="validate a structure")
    st_check.add_argument("file")
    st_check.set_defaults(func=_cmd_structure_check)

    ev = sub.add_parser("eval", help="evaluate a term over L^X")
    ev.add_argument("--lattice", required=True)
    ev.add_argument("--structure", required=True)
    ev.add_argument("--term", required=True)
    ev.add_argument("--assign", required=True,
                    help='JSON object mapping variables to label arrays')
    ev.set_defaults(func=_cmd_eval)

    eq = sub.add_parser("eq", help="equation checking")
    eq_sub = eq.add_subparsers(dest="action", required=True)
    eq_check = eq_sub.add_parser("check", help="decide an equation over L^X")
    eq_check.add_argument("--lattice", required=True)
    eq_check.add_argument("--structure", required=True)
    eq_check.add_argument("--eq", required=True, help="equation JSON file")
    eq_check.add_argument("--mode", default="auto",
                          choices=["auto", "exhaustive", "sample"])
    eq_check.add_argument("--seed", type=int, default=0)
    eq_check.add_argument("--budget", type=int, default=None)
    eq_check.add_argument("--samples", type=int, default=None)
    eq_check.set_defaults(func=_cmd_eq_check)

    su = sub.add_parser("suite", help="named verification suites")
    su_sub = su.add_subparsers(dest="action", required=True)
    su_run = su_sub.add_parser("run", help="run a suite")
    su_run.add_argument("name")
    su_run.add_argument("--seed", type=int, default=0)
    su_run.add_argument("--budget", type=int, default=None)
    su_run.set_defaults(func=_cmd_suite_run)

    cat = sub.add_parser("catalog", help="named artifacts")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_list = cat_sub.add_parser("list", help="list catalog entries")
    cat_list.set_defaults(func=_cmd_catalog_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "budget") and args.budget is None:
            env = os.environ.get("CONVALG_BUDGET")
            args.budget = DEFAULT_BUDGET if env is None else int(env)
        return args.func(args)
    except ConvalgError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
