"""Mutation checks kept with the repository.

Each row of MUTANTS is one deliberate fault: the file it goes into, the
exact text it replaces, which occurs there once, the text put in its
place, the tests of which at least one must fail with it, and the rule
it breaks.  Run

    python tools/mutants.py [ID ...]

to apply each row (or the rows named) to a fresh copy of the repository
in a temporary directory, run only its tests there, with hypothesis
derandomized as in tier-1, and print whether the mutant was killed (a
named test failed) or survived, with the time taken.  The exit status is
1 when a mutant survives.  Tier-1 runs none of them; it checks only that
each row's old text still occurs exactly once (tests/test_mutants.py), so
a change to the code updates the table instead of orphaning a row.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TERMS = "src/convalg/terms.py"
CONVOLUTION = "src/convalg/convolution.py"


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    origin: str


_FREE = "tests/test_terms.py::test_free_verdict_matches_the_grid"
# the derandomized draws alone, with no fixed example
_DRAWN_OVER_M3 = ("tests/test_terms.py::"
                  "test_reduced_verdict_over_a_non_distributive_lattice_matches_the_grid")
_ORDERED = "tests/test_terms.py::test_ordered_reduced_verdict_matches_the_grid"
_REDUCED = "tests/test_terms.py::test_reduced_verdict_matches_the_grid"
_LOOKUPS = "tests/test_convolution.py::test_code_table_lookups_match_value_rows"
_AXES = "tests/test_terms.py::test_axis_grid_matches_a_flat_search"
_KERNEL = "tests/test_convolution.py::test_kernel_matches_the_oracle"
_CLAIMS = "src/convalg/checks.py"
# the table fold and the byte fold of ConvAlgebra._eval
_TABLE_FOLD = '''            for j in range(n, vals.shape[-1], n):
                out = outer[out, vals[..., j:j + n]]'''
_BYTE_FOLD = '''            for j in range(n, vals.shape[-1], n):
                out |= vals[..., j:j + n]'''
# the derandomized draws alone, with no fixed example
_CERTIFICATE = "tests/test_checks.py::test_certificate_matches_the_binary_and_empty_laws"
# structural-isos's own maps: the lifts [0, 2] into chain3 (one-one, not
# onto) and [0, 0, 1] out of it (onto, not one-one)
_STRUCTURAL = "tests/test_checks.py::test_structural_isos_pass"
_GROUND = '''h == ["linear"] and alone and (
                        op == times or op == "op" and modes.get(name) == mode))'''

MUTANTS = (
    Mutant("whitman-meet-join-and", TERMS,
           '''                          or qk == "join" and any(leq(p, b) for b in qs))''',
           '''                          and qk == "join" and any(leq(p, b) for b in qs))''',
           ("tests/test_terms.py::test_laws_of_every_lattice_hold_in_the_free_lattice",
            "tests/test_terms.py::test_an_over_budget_lattice_law_is_decided_in_the_free_lattice"),
           "free lattice: Whitman's meet <= join case"),
    Mutant("meet-top-absorbs", TERMS,
           '''            if p is zero:
                return zero''',
           '''            if p in (zero, top):
                return p''',
           (_FREE,), "free lattice: x /\\ top is x"),
    Mutant("meet-mode-as-join", TERMS,
           '''("join", "meet") if spec.mode == JOIN else ("meet", "join")''',
           '''("join", "meet")''',
           (_FREE,), "free lattice: a meet-mode relation is a meet of joins"),
    Mutant("bare-point-top", TERMS,
           '''            row = [fold(plus, parts) for parts in ending]''',
           '''            row = [fold(plus, parts) if parts else top for parts in ending]''',
           (_FREE,), "free lattice: an empty join is bottom"),
    Mutant("two-valued-valid-over-m3", TERMS,
           "    if position is None and not lat.is_distributive:",
           "    if False:",
           (_FREE, "tests/test_terms.py::"
            "test_modularity_is_given_up_and_distributivity_not_refuted_on_two"),
           "2^X: validity only over a distributive L"),
    Mutant("two-valued-refutation-unmapped", TERMS,
           "return at, [np.where(row == two.lattice.top, lat.top, lat.bottom) for row in rows]",
           "return at, rows",
           ("tests/test_terms.py::test_a_two_valued_counterexample_is_bottom_and_top",
            "tests/test_terms.py::test_two_valued_verdict_matches_the_grid"),
           "2^X: a refutation is sent to L^X by 0 -> bottom, 1 -> top"),
    Mutant("two-valued-into-equation-transfer", "src/convalg/checks.py",
           "seed=seed, two_valued=False)",
           'seed=seed, two_valued=not getattr(algebra, "lattice", _TWO).is_distributive)',
           ("tests/test_cli.py::test_no_two_valued_verdict_reaches_the_theorem_checks",),
           "2^X: no refutation in a check that compares L^X with 2^X"),
    Mutant("transfer-either-decided", "src/convalg/checks.py",
           "if v.decided and r.decided and", "if (v.decided or r.decided) and",
           ("tests/test_checks.py::test_a_sampled_validity_never_fails_a_checker",),
           "transfer: a disagreement counts only between two decided verdicts"),
    Mutant("ground-dropped-for-meets", TERMS, _GROUND,
           _GROUND.replace("and alone and (", "and (").replace(
               'op == "op" and', 'alone and op == "op" and'),
           (_DRAWN_OVER_M3,), "generators: a meet's other arguments are ground over M3"),
    Mutant("ground-dropped-for-relations", TERMS, _GROUND,
           _GROUND.replace("and alone and (", "and (").replace(
               "op == times", "alone and op == times"),
           (_DRAWN_OVER_M3,), "generators: a relation's other arguments are ground over M3"),
    Mutant("ground-dropped-for-meets-ordered", TERMS, _GROUND,
           _GROUND.replace("and alone and (", "and (").replace(
               'op == "op" and', 'alone and op == "op" and'),
           (_ORDERED,), "generators: the same, over monotone maps"),
    Mutant("ground-dropped-for-relations-ordered", TERMS, _GROUND,
           _GROUND.replace("and alone and (", "and (").replace(
               "op == times", "alone and op == times"),
           (_ORDERED,), "generators: the same, over monotone maps"),
    Mutant("case-b-lets-mixed-s-through", TERMS,
           '''and occurs[False][disjoint[1]].get(v) in (None, "linear")}''',
           '''and occurs[False][disjoint[1]].get(v) in (None, "linear", "mixed")}''',
           (_REDUCED,), "generators: case (b) needs s linear in the variable or free of it"),
    Mutant("neg-does-not-flip", TERMS,
           "held.setdefault(v, []).append(_FLIP[c] if flip and k == 0 else c)",
           "held.setdefault(v, []).append(c)",
           # nothing is then antitone, so it only loses case (b)'s
           # reductions: every verdict stays sound, and only the
           # classifier's and the paths' own tests see it
           ("tests/test_terms.py::test_occurrence_classifies_how_a_variable_occurs",
            "tests/test_terms.py::test_law_7_reduces_one_variable_by_its_disjoint_form"),
           "generators: neg turns monotone into antitone"),
    Mutant("power-table-points-reversed", "src/convalg/lattice.py",
           "table = ((table * k)[codes] + op[digit])",
           "table = ((table * k)[digit] + op[codes])",
           ("tests/test_convolution.py::"
            "test_closed_form_lattice_tables_match_the_divmod_construction",),
           "code tables: a new point is the least significant digit of argument and result"),
    Mutant("certificate-first-argument-only", "src/convalg/checks.py",
           "    for k in range(spec.arity):",
           "    for k in range(1):",
           (_CERTIFICATE,), "operator: the complete law is decided at every argument"),
    Mutant("certificate-below-reversed", "src/convalg/checks.py",
           "pairs = (gens[:, None], rows) if join else (rows, gens[:, None])",
           "pairs = (rows, gens[:, None]) if join else (gens[:, None], rows)",
           (_CERTIFICATE,), "operator: a join relation folds the generators below each argument"),
    Mutant("finite-support-fold-side-swapped", "src/convalg/checks.py",
           "fold, side = (target._join, target._meet) if joinish else (target._meet, target._join)",
           "fold, side = (target._meet, target._join) if joinish else (target._join, target._meet)",
           ("tests/test_checks.py::test_finite_support_pass_and_dual_form",
            "tests/test_checks.py::test_finite_support_witness_matches_the_loop_reference"),
           "finite support: deltas are meets, folded by joins, for join relations"),
    Mutant("code-lookup-operands-swapped", CONVOLUTION,
           "            index = index * q + a",
           "            index = a * q + index",
           (_LOOKUPS, _AXES),
           "codes: a tuple's first code is the most significant digit of its table index"),
    Mutant("code-lookup-intp-cast-dropped", CONVOLUTION,
           "index, q = args[0].astype(np.intp), self.algebra.space_size()",
           "index, q = args[0], self.algebra.space_size()",
           (_LOOKUPS, _AXES),
           "codes: a table index is formed in intp, as uint8 or uint16 codes wrap"),
    Mutant("kernel-fold-skips-last-slot", CONVOLUTION, _TABLE_FOLD,
           _TABLE_FOLD.replace("vals.shape[-1], n)", "vals.shape[-1] - n, n)"),
           (_KERNEL,), "kernel: the fold runs over every tuple ending at a point"),
    Mutant("kernel-byte-fold-skips-last-slot", CONVOLUTION, _BYTE_FOLD,
           _BYTE_FOLD.replace("vals.shape[-1], n)", "vals.shape[-1] - n, n)"),
           (_KERNEL,), "kernel: the byte fold runs over every tuple ending at a point"),
    Mutant("kernel-byte-tuple-meet-as-or", CONVOLUTION,
           "vals = vals & bits[a][..., c]", "vals = vals | bits[a][..., c]",
           (_KERNEL,), "kernel: a tuple's masks meet by AND, the mask of their meet"),
    Mutant("kernel-byte-fold-as-and", CONVOLUTION,
           "out |= vals[..., j:j + n]", "out &= vals[..., j:j + n]",
           (_KERNEL,), "kernel: a point's masks fold by OR, decoded to their join"),
    Mutant("kernel-meet-mode-reads-j", CONVOLUTION,
           "lat.top, lat.bottom, True", "lat.top, lat.bottom, False",
           (_KERNEL,), "kernel: meet mode folds the masks of the meet-irreducibles above"),
    Mutant("byte-decode-distributive-everywhere", "src/convalg/lattice.py",
           "                if self.is_distributive:", "                if True:",
           (_KERNEL,), "byte masks: only over a distributive L is an OR of masks an element's"),
    Mutant("kernel-pads-with-tuple-0", "src/convalg/structures.py",
           "p + p[:1] * (width - len(p))", "p + [rel[0][:-1]] * (width - len(p))",
           (_KERNEL,), "kernel: a point's tuples are padded with its own first tuple"),
    Mutant("kernel-bare-points-kept", CONVOLUTION,
           "        if bare.size:", "        if False:",
           (_KERNEL,), "kernel: a point no tuple ends at takes the unit, the empty fold"),
    Mutant("int64-guard-removed", CONVOLUTION,
           "if q > 1 << 63:  # else the largest code wraps", "if False:",
           ("tests/test_terms.py::test_wide_ordered_carriers_form_no_code_beyond_int64",),
           "codes: no carrier is enumerated by codes that wrap in an int64"),
    Mutant("ordered-build-ignores-points-below", CONVOLUTION,
           "least = lat.join_np[least, codes // radix[y] % lat.size]", "least = least",
           ("tests/test_convolution.py::test_ordered_carrier_matches_a_loop_filter",),
           "codes: a monotone map's value at a point is above its values below it"),
    Mutant("sampling-bound-removed", CONVOLUTION,
           "            if drawn > cap * (kept + 1):",
           "            if False:",
           ("tests/test_terms.py::test_sampling_a_sparse_ordered_carrier_keeps_to_the_budget",),
           "samples: the rows rejected are bounded by the budget"),
    Mutant("claim-onto-count-ignored", _CLAIMS,
           "found = bool(hits.max() <= 1), bool(hits.all())",
           "found = bool(hits.max() <= 1), True",
           (_STRUCTURAL,), "claims: a map is onto only when every code is hit"),
    Mutant("claim-one-one-count-ignored", _CLAIMS,
           "found = bool(hits.max() <= 1), bool(hits.all())",
           "found = True, bool(hits.all())",
           (_STRUCTURAL,), "claims: a map is one-one only when no code is hit twice"),
    Mutant("claim-laws-before-bijectivity", _CLAIMS,
           """    if any(c not in (None, f) for c, f in zip((one_one, onto), found)):
        return {"kind": "one-one/onto", "one_one": found[0], "onto": found[1]}, 0, None
    return _homomorphism_witness(dom, cod._decode(codes), cod)""",
           """    laws = _homomorphism_witness(dom, cod._decode(codes), cod)
    if laws[0] is None and any(c not in (None, f) for c, f in zip((one_one, onto), found)):
        return {"kind": "one-one/onto", "one_one": found[0], "onto": found[1]}, 0, None
    return laws""",
           # the reference's constant map is no bijection, and sends top to bottom
           ("tests/test_checks.py::test_subset_isomorphism_matches_the_loop_reference",),
           "claims: one-one and onto are decided before the laws, as subset-iso reports"),
    Mutant("conv-element-op-reads-raw-row", CONVOLUTION,
           "return self._element(self._meet(self._row(a), self._row(b)))",
           "return self._element(self._meet(a._np, b._np))",
           ("tests/test_convolution.py::"
            "test_conv_element_methods_refuse_a_function_of_another_algebra",),
           "elements: every argument of an element method goes through _row"),
    Mutant("subset-element-op-unchecked", CONVOLUTION,
           "return self._subset(a) & self._subset(b)", "return a & b",
           ("tests/test_convolution.py::test_subset_element_methods_refuse_a_set_off_the_carrier",),
           "elements: a subset's meet checks its arguments as _row does"),
    Mutant("arity-check-dropped", "src/convalg/structures.py",
           "        if args is not None and len(args) != spec.arity:",
           "        if False:",
           ("tests/test_terms.py::"
            "test_a_reused_plan_still_rejects_unknown_operations_and_wrong_arities",),
           "resolver: an application has as many arguments as its relation's arity"),
)


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) for ``mutant`` on a fresh copy of the repository."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"))
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.id}: the old text does not occur exactly once")
        target.write_text(text.replace(mutant.old, mutant.new))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: a test failed; else none ran to its end
        raise SystemExit(f"{mutant.id}: pytest stopped with status {done.returncode}\n"
                         f"{done.stdout[-2000:]}")
    return done.returncode == 1, time.perf_counter() - start


def main(ids: list[str]) -> int:
    rows = [m for m in MUTANTS if not ids or m.id in ids]
    unknown = set(ids) - {m.id for m in rows}
    if unknown:
        raise SystemExit(f"no mutant named {sorted(unknown)}")
    survived, total = 0, 0.0
    for mutant in rows:
        killed, seconds = run(mutant)
        survived += not killed
        total += seconds
        print(f"{mutant.id:36} {'killed' if killed else 'SURVIVED':8} {seconds:6.1f} s",
              flush=True)
    print(f"{len(rows) - survived} of {len(rows)} killed in {total:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
