"""Outside-in tracing of convalg's layers.

The tracer wraps convalg's public calls from the benchmark side and
changes nothing in the package.  Coarse calls (lattice, structure and
algebra construction, equation checks, checkers, suite members, the CLI)
open a frame on one stack and are kept as span records in memory until
the run writes them out.  A frame's self time is its duration minus the
time of the wrapped calls inside it.  Hot leaf calls (operation
applications, pointwise operations, carrier enumeration) happen millions
of times per run, so they push no frame: each adds its duration to its
layer's totals and to the enclosing frame's child time.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import defaultdict
from time import perf_counter

SPAN_SCHEMA = {
    "id": "int, unique within the run",
    "name": "str, layer call such as 'terms.check' or 'checks.operator'",
    "start": "float seconds since the run's time origin",
    "end": "float seconds since the run's time origin",
    "parent": "int id of the nearest enclosing span, or -1 at the top",
    "run": "str run id shared by every span of one run",
}

CHECKERS = ("operator", "finitely_supported", "closure_correspondence",
            "monadic_axioms", "nabla_equation", "z2_associativity",
            "relation_algebra", "residuation", "equation_transfer",
            "subset_isomorphism", "structural_isos")

_POINTWISE = ("meet", "join", "neg", "imp", "le")


class Patcher:
    """Replaces attributes of convalg's modules and classes, and puts them back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
            return
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_everywhere(self, original, value) -> None:
        """Rebind every module-level name in convalg that is bound to ``original``."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "convalg" or name.startswith("convalg.")):
                continue
            for attr, bound in list(vars(mod).items()):
                if bound is original:
                    self.set(mod, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


class Tracer(Patcher):
    """Span and counter recorder for one traced run."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.t0 = perf_counter()
        self.spans: list[tuple] = []
        # kind -> [inclusive seconds of outermost calls, calls, self seconds]
        self.totals = defaultdict(lambda: [0.0, 0, 0.0])
        self.assignments = 0
        self.sampled_checks = 0
        self.apply_keys: set[int] = set()
        self.apply_repeats = 0
        # frame: [kind, start, child seconds, span id]; the root never closes
        self._stack: list[list] = [["root", self.t0, 0.0, -1]]
        self._ids = itertools.count()
        self._serials = itertools.count()

    # -- wrappers --------------------------------------------------------------

    def span(self, kind: str, fn, on_result=None):
        """Wrap ``fn`` so that each call is a stored span of ``kind``."""
        stack, spans, ids, t0, run = (self._stack, self.spans, self._ids,
                                      self.t0, self.run_id)
        acc = self.totals[kind]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [kind, perf_counter(), 0.0, next(ids)]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                acc[2] += dur - frame[2]
                parent[2] += dur
                if parent[0] != kind:
                    acc[0] += dur
                    acc[1] += 1
                spans.append((frame[3], kind, frame[1] - t0, end - t0,
                              parent[3], run))
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def leaf(self, kind: str, fn, seen=None):
        """Wrap a call that makes no wrapped calls itself."""
        stack, acc = self._stack, self.totals[kind]

        @functools.wraps(fn)
        def wrapper(*args):
            if seen is not None:
                seen(args)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - start
                acc[0] += dur
                acc[1] += 1
                stack[-1][2] += dur
        return wrapper

    def nested_leaf(self, kind: str, fn, generator: bool = False):
        """Like ``leaf`` for calls that re-enter their own layer (enumeration):
        only the outermost call is timed."""
        stack, acc = self._stack, self.totals[kind]
        busy = [False]

        def timed_step(step):
            if busy[0]:
                return step()
            busy[0] = True
            start = perf_counter()
            try:
                return step()
            finally:
                busy[0] = False
                dur = perf_counter() - start
                acc[0] += dur
                acc[1] += 1
                stack[-1][2] += dur

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not generator:
                return timed_step(lambda: fn(*args, **kwargs))
            inner = fn(*args, **kwargs)

            def stepped():
                done = object()
                while True:
                    item = timed_step(lambda: next(inner, done))
                    if item is done:
                        return
                    yield item
            return stepped()
        return wrapper

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public calls of every layer of the imported convalg."""
        from convalg import (checks, cli, convolution, lattice, structures,
                             suites, terms)
        conv_cls, subset_cls = convolution.ConvAlgebra, convolution.SubsetAlgebra

        self.set(lattice.FiniteLattice, "__init__",
                 self.span("lattice.build", lattice.FiniteLattice.__init__))
        self.set_everywhere(lattice.build_lattice,
                            self.span("lattice.build", lattice.build_lattice))
        self.set(structures.RelStructure, "__init__",
                 self.span("structures.build", structures.RelStructure.__init__))
        for fname in ("build_structure", "from_group", "full_structure"):
            orig = getattr(structures, fname)
            self.set_everywhere(orig, self.span("structures.build", orig))

        serials, init = self._serials, conv_cls.__init__

        @functools.wraps(init)
        def conv_init(algebra, *args, **kwargs):
            init(algebra, *args, **kwargs)
            algebra._perfbench_serial = next(serials)
        self.set(conv_cls, "__init__", self.span("convolution.init", conv_init))

        for name in ("op", "conv", "dual_conv"):
            self.set(conv_cls, name, self.leaf("convolution.apply",
                                               getattr(conv_cls, name),
                                               seen=self._seen_call))
        self.set(conv_cls, "op_resolver",
                 self._resolver(conv_cls.op_resolver, "convolution.apply", True))
        for name in _POINTWISE:
            self.set(conv_cls, name,
                     self.leaf("convolution.pointwise", getattr(conv_cls, name)))
        for cls in (conv_cls, subset_cls):
            self.set(cls, "elements",
                     self.nested_leaf("convolution.enum", cls.elements, True))
            for name in ("carrier_list", "random_element"):
                self.set(cls, name,
                         self.nested_leaf("convolution.enum", getattr(cls, name)))
        self.set(subset_cls, "op", self.leaf("subset.apply", subset_cls.op))
        self.set(subset_cls, "op_resolver",
                 self._resolver(subset_cls.op_resolver, "subset.apply", False))

        self.set_everywhere(terms.check_equation,
                            self.span("terms.check", terms.check_equation,
                                      on_result=self._verdict))
        for short in CHECKERS:
            orig = getattr(checks, "check_" + short)
            self.set_everywhere(orig, self.span("checks." + short, orig))

        spec = suites.SUITES["paper-core"]
        members = tuple((name, self.span("suites." + name, func))
                        for name, func in spec.members)
        self.set(suites.SUITES, "paper-core",
                 type(spec)(spec.name, spec.description, members))
        self.set(cli, "main", self.span("cli.main", cli.main))

    # -- counters ----------------------------------------------------------------

    def _verdict(self, verdict) -> None:
        self.assignments += verdict.tried
        if verdict.status == "valid_sampled":
            self.sampled_checks += 1

    def _seen(self, key: int) -> None:
        if key in self.apply_keys:
            self.apply_repeats += 1
        else:
            self.apply_keys.add(key)

    def _seen_call(self, call_args) -> None:
        algebra, rel, args = call_args
        self._seen(hash((algebra._perfbench_serial,
                         algebra.structure.relation(rel), tuple(args))))

    def _resolver(self, method, kind: str, track: bool):
        """Wrap ``op_resolver`` so that the callables it returns are leaves."""
        leaf, seen = self.leaf, self._seen

        @functools.wraps(method)
        def wrapper(algebra, name):
            call = leaf(kind, method(algebra, name))
            if not track:
                return call
            tag = (algebra._perfbench_serial, algebra.structure.relation(name))

            def tracked(args):
                seen(hash((tag, args)))
                return call(args)
            return tracked
        return wrapper

    # -- results -------------------------------------------------------------------

    def metrics(self, members=()) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        t = self.totals
        applies = t["convolution.apply"][1]
        check_s = t["terms.check"][0]
        out = {
            "lattice.build_calls": (t["lattice.build"][1], "count"),
            "lattice.build_s": (t["lattice.build"][0], "s"),
            "structures.build_calls": (t["structures.build"][1], "count"),
            "structures.build_s": (t["structures.build"][0], "s"),
            "convolution.init_calls": (t["convolution.init"][1], "count"),
            "convolution.init_s": (t["convolution.init"][0], "s"),
            "convolution.apply_calls": (applies, "count"),
            "convolution.apply_s": (t["convolution.apply"][0], "s"),
            "convolution.pointwise_calls": (t["convolution.pointwise"][1], "count"),
            "convolution.pointwise_s": (t["convolution.pointwise"][0], "s"),
            "convolution.enum_s": (t["convolution.enum"][0], "s"),
            "convolution.repeat_frac": (
                self.apply_repeats / applies if applies else 0.0, "ratio"),
            "subset.apply_calls": (t["subset.apply"][1], "count"),
            "subset.apply_s": (t["subset.apply"][0], "s"),
            "terms.check_calls": (t["terms.check"][1], "count"),
            "terms.check_s": (check_s, "s"),
            "terms.self_s": (t["terms.check"][2], "s"),
            "terms.assignments": (self.assignments, "count"),
            "terms.assign_per_s": (
                self.assignments / check_s if check_s else 0.0, "1/s"),
            "terms.sampled_calls": (self.sampled_checks, "count"),
        }
        for short in CHECKERS:
            out[f"checks.{short}_calls"] = (t["checks." + short][1], "count")
            out[f"checks.{short}_s"] = (t["checks." + short][2], "s")
        for member in members:
            out[f"suites.{member}_s"] = (t["suites." + member][0], "s")
        return out

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "run")
        return [dict(zip(keys, span)) for span in self.spans]
