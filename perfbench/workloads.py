"""Seeded inputs for the eq-grid and build-churn workloads.

Every input is derived from the workload seed with ``random.Random``; the
composition of a batch (how many cases of each kind, their lattice sizes,
carrier sizes, arities, modes, variable counts and budgets) is fixed, and
the seed only picks relation tuples, group relabellings, carrier orders,
argument values and sampling seeds.  That keeps the work per batch the
same from seed to seed while the concrete instances change.

Equations are kept as s-expression text, which convalg parses and the
oracle parses separately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations, product

SMALL_LATTICES = ("chain2", "chain3", "chain4", "boolean2", "M3", "N5",
                  "chain2*chain3", "boolean3")
NON_DISTRIBUTIVE = {"M3", "N5"}
FALLBACK_LATTICE = "chain70"          # above 62 elements: fallback fold

# Cases whose assignment space exceeds this run exhaustively only when they
# are one of the designed large cases; the rest get SAMPLE_BUDGET, so that
# check_equation's auto mode samples SAMPLE_BUDGET assignments.
EXHAUSTIVE_LIMIT = 2_000
SAMPLE_BUDGET = 500
DEFAULT_BUDGET = 1_000_000            # convalg's default evaluation budget

LAWS = {
    # name: (lhs, rhs); {f} unary join, {g} unary meet, {h} binary, {k} nullary
    "absorb1": ("(meet x (join x (op {f} x)))", "x"),
    "absorb1g": ("(join x (meet x (op {g} x)))", "x"),
    "refl1": ("(join x (op {f} x))", "(op {f} x)"),
    "add2": ("(op {f} (join x y))", "(join (op {f} x) (op {f} y))"),
    "mult2": ("(op {g} (meet x y))", "(meet (op {g} x) (op {g} y))"),
    "const2": ("(join x (op {k}))", "(join (op {k}) x)"),
    "comm2": ("(op {h} x y)", "(op {h} y x)"),
    "add3": ("(op {h} (join x y) z)", "(join (op {h} x z) (op {h} y z))"),
    "assoc3": ("(op {h} (op {h} x y) z)", "(op {h} x (op {h} y z))"),
    "absorb2": ("(meet x (join x y))", "x"),
    "jcomm2": ("(join x y)", "(join y x)"),
    "jidem1": ("(join x x)", "x"),
    "jassoc3": ("(join (join x y) z)", "(join x (join y z))"),
    "distr3": ("(meet x (join y z))", "(join (meet x y) (meet x z))"),
    "heyt1": ("(imp x x)", "top"),
    "dneg1": ("(neg (neg x))", "x"),
}
HEYTING = {"heyt1", "dneg1"}
# Laws whose validity over a random relation depends on the relation.  A
# sampled "valid" verdict on such a law may be a missed counterexample,
# which the oracle's spot check could then find in some seeds and not in
# others; these laws are therefore only used where they run exhaustively.
DEPENDS_ON_RELATION = {"refl1", "comm2", "add3", "assoc3"}

# Random structure shapes: carrier size and (name, arity, mode) relations.
SHAPES = (
    (1, (("f", 1, "join"), ("g", 1, "meet"), ("h", 2, "join"), ("k", 0, "join"))),
    (2, (("f", 1, "join"), ("g", 1, "meet"), ("h", 2, "meet"), ("k", 0, "meet"))),
    (3, (("f", 1, "join"), ("h", 2, "join"))),
    (4, (("g", 1, "meet"), ("f", 1, "join"))),
    (5, (("f", 1, "join"),)),
    (6, (("f", 1, "join"), ("g", 1, "meet"))),
)
# Laws tried on each random shape, in this order, limited per lattice.
SHAPE_LAWS = {
    1: ("absorb1", "add2", "add3", "const2", "mult2", "comm2"),
    2: ("refl1", "mult2", "const2", "comm2", "assoc3", "absorb1"),
    3: ("absorb1", "add2", "refl1", "comm2"),
    4: ("absorb1", "mult2"),
    5: ("refl1", "absorb1"),
    6: ("absorb1",),
}


@dataclass
class Case:
    """One standalone equation check, as a `convalg eq check` user issues it."""
    label: str
    kind: str                 # conv | ordered | subset | lattice
    lattice: str              # lattice name ("2" for subset algebras)
    structure: object         # RelStructure, or None for a bare lattice
    lhs: str
    rhs: str
    budget: int
    mode: str = "auto"
    seed: int = 0
    variables: int = 0
    expect_error: bool = False
    equation: object = field(default=None, repr=False)


def variables_of(text: str) -> set:
    atoms = text.replace("(", " ").replace(")", " ").split()
    words = {"meet", "join", "op", "neg", "imp", "bot", "top"}
    return {a for a in atoms if a not in words and a.isalpha() and len(a) == 1}


def _law(name: str, rels: dict) -> tuple[str, str]:
    lhs, rhs = LAWS[name]
    return lhs.format(**rels), rhs.format(**rels)


def _random_relation(rng, n: int, arity: int) -> set:
    space = list(product(range(n), repeat=arity + 1))
    return set(rng.sample(space, max(1, round(0.4 * len(space)))))


def random_structure(cv, rng, n: int, specs, order=None):
    """Random relations of fixed density; closed under ``order`` if given."""
    rels = []
    for _, arity, mode in specs:
        rel = _random_relation(rng, n, arity)
        if order is not None:
            rel = _close(rel, n, order, mode)
        rels.append(rel)
    pairs = None if order is None else [(a, b) for a in range(n) for b in range(n)
                                       if order[a][b]]
    return cv.build_structure(n, cv.signature(*specs), rels, pairs)


def _close(rel: set, n: int, order, mode: str) -> set:
    out = set(rel)
    for t in rel:
        for y in range(n):
            if (mode == "join" and order[t[-1]][y]) or (mode == "meet" and order[y][t[-1]]):
                out.add(t[:-1] + (y,))
    return out


def random_chain_order(rng, n: int):
    """A total order on 0..n-1 in a seeded sequence, as a boolean matrix."""
    seq = list(range(n))
    rng.shuffle(seq)
    rank = {x: i for i, x in enumerate(seq)}
    return [[rank[a] <= rank[b] for b in range(n)] for a in range(n)]


def group_table(name: str):
    if name == "S3":
        perms = sorted(permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    n = int(name[1:])
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def relabelled_group(cv, rng, name: str):
    table = group_table(name)
    n = len(table)
    p = list(range(n))
    rng.shuffle(p)
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[p[a]][p[b]] = p[table[a][b]]
    return cv.from_group(new)


def _space(lattices, case: Case) -> int:
    if case.kind == "lattice":
        q = lattices[case.lattice].size
    elif case.kind == "subset":
        q = 2 ** case.structure.carrier_size
    else:
        q = lattices[case.lattice].size ** case.structure.carrier_size
    return q ** case.variables


def _add(cases, lattices, rng, label, kind, lat, structure, lhs, rhs,
         budget=None, mode="auto", expect_error=False, settled=True):
    """Append a case; ``settled`` is False for laws whose validity is not
    known from theory, which are dropped when they would be sampled."""
    case = Case(label, kind, lat, structure, lhs, rhs, budget or 0, mode,
                seed=rng.randrange(2 ** 31),
                variables=len(variables_of(lhs) | variables_of(rhs)),
                expect_error=expect_error)
    if budget is None:
        small = _space(lattices, case) <= EXHAUSTIVE_LIMIT
        if not (small or settled):
            return
        case.budget = DEFAULT_BUDGET if small else SAMPLE_BUDGET
    cases.append(case)


def eq_grid(cv, seed: int):
    """Build the eq-grid inputs: the lattices and the list of cases."""
    from convalg import catalog
    rng = random.Random(seed)
    names = SMALL_LATTICES + (FALLBACK_LATTICE, "chain5", "chain7")
    lattices = {name: catalog.get_lattice(name) for name in names}
    cases: list[Case] = []

    def add(*args, **kwargs):
        _add(cases, lattices, rng, *args, **kwargs)

    # Random structures over every small lattice, carrier 1..6, arity 0..2.
    for li, lat in enumerate(SMALL_LATTICES):
        for n, specs in SHAPES:
            structure = random_structure(cv, rng, n, specs)
            rels = {name: name for name, _, _ in specs}
            laws = [law for law in SHAPE_LAWS[n] if set(_needs(law)) <= set(rels)]
            take = 2 + (li % 2) if n <= 2 else 1 + (li % 2)
            for law in laws[:take]:
                add(f"rand/{lat}/n{n}/{law}", "conv", lat, structure, *_law(law, rels),
                    settled=law not in DEPENDS_ON_RELATION)
        if lat not in NON_DISTRIBUTIVE:
            structure = random_structure(cv, rng, 2, SHAPES[1][1])
            for law in sorted(HEYTING):
                add(f"heyting/{lat}/{law}", "conv", lat, structure, *_law(law, {}))

    # Groups as structures, relabelled by the seed.
    for group in ("Z2", "Z3", "S3"):
        for lat in ("chain2", "chain3", "boolean2", "M3", "N5"):
            structure = relabelled_group(cv, rng, group)
            rels = {"h": "*"}
            # Z2 and Z3 commute; S3 does not, and most pairs witness it.
            add(f"group/{lat}/{group}/comm2", "conv", lat, structure, *_law("comm2", rels))
            if lat not in NON_DISTRIBUTIVE:
                add(f"group/{lat}/{group}/assoc3", "conv", lat, structure,
                    *_law("assoc3", rels))
            elif group == "Z2":
                # associativity fails off distributive lattices: an early
                # exit from an exhaustive scan
                add(f"group/{lat}/{group}/assoc3", "conv", lat, structure,
                    *_law("assoc3", rels), budget=DEFAULT_BUDGET)
            add(f"group/{lat}/{group}/unit1", "conv", lat, structure,
                "(op * x (op id))", "x")
            add(f"group/{lat}/{group}/inv1", "conv", lat, structure,
                "(op conv (op conv x))", "x")
        structure = relabelled_group(cv, rng, group)
        for law in ("comm2", "assoc3"):
            add(f"subset/{group}/{law}", "subset", "2", structure,
                *_law(law, {"h": "*"}), settled=group != "S3")

    # Truth-value grids, over chain(n) and as subset algebras.
    grid_laws = (("(op min x y)", "(op min y x)"),
                 ("(op max (op max x y) z)", "(op max x (op max y z))"),
                 ("(op neg (op neg x))", "x"),
                 ("(op neg (op min x y))", "(op max (op neg x) (op neg y))"),
                 ("(op min x (op max x y))", "x"))
    for n in (2, 3):
        for mixed in (False, True):
            structure, _ = catalog.type2_structure(n, mixed=mixed)
            tag = f"type2{'mixed' if mixed else ''}_{n}"
            for lhs, rhs in grid_laws:
                add(f"grid/{tag}/{lhs}", "conv", f"chain{n}", structure, lhs, rhs)
                add(f"grid-subset/{tag}/{lhs}", "subset", "2", structure, lhs, rhs)

    # Random structures as subset algebras.
    for n, specs in SHAPES[1:4]:
        structure = random_structure(cv, rng, n, specs)
        rels = {name: name for name, _, _ in specs}
        for law in ("absorb1", "comm2" if "h" in rels else "mult2" if "g" in rels
                    else "add2"):
            add(f"subset/n{n}/{law}", "subset", "2", structure, *_law(law, rels),
                settled=law not in DEPENDS_ON_RELATION)

    # Bare lattices, including the one above 62 elements.
    for lat in SMALL_LATTICES + (FALLBACK_LATTICE,):
        laws = ["jassoc3", "distr3", "absorb2"]
        if lat not in NON_DISTRIBUTIVE:
            laws += ["heyt1", "dneg1"]
        for law in laws:
            add(f"lattice/{lat}/{law}", "lattice", lat, None, *_law(law, {}))

    # Ordered algebras: carrier functions restricted to monotone ones.
    for lat in ("chain2", "chain3", "chain4", "boolean2"):
        for n, specs in ((2, (("f", 1, "join"),)), (3, (("g", 1, "meet"),))):
            order = random_chain_order(rng, n)
            structure = random_structure(cv, rng, n, specs, order)
            rels = {name: name for name, _, _ in specs}
            law = "add2" if "f" in rels else "mult2"
            add(f"ordered/{lat}/n{n}/{law}", "ordered", lat, structure, *_law(law, rels))
            # Over budget: the space exceeds the budget, so sample/auto mode
            # applies.  These raise BudgetExceeded today (a known defect) and
            # count as failed operations until it is fixed.
            space = lattices[lat].size ** n
            add(f"ordered-over-budget/{lat}/n{n}", "ordered", lat, structure,
                *_law("absorb1" if "f" in rels else "absorb1g", rels), budget=space - 1,
                mode="sample" if n == 3 else "auto", expect_error=True)

    # Designed large cases: memo and intern caps, the fallback fold.
    structure = random_structure(cv, rng, 4, (("f", 1, "join"),))
    add("large/chain5/n4/jcomm2-above-memo-cap", "conv", "chain5", structure,
        *_law("jcomm2", {}), budget=DEFAULT_BUDGET)
    structure = random_structure(cv, rng, 6, (("f", 1, "join"),))
    add("large/chain7/n6/jidem1-above-intern-cap", "conv", "chain7", structure,
        *_law("jidem1", {}), budget=DEFAULT_BUDGET)
    structure = random_structure(cv, rng, 1, (("f", 1, "join"), ("h", 2, "join")))
    add("large/chain70/n1/add2-fallback-fold", "conv", FALLBACK_LATTICE, structure,
        *_law("add2", {"f": "f"}), budget=DEFAULT_BUDGET)
    add("large/chain70/n1/comm2-fallback-fold", "conv", FALLBACK_LATTICE, structure,
        *_law("comm2", {"h": "h"}))
    structure = random_structure(cv, rng, 2, (("f", 1, "join"), ("h", 2, "meet")))
    add("large/chain70/n2/absorb1-fallback-fold", "conv", FALLBACK_LATTICE, structure,
        *_law("absorb1", {"f": "f"}))

    for case in cases:
        sig = None if case.structure is None else case.structure.signature
        case.equation = cv.parse_equation({"lhs": case.lhs, "rhs": case.rhs}, sig)
    return lattices, cases


def _needs(law: str) -> list[str]:
    text = LAWS[law][0] + LAWS[law][1]
    return [r for r in "fghk" if "{%s}" % r in text]


# -- build-churn ------------------------------------------------------------------

BIG_SPECS = ("boolean6", "chain8*chain8", "chain70")
MEDIUM_SPECS = ("boolean5", "chain16", "chain4*chain4", "boolean4", "chain3*chain5",
                "dual:boolean5", "chain24", "chain2*boolean3")
SMALL_SPECS = ("chain2", "chain3", "chain4", "chain5", "boolean2", "boolean3", "M3",
               "N5", "chain2*chain3", "dual:N5", "chain3*chain3", "dual:chain2*chain3")
# (lattice specs, carrier sizes): one pair per spec and carrier size
CHURN_SLOTS = ((BIG_SPECS, (1, 2, 3)), (MEDIUM_SPECS, (2, 3)), (SMALL_SPECS, (2, 3, 4)))
# relations added to the unary join relation 'f', cycled over the pairs
CHURN_EXTRAS = ((), (("h", 2, "join"),), (("k", 0, "meet"), ("g", 1, "meet")),
                (("h", 2, "meet"),))
CHURN_BUDGET = 256
CHURN_LAW = ("(meet x (join x (op f x)))", "x")


@dataclass
class Pair:
    """One fresh (lattice, structure) pair: specs only, built when timed."""
    lattice: str
    carrier: int
    specs: tuple              # (name, arity, mode) with 'f' unary first
    relations: list
    calls: list               # (relation name, argument value tuples)
    seed: int


def build_churn(seed: int) -> list[Pair]:
    """The pairs of one build-churn batch, in a seeded order."""
    rng = random.Random(seed)
    pairs = []
    for specs, carriers in CHURN_SLOTS:
        for name in specs:
            for n in carriers:
                extra = CHURN_EXTRAS[len(pairs) % len(CHURN_EXTRAS)]
                pairs.append(_pair(rng, name, n, (("f", 1, "join"),) + extra))
    rng.shuffle(pairs)
    return pairs


def lattice_size(spec: str) -> int:
    sizes = {"M3": 5, "N5": 5}
    total = 1
    for part in spec.removeprefix("dual:").split("*"):
        if part in sizes:
            total *= sizes[part]
        elif part.startswith("boolean"):
            total *= 2 ** int(part[7:])
        else:
            total *= int(part[5:])
    return total


def _pair(rng, lattice: str, n: int, specs) -> Pair:
    relations = [_random_relation(rng, n, arity) for _, arity, _ in specs]
    size = lattice_size(lattice)
    calls = []
    for j in range(4):
        name, arity, _ = specs[j % len(specs)]
        calls.append((name, [tuple(rng.randrange(size) for _ in range(n))
                             for _ in range(arity)]))
    return Pair(lattice, n, specs, relations, calls, rng.randrange(2 ** 31))


def make_lattice(spec: str):
    from convalg import catalog
    if spec.startswith("dual:"):
        return catalog.get_lattice(spec[5:]).dual()
    return catalog.get_lattice(spec)
