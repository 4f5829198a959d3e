"""Definition-level evaluator used to check convalg's verdicts.

It shares no evaluation code with convalg: it reads the order matrix of
the lattice and the relation tuples of the structure, derives binary
meets and joins from the order alone, parses the equation's s-expression
text itself, and evaluates a join relation at each point as the join,
over the relation's tuples ending there, of the meets of the arguments
at the tuple's inputs (an empty join is bottom).  Meet relations use the
dual.  Elements are tuples of lattice indices, one per carrier point.
"""

from __future__ import annotations


def parse(text: str):
    """S-expression text to nested lists of atoms."""
    stack = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0][0]


class Lattice:
    """Meet, join and bounds of a finite lattice, derived from its order."""

    def __init__(self, leq):
        n = len(leq)
        down = [sum(leq[c][a] for c in range(n)) for a in range(n)]
        up = [sum(leq[a][c] for c in range(n)) for a in range(n)]
        # the greatest common lower bound has the largest down-set among them
        self.meet = [[max((c for c in range(n) if leq[c][a] and leq[c][b]),
                          key=down.__getitem__) for b in range(n)] for a in range(n)]
        self.join = [[max((c for c in range(n) if leq[a][c] and leq[b][c]),
                          key=up.__getitem__) for b in range(n)] for a in range(n)]
        self.leq, self.n = leq, n
        self.bot = max(range(n), key=up.__getitem__)
        self.top = max(range(n), key=down.__getitem__)


class Oracle:
    """L^X evaluator for one lattice and one structure's relations."""

    def __init__(self, lattice: Lattice, carrier: int, relations: dict):
        self.lat, self.carrier = lattice, carrier
        self.relations = relations      # name -> (mode, tuples)

    def _fold(self, table, unit, values):
        out = unit
        for v in values:
            out = table[out][v]
        return out

    def imp(self, a: int, b: int) -> int:
        lat = self.lat
        return self._fold(lat.join, lat.bot,
                          (c for c in range(lat.n) if lat.leq[lat.meet[a][c]][b]))

    def value(self, node, env: dict) -> tuple:
        lat, m = self.lat, self.carrier
        if isinstance(node, str):
            if node in ("bot", "top"):
                return ((lat.bot if node == "bot" else lat.top),) * m
            return env[node]
        head, args = node[0], node[1:]
        if head == "op":
            vals = [self.value(a, env) for a in args[1:]]
            mode, tuples = self.relations[args[0]]
            inner, outer = (lat.meet, lat.join) if mode == "join" else (lat.join, lat.meet)
            unit_in, unit_out = (lat.top, lat.bot) if mode == "join" else (lat.bot, lat.top)
            return tuple(
                self._fold(outer, unit_out,
                           (self._fold(inner, unit_in, (v[t[k]] for k, v in enumerate(vals)))
                            for t in tuples if t[-1] == x))
                for x in range(m))
        vals = [self.value(a, env) for a in args]
        if head == "neg":
            return tuple(self.imp(a, lat.bot) for a in vals[0])
        table = {"meet": lat.meet, "join": lat.join}.get(head)
        if table is not None:
            return tuple(table[a][b] for a, b in zip(*vals))
        if head == "imp":
            return tuple(self.imp(a, b) for a, b in zip(*vals))
        raise ValueError(f"unknown form {head!r}")
