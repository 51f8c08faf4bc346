"""Inputs and expected outputs of the three benchmark workloads.

Pure Python, no graphentropy import: the parent process builds every input as
CLI text, and only the worker processes load the package.

Random graphs come from a population drawn once from fixed seeds, chosen
before any timing was looked at.  Random inputs of this size range over
several orders of magnitude in run time: one 9-vertex random digraph at q = 2
takes minutes, and relabelling the vertices of one 7-vertex population graph
moves its bounds op from 2 s to past the deadline.  A population redrawn or
relabelled per run seed would make runs incomparable and make ops fail at
random, so the run seed only orders each pass (see run.py).  The relabelling
that fails is kept as a probe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Per-op deadline, enforced by the parent: well above every op that
# completes today (the slowest is verify --suite theorem2, about 20 s) and
# well below what the at-cap probes need (C5 at q = 3 takes about 150 s).
DEADLINE_S = 60.0

WORKLOADS = ("bounds", "verify", "guess")


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    id: str
    argv: list[str]
    stdin: str = ""
    expect: dict = field(default_factory=dict)


# -- graph text -------------------------------------------------------------------


def edge_text(n: int, edges) -> str:
    return f"{n}; " + ",".join(f"{u + 1}-{v + 1}" for u, v in edges)


def arc_text(n: int, arcs) -> str:
    return f"{n}; " + ",".join(f"{u + 1}->{v + 1}" for u, v in arcs)


def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def complement_edges(n: int, edges):
    present = {frozenset(e) for e in edges}
    return [(i, j) for i in range(n) for j in range(i + 1, n) if frozenset((i, j)) not in present]


# The first two graphs of the paper's 7-vertex family (enumeration.g_family):
# a pentagon on 0..4 plus the adjacent pair 5-6 and the listed attachments.
_PENTAGON_PLUS = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)]
G_ELEVEN_THIRDS = _PENTAGON_PLUS + [(5, 0), (5, 1), (6, 3)]
G_SEVEN_HALVES = _PENTAGON_PLUS + [(5, 0), (5, 2), (6, 1)]


def _connected(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def random_connected_graph(rng: random.Random, n: int, p: float):
    """G(n, p) conditioned on being connected, by rejection."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = [e for e in pairs if rng.random() < p]
        if _connected(n, edges):
            return edges


def random_digraph(rng: random.Random, n: int, p: float):
    """Each of the n(n-1) loopless arcs independently with probability p."""
    return [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


# -- populations ------------------------------------------------------------------

# (n, how many) for the bounds population, G(n, 1/2) connected.
BOUNDS_STRATA = ((6, 4), (7, 8))
# (n, q, how many) for the guess population, arc probability 0.4.
GUESS_STRATA = ((7, 2, 2), (8, 2, 2), (9, 2, 2), (4, 3, 2), (5, 3, 2))


def bounds_population():
    """[(name, n, edges)], fixed forever: the seed names the stratum."""
    out = []
    for n, count in BOUNDS_STRATA:
        rng = random.Random(f"graphentropy-bench/bounds/gnp/n={n}")
        for k in range(count):
            out.append((f"gnp{n}.{k}", n, random_connected_graph(rng, n, 0.5)))
    return out


def guess_population():
    """[(name, n, q, arcs)], fixed forever: the seed names the stratum."""
    out = []
    for n, q, count in GUESS_STRATA:
        rng = random.Random(f"graphentropy-bench/guess/digraph/n={n}/q={q}")
        for k in range(count):
            out.append((f"dig{n}q{q}.{k}", n, q, random_digraph(rng, n, 0.4)))
    return out


# -- workloads --------------------------------------------------------------------


def _bounds(name: str, text: str, **expect) -> Op:
    return Op(f"bounds/{name}", ["bounds", "--graph", "-"], text, expect)


def _guess(name: str, text: str, q: int, **expect) -> Op:
    return Op(f"guess/{name}/q={q}", ["guess", "--graph", "-", "--q", str(q)], text,
              dict(expect, q=q))


def bounds_ops() -> list[Op]:
    """Named paper graphs with closed-form entropy, then the population."""
    ops = [
        _bounds("C5", edge_text(5, cycle_edges(5)), value="5/2"),
        _bounds("C7", edge_text(7, cycle_edges(7)), value="7/2"),
        _bounds("co-C7", edge_text(7, complement_edges(7, cycle_edges(7))), value="14/3"),
        _bounds("C8", edge_text(8, cycle_edges(8)), value="4"),
        _bounds("G-11/3", edge_text(7, G_ELEVEN_THIRDS), value="11/3"),
        _bounds("G-7/2", edge_text(7, G_SEVEN_HALVES), value="7/2"),
    ]
    ops += [_bounds(name, edge_text(n, edges)) for name, n, edges in bounds_population()]
    return ops


def guess_ops() -> list[Op]:
    """Undirected cycles at q = 2 and C3 at q = 7, then the population."""
    sizes = {7: 8, 9: 16, 10: 32, 12: 64}
    ops = [_guess(f"C{n}", edge_text(n, cycle_edges(n)), 2, code_size=sizes.get(n))
           for n in range(7, 13)]
    ops.append(_guess("C3", edge_text(3, cycle_edges(3)), 7, code_size=49))
    ops += [_guess(name, arc_text(n, arcs), q) for name, n, q, arcs in guess_population()]
    return ops


SUITE_VALUES = ["0", "1", "2", "5/2", "3", "7/2", "11/3", "4"]


def verify_ops() -> list[Op]:
    """The three paper-reproduction suites."""
    return [
        Op("verify/wheel", ["verify", "--suite", "wheel", "--jobs", "1"]),
        Op("verify/gfamily", ["verify", "--suite", "gfamily", "--jobs", "1"]),
        Op("verify/theorem2", ["verify", "--suite", "theorem2", "--jobs", "1"],
           expect={"classes": 1252, "collapsed_values": SUITE_VALUES}),
    ]


# gnp7.4 under one vertex relabelling: the float-guided LP basis is rejected
# and the exact simplex restarts cold, far past the deadline (its population
# labelling takes about 2 s).
_GNP7_4_RELABELLED = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5),
                      (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)]


def probe_ops(workload: str) -> list[Op]:
    """Inputs the default caps accept but that fail today; traced runs only."""
    if workload == "bounds":
        return [
            _bounds("probe-C9", edge_text(9, cycle_edges(9)), value="9/2"),
            _bounds("probe-gnp7.4-relabelled", edge_text(7, _GNP7_4_RELABELLED)),
        ]
    if workload == "guess":
        looped = [(0, 1), (1, 0)] + [(v, v) for v in range(2, 12)]
        return [
            _guess("probe-C5", edge_text(5, cycle_edges(5)), 3, code_size=12),
            _guess("probe-looped", arc_text(12, looped), 2, code_size=2048),
        ]
    return []


def ops_for(workload: str) -> list[Op]:
    return {"bounds": bounds_ops, "verify": verify_ops, "guess": guess_ops}[workload]()
