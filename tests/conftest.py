import random

import pytest

from graphentropy import lp
from graphentropy.graphs import Graph


def c5() -> Graph:
    return Graph.cycle(5)


def g1() -> Graph:
    """Pentagon, an apex joined to two consecutive rim vertices, and a second
    apex joined to the first and to the rim vertex opposite the pair."""
    return Graph.undirected(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (5, 0), (5, 1), (6, 3)],
    )


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.undirected(n, edges)


def random_looped_graph(rng: random.Random, n: int, p: float = 0.5,
                        loop_p: float = 0.3) -> Graph:
    """random_graph with a loop on each vertex with probability loop_p."""
    edges = random_graph(rng, n, p).edges()
    return Graph.undirected(n, edges + [(v, v) for v in range(n) if rng.random() < loop_p])


def random_digraph(rng: random.Random, n: int, p: float = 0.4,
                   loop_p: float = 0.0) -> Graph:
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    arcs += [(v, v) for v in range(n) if rng.random() < loop_p]
    return Graph.from_arcs(n, arcs)


def count_calls(monkeypatch, module, name: str) -> list:
    """Route module.name through a recorder while the test runs: one tuple
    of positional arguments per call, appended to the list returned, and
    each call passed on to the real function."""
    real = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5eed)


@pytest.fixture
def exact_steps(monkeypatch) -> list:
    """Names of the exact simplex steps taken while the test runs: one
    '_exchange' per pivot and one '_phase1' per restart from the
    slack/artificial basis.  Empty while every proposed basis is optimal."""
    steps = []
    for name in ("_exchange", "_phase1"):
        real = getattr(lp, name)
        monkeypatch.setattr(lp, name, lambda *args, name=name, real=real:
                            steps.append(name) or real(*args))
    return steps


@pytest.fixture
def factorizations(monkeypatch) -> list:
    """One entry per basis factorization made by the exact simplex while the
    test runs."""
    calls = []
    real = lp._factor
    monkeypatch.setattr(lp, "_factor", lambda rows: calls.append(len(rows)) or real(rows))
    return calls
