import itertools
import time

import pytest

from graphentropy.bounds import bounds_report, transversal_number
from graphentropy.graphs import (
    CapExceededError,
    Graph,
    GraphError,
    disjoint_union,
    i_reduction,
    induced_subgraph,
    is_acyclic,
    loops,
)
from graphentropy.guessing import (
    GuessingCode,
    GuessingValue,
    _improvements,
    _max_clique,
    compatibility_graph,
    extend_code,
    max_guessing,
    validate_code,
)
from graphentropy.structure import find_reducible_set

from _oracles import (
    clique_code_size,
    profile_code_size,
    unanchored_max_clique,
    words_compatible,
)
from conftest import c5, random_digraph, random_graph


def test_compatibility_graph_base_cases():
    comp = compatibility_graph(Graph.empty(1), 2, cap=4096)
    assert len(comp.words) == 2
    assert comp.edge_count() == 0

    comp = compatibility_graph(Graph.complete(2), 2, cap=4096)
    idx = {w: i for i, w in enumerate(comp.words)}
    assert comp.has_edge(idx[(0, 0)], idx[(1, 1)])
    assert not comp.has_edge(idx[(0, 0)], idx[(0, 1)])

    looped = Graph.from_arcs(1, [(0, 0)])
    comp = compatibility_graph(looped, 2, cap=4096)
    assert comp.has_edge(0, 1)


def test_compatibility_matches_definition(rng):
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 4), loop_p=0.2)
        q = rng.choice([2, 2, 3])
        comp = compatibility_graph(g, q, cap=4096)
        words = comp.words
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                assert comp.has_edge(i, j) == words_compatible(g, q, words[i], words[j])


# Every named digraph the other tests in this file search, plus K3 at
# q = 5, 6, 7, whose first greedy clique is not maximum.
NAMED_GUESSING_GRAPHS = [
    (Graph.empty(1), 2),
    (Graph.from_arcs(1, [(0, 0)]), 2),
    (Graph.from_arcs(2, [(0, 0), (1, 1)]), 2),
    (Graph.empty(13), 2),
    (c5(), 2),
    (disjoint_union(c5(), Graph.complete(2)), 2),
    (disjoint_union(c5(), Graph.empty(1)), 2),
] + [(Graph.complete(n), 2) for n in (2, 3, 4, 5, 11)] + [(Graph.complete(3), q) for q in (5, 6, 7)]

LOOPED_2_CYCLE = Graph.from_arcs(12, [(0, 1), (1, 0)] + [(v, v) for v in range(2, 12)])


def test_max_clique_mask_matches_unanchored_oracle(rng):
    cases = list(NAMED_GUESSING_GRAPHS)
    cases += [(random_digraph(rng, rng.randint(1, 7), loop_p=0.2), 2) for _ in range(150)]
    cases += [(random_digraph(rng, rng.randint(1, 4), loop_p=0.2), 3) for _ in range(60)]
    cases += [(random_graph(rng, rng.randint(1, 7)), 2) for _ in range(40)]
    for g, q in cases:
        comp = compatibility_graph(g, q, cap=1 << 13)
        assert comp.max_clique_mask() == unanchored_max_clique(comp.rows), (g, q)


def cayley_rows(rng, q: int, k: int) -> list[int]:
    """Clique-search rows of a random Cayley graph on Z_q^k, words in
    lexicographic order.  Vertex-transitive under the same shifts as every
    compatibility graph, and its first greedy clique is often not maximum."""
    words = list(itertools.product(range(q), repeat=k))
    index = {w: i for i, w in enumerate(words)}
    shifts = set()
    for s in words[1:]:
        neg = tuple(-d % q for d in s)
        if s <= neg and rng.random() < 0.5:
            shifts |= {s, neg}
    return [sum(1 << index[tuple((a + b) % q for a, b in zip(w, s))] for s in shifts)
            for w in words]


def test_anchored_search_replays_the_unanchored_one(rng):
    replayed = 0
    for q, k in [(2, 7), (3, 4), (4, 3), (7, 2)]:
        for _ in range(15):
            rows = cayley_rows(rng, q, k)
            mask = _max_clique(rows)
            assert mask == unanchored_max_clique(rows), (q, k)
            replayed += next(_improvements(rows, (1 << len(rows)) - 1)) != mask
    assert replayed >= 10


def test_stop_at_a_tight_bound_keeps_the_mask(rng):
    """With omega itself as the bound, the search stops in the first dive or
    in the anchored search, and still returns the unanchored search's mask."""
    stops = {"dive": 0, "anchored": 0}
    for q, k in [(2, 7), (3, 4), (4, 3), (7, 2)]:
        for _ in range(15):
            rows = cayley_rows(rng, q, k)
            mask = unanchored_max_clique(rows)
            assert _max_clique(rows, mask.bit_count()) == mask, (q, k)
            first = next(_improvements(rows, (1 << len(rows)) - 1))
            stops["dive" if first.bit_count() == mask.bit_count() else "anchored"] += 1
    assert min(stops.values()) >= 10, stops


@pytest.mark.parametrize("g, q, size", [
    (Graph.cycle(11), 2, 32),
    (Graph.cycle(12), 2, 64),
    (Graph.cycle(5), 3, 12),
    (LOOPED_2_CYCLE, 2, 2048),
], ids=["C11-q2", "C12-q2", "C5-q3", "looped-2-cycle-q2"])
def test_codes_at_the_cap(g, q, size):
    started = time.perf_counter()
    value, code = max_guessing(g, q)
    elapsed = time.perf_counter() - started
    assert value.code_size == len(code) == size
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_code_meeting_q_tau_ends_the_search():
    """The first greedy clique of this graph at q = 3 already has q**tau = 27
    words; the search stops there instead of proving it optimal, which took
    about a minute."""
    g = Graph.undirected(5, [(0, 1), (0, 2), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert transversal_number(g)[0] == 3
    started = time.perf_counter()
    value, code = max_guessing(g, 3)
    elapsed = time.perf_counter() - started
    assert value.code_size == len(code) == 27
    code.validate()
    assert elapsed < 5, f"took {elapsed:.1f}s"


def test_code_size_within_tau_and_theta(rng):
    # Undirected graphs at q = 3 stop at 4 vertices: a 5-vertex one whose
    # optimal code falls short of q**tau, such as C5 (12 < 27 words), takes
    # seconds to prove optimal.
    graphs = [random_graph(rng, rng.randint(1, 6)) for _ in range(40)]
    graphs += [random_digraph(rng, rng.randint(1, 5), loop_p=0.3) for _ in range(40)]
    for g in graphs:
        report = bounds_report(g)
        theta = report.theta
        for q in (2, 3) if g.directed or g.n <= 4 else (2,):
            size = max_guessing(g, q)[0].code_size
            assert size <= q ** report.tau, (g, q)
            assert size ** theta.denominator <= q ** theta.numerator, (g, q)


def test_complete_graph_codes():
    # K11's 1024-word code is a clique deeper than the recursion limit.
    for n in (2, 3, 4, 5, 11):
        value, code = max_guessing(Graph.complete(n), 2)
        assert value.code_size == 2 ** (n - 1)
        code.validate()


def test_pentagon_code_size_matches_oracles():
    value, code = max_guessing(c5(), 2)
    assert value.code_size == 5
    assert clique_code_size(c5(), 2) == 5
    assert profile_code_size(c5(), 2) == 5
    assert value.log_string() == "log_2(5)"


def test_triangle_code_size_matches_profile_oracle():
    value, _ = max_guessing(Graph.complete(3), 2)
    assert value.code_size == profile_code_size(Graph.complete(3), 2) == 4


def test_double_loop_reduction_example():
    both = Graph.from_arcs(2, [(0, 0), (1, 1)])
    value, _ = max_guessing(both, 2)
    assert value.code_size == 4
    assert value.exact_integer() == 2


def test_validate_code_examples():
    assert validate_code(c5(), 2, [(0,) * 5, (1,) * 5])
    assert not validate_code(Graph.complete(2), 2, [(0, 0), (0, 1)])
    assert not validate_code(c5(), 2, [(0,) * 4])
    assert not validate_code(c5(), 2, [(0, 0, 2, 0, 0)])
    with pytest.raises(GraphError):
        GuessingCode(Graph.complete(2), 2, [(0, 0), (0, 1)]).validate()


def test_validate_code_matches_pairwise_oracle(rng):
    rejected = 0
    for _ in range(80):
        g = random_digraph(rng, rng.randint(1, 5), loop_p=0.3)
        q = rng.choice([2, 3]) if g.n <= 4 else 2
        words = list(max_guessing(g, q)[1].words)
        codes = [words]
        for _ in range(5):
            bent = list(words)
            k = rng.randrange(len(bent))
            v = rng.randrange(g.n)
            w = list(bent[k])
            w[v] = (w[v] + rng.randrange(1, q)) % q
            bent[k] = tuple(w)
            codes.append(bent)
        for code in codes:
            pairwise = all(words_compatible(g, q, x, y)
                           for i, x in enumerate(code) for y in code[i + 1:])
            assert validate_code(g, q, code) == pairwise, (g, q, code)
            rejected += not pairwise
    assert rejected > 0


def test_guessing_value_ordering():
    a = GuessingValue(2, 4)
    b = GuessingValue(2, 5)
    assert a < b and a <= b and a != b
    assert GuessingValue(2, 4) == GuessingValue(2, 4)
    with pytest.raises(ValueError):
        _ = GuessingValue(2, 4) < GuessingValue(3, 4)


def test_word_cap():
    with pytest.raises(CapExceededError):
        max_guessing(Graph.empty(13), 2)
    max_guessing(Graph.empty(13), 2, cap=1 << 13)


def test_loop_reduction_exact(rng):
    cases = 0
    while cases < 50:
        g = random_digraph(rng, rng.randint(1, 4), loop_p=0.5)
        loop_mask = loops(g)
        if not loop_mask:
            continue
        cases += 1
        stripped, _ = induced_subgraph(g, g.vertex_mask & ~loop_mask)
        whole, _ = max_guessing(g, 2)
        part, _ = max_guessing(stripped, 2)
        k = bin(loop_mask).count("1")
        assert whole.code_size == 2 ** k * part.code_size


def test_tau_upper_bound(rng):
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 5), loop_p=0.2)
        value, _ = max_guessing(g, 2)
        assert value.code_size <= 2 ** transversal_number(g)[0]


def test_subgraph_monotonicity(rng):
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 5), loop_p=0.2)
        kept = [a for a in g.arcs() if rng.random() < 0.7]
        sub = Graph.from_arcs(g.n, kept)
        small, _ = max_guessing(sub, 2)
        large, _ = max_guessing(g, 2)
        assert small.code_size <= large.code_size


def test_i_reduction_soundness(rng):
    cases = 0
    while cases < 100:
        g = random_digraph(rng, rng.randint(2, 5), loop_p=0.1)
        masks = [m for m in range(1, 1 << g.n)
                 if m != g.vertex_mask and is_acyclic(induced_subgraph(g, m)[0])]
        if not masks:
            continue
        cases += 1
        i_mask = rng.choice(masks)
        reduced, _ = i_reduction(g, i_mask)
        before, _ = max_guessing(g, 2)
        after, _ = max_guessing(reduced, 2)
        assert before.code_size <= 2 ** bin(i_mask).count("1") * after.code_size


def test_extend_code_pendant_pair():
    base = GuessingCode(Graph.empty(0), 2, [()])
    out = extend_code(base, [(1, 0)], Graph.complete(2))
    assert out.words == ((0, 0), (1, 1))


def test_extend_code_across_union():
    g = disjoint_union(c5(), Graph.complete(2))
    _, pent_code = max_guessing(c5(), 2)

    lifted = extend_code(pent_code, [(6, 5)], g)
    assert len(lifted.words) == 10
    for i, w in enumerate(lifted.words):
        for x in lifted.words[i + 1:]:
            assert words_compatible(g, 2, w, x)

    four = GuessingCode(c5(), 2, pent_code.words[:4])
    four.validate()
    assert len(extend_code(four, [(6, 5)], g).words) == 8


def test_extend_code_size_identity(rng):
    cases = 0
    while cases < 40:
        host = random_graph(rng, rng.randint(2, 5))
        d = find_reducible_set(host)
        if d is None:
            continue
        cases += 1
        _, base = max_guessing(d.remainder, 2)
        lifted = extend_code(base, list(d.matching), host)
        assert len(lifted.words) == len(base.words) * 2 ** len(d.matching)


def test_isolated_vertex_adds_nothing():
    g = disjoint_union(c5(), Graph.empty(1))
    value, _ = max_guessing(g, 2)
    assert value.code_size == 5
