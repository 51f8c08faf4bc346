import functools
import itertools
import time

import pytest

from graphentropy import guessing
from graphentropy.bounds import entropy_bracket, transversal_number
from graphentropy.enumeration import isomorphism_classes
from graphentropy.graphs import (
    CapExceededError,
    Graph,
    GraphError,
    automorphisms,
    induced_subgraph,
    loops,
    permute_mask,
)
from graphentropy.guessing import (
    GuessingCode,
    _improvements,
    _max_clique,
    _word_symmetries,
    compatibility_graph,
    extend_code,
    max_guessing,
    validate_code,
)
from graphentropy.structure import Decomposition, find_reducible_set

from _oracles import (
    clique_code_size,
    disjoint_union,
    i_reduction,
    is_acyclic,
    profile_code_size,
    unanchored_max_clique,
    words_compatible,
)
from conftest import c5, random_digraph, random_graph


def test_compatibility_graph_base_cases():
    comp = compatibility_graph(Graph.empty(1), 2, cap=4096)
    assert len(comp) == 2
    assert comp.edge_count() == 0

    comp = compatibility_graph(Graph.complete(2), 2, cap=4096)
    idx = {w: i for i, w in enumerate(itertools.product(range(2), repeat=2))}
    assert comp.rows[idx[(0, 0)]] >> idx[(1, 1)] & 1
    assert not comp.rows[idx[(0, 0)]] >> idx[(0, 1)] & 1

    looped = Graph.from_arcs(1, [(0, 0)])
    comp = compatibility_graph(looped, 2, cap=4096)
    assert comp.rows[0] >> 1 & 1


def test_compatibility_matches_definition(rng):
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 4), loop_p=0.2)
        q = rng.choice([2, 2, 3])
        comp = compatibility_graph(g, q, cap=4096)
        words = list(itertools.product(range(q), repeat=g.n))
        assert len(comp) == len(words)
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                edge = bool(comp.rows[i] >> j & 1)
                assert edge == words_compatible(g, q, words[i], words[j])


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


def test_rows_match_word_compatibility(rng):
    """Row 0 plus symbol shifts gives the rows the definition gives, at
    every alphabet size from 2 to 7 up to the word cap: every row up to 243
    words, and row 0 and one seeded row past that."""
    cases = [(Graph.cycle(11), 2), (Graph.cycle(12), 2), (Graph.cycle(5), 3),
             (LOOPED_2_CYCLE, 2), (Graph.empty(0), 2), (Graph.empty(0), 7)]
    for q in range(2, 8):
        most = max(n for n in range(13) if q**n <= 4096)
        cases += [(random_digraph(rng, rng.randint(1, most), loop_p=0.3), q) for _ in range(12)]
        cases.append((random_digraph(rng, most, loop_p=0.3), q))
    for g, q in cases:
        rows = compatibility_graph(g, q).rows
        words = list(itertools.product(range(q), repeat=g.n))
        assert len(rows) == len(words), (g, q)
        if len(words) <= 243:
            want = [0] * len(words)
            for i, j in itertools.combinations(range(len(words)), 2):
                if words_compatible(g, q, words[i], words[j]):
                    want[i] |= 1 << j
                    want[j] |= 1 << i
            assert rows == want, (g, q)
            continue
        for i in (0, rng.randrange(1, len(words))):
            want = sum(1 << j for j, x in enumerate(words)
                       if j != i and words_compatible(g, q, words[i], x))
            assert rows[i] == want, (g, q, i)


# Hosts with loops or with nontrivial automorphism groups, whose word-level
# symmetries the anchored search prunes by.
SYMMETRIC_HOSTS = [
    Graph.cycle(4),
    Graph.complete(3),
    c5(),
    Graph.from_arcs(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)]),
    Graph.from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3),
                        (0, 0), (2, 2)]),
    Graph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)]),
]


def test_word_symmetries_keep_the_compatibility_definition():
    """Every generator is a permutation of the words that fixes word 0 and
    maps rows[i] onto rows[p[i]], with the rows taken from the definition."""
    for g in SYMMETRIC_HOSTS:
        assert automorphisms(g)
        for q in (2, 3, 4):
            if q**g.n > 81:
                continue
            words = list(itertools.product(range(q), repeat=g.n))
            rows = [sum(1 << j for j, y in enumerate(words) if j != i and
                        words_compatible(g, q, x, y)) for i, x in enumerate(words)]
            gens = list(_word_symmetries(g, q))
            assert len(gens) == len(automorphisms(g)) + g.n * (q - 1) * (q - 2) // 2
            for p in gens:
                assert sorted(p) == list(range(len(words))), (g, q)
                assert p[0] == 0, (g, q)
                assert all(permute_mask(p, rows[i]) == rows[p[i]]
                           for i in range(len(words))), (g, q, p)


# A 7-vertex graph whose first greedy clique has 9 words, while omega = 16:
# the anchored search finds 15 words next to word 0 only past its first
# branch, so a wrong symmetry that prunes that far loses omega.
LATE_OPTIMUM = Graph.undirected(7, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 5), (2, 6),
                                    (3, 5), (3, 6), (4, 5), (4, 6)])


def mismatched_masks(rng) -> list:
    """The oracle cases whose reported clique mask differs from the one the
    unanchored search reports."""
    cases = list(NAMED_GUESSING_GRAPHS) + [(LATE_OPTIMUM, 2)]
    cases += [(Graph.cycle(n), 3) for n in (3, 4)]
    cases += [(Graph.cycle(4), 4), (Graph.complete(3), 4)]
    cases += [(random_digraph(rng, rng.randint(1, 7), loop_p=0.2), 2) for _ in range(150)]
    cases += [(random_digraph(rng, rng.randint(1, 4), loop_p=0.2), 3) for _ in range(60)]
    cases += [(random_graph(rng, rng.randint(1, 7)), 2) for _ in range(40)]
    wrong = []
    for g, q in cases:
        comp = compatibility_graph(g, q, cap=1 << 13)
        if comp.max_clique_mask() != unanchored_max_clique(comp.rows):
            wrong.append((g, q))
    # The oracle takes minutes on C5 at q = 3, so the reference there is the
    # search without symmetry pruning, which matches the oracle on every case
    # above when the pruning is sound.
    comp = compatibility_graph(c5(), 3)
    if comp.max_clique_mask() != _c5_q3_unpruned_mask():
        wrong.append((c5(), 3))
    return wrong


@functools.cache
def _c5_q3_unpruned_mask() -> int:
    return _max_clique(compatibility_graph(c5(), 3).rows)


def test_max_clique_mask_matches_unanchored_oracle(rng):
    assert mismatched_masks(rng) == []


def test_oracle_catches_a_wrong_symmetry(rng, monkeypatch):
    """With one permutation among the generators that fixes word 0 but is no
    automorphism, a rotation of all other words, the oracle test above
    fails: the anchored search then explores one branch at its root."""
    def with_a_rotation(g: Graph, q: int):
        yield from _word_symmetries(g, q)
        yield [0] + [i % (q**g.n - 1) + 1 for i in range(1, q**g.n)]

    monkeypatch.setattr(guessing, "_word_symmetries", with_a_rotation)
    assert mismatched_masks(rng)


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


def complements(rows: list[int]) -> list[int]:
    """comp as _max_clique builds it: each row's complement, less the word."""
    full = (1 << len(rows)) - 1
    return [full ^ r ^ (1 << v) for v, r in enumerate(rows)]


def first_dive(rows: list[int]) -> int:
    """The first clique of the search over all words: one greedy dive."""
    return next(_improvements(rows, complements(rows), (1 << len(rows)) - 1))


def reversed_mask(mask: int, n: int) -> int:
    """mask with word i moved to n - 1 - i."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def test_symbol_reversal_is_a_symmetry(rng):
    """The clique search runs in the mirror of the symbol reversal, which
    sends word i to N - 1 - i: rows[N - 1 - i] is rows[i] reversed, and each
    word symmetry conjugated by the reversal fixes word N - 1 and maps rows
    onto rows.  On compatibility graphs of looped digraphs at q = 2, 3, 4,
    on the symmetric hosts, and on Cayley graphs."""
    hosts = [(random_digraph(rng, rng.randint(1, most), loop_p=0.3), q)
             for q, most in [(2, 7), (3, 4), (4, 3)] for _ in range(15)]
    hosts += [(g, q) for g in SYMMETRIC_HOSTS for q in (2, 3, 4) if q**g.n <= 256]
    cases = [(compatibility_graph(g, q).rows, list(_word_symmetries(g, q))) for g, q in hosts]
    cases += [(cayley_rows(rng, q, k), []) for q, k in [(2, 7), (3, 4), (4, 3), (7, 2)]
              for _ in range(5)]
    conjugated = 0
    for rows, gens in cases:
        n = len(rows)
        assert all(rows[n - 1 - i] == reversed_mask(rows[i], n) for i in range(n))
        for p in gens:
            mirrored = [n - 1 - y for y in reversed(p)]
            assert mirrored[n - 1] == n - 1
            assert all(permute_mask(mirrored, rows[i]) == rows[mirrored[i]] for i in range(n))
            conjugated += 1
    assert conjugated >= 50, conjugated


class CountedRows(list):
    """Rows that count their reads: the search reads rows[v] once per branch."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_orbit_pruning_branch_count():
    """The anchored climb on C5 at q = 3 with the word symmetries branches
    6,977 times, as the same search over the unreversed words does; an orbit
    dropped at the wrong words keeps the clique number here but branches
    more than six times as often."""
    g, q = c5(), 3
    rows = compatibility_graph(g, q).rows
    counted = CountedRows(rows)
    *_, last = _improvements(counted, complements(rows), rows[0], 0,
                             list(_word_symmetries(g, q)))
    assert last.bit_count() == 11
    assert counted.reads == 6977


def test_anchored_search_replays_the_unanchored_one(rng):
    replayed = 0
    for q, k in [(2, 7), (3, 4), (4, 3), (7, 2)]:
        for _ in range(15):
            rows = cayley_rows(rng, q, k)
            mask = _max_clique(rows)
            assert mask == unanchored_max_clique(rows), (q, k)
            replayed += first_dive(rows) != mask
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
            first = first_dive(rows)
            stops["dive" if first.bit_count() == mask.bit_count() else "anchored"] += 1
    assert min(stops.values()) >= 10, stops


def searches_made(monkeypatch) -> list:
    """Record each _improvements search _max_clique starts, as [anchored,
    best_size, cliques yielded]; anchored says the candidates were rows[0]."""
    calls = []

    def recorded(rows, comp, cand, best_size=0, gens=()):
        call = [cand == rows[0], best_size, 0]
        calls.append(call)
        for mask in _improvements(rows, comp, cand, best_size, gens):
            call[2] += 1
            yield mask

    monkeypatch.setattr(guessing, "_improvements", recorded)
    return calls


def short_first_dives(rng) -> list:
    """Cayley rows whose first greedy clique is at least two words short of
    omega, with the unanchored search's mask."""
    out = []
    for q, k in [(2, 7), (4, 3), (7, 2)]:
        for _ in range(20):
            rows = cayley_rows(rng, q, k)
            mask = unanchored_max_clique(rows)
            if first_dive(rows).bit_count() < mask.bit_count() - 1:
                out.append((rows, mask))
    return out


def test_probe_at_a_tight_bound_stops_the_search(rng, monkeypatch):
    """With limit = omega and a first dive at least two words short, the
    probe for limit - 1 words next to word 0 succeeds and the replay follows
    at once: no climb runs, and the mask is the unanchored search's."""
    cases = short_first_dives(rng)
    assert len(cases) >= 8
    for rows, mask in cases:
        calls = searches_made(monkeypatch)
        omega = mask.bit_count()
        assert _max_clique(rows, omega) == mask
        assert calls == [[False, 0, 1], [True, omega - 2, 1], [False, omega - 1, 1]]


def test_failed_probe_falls_back_to_the_climb(rng, monkeypatch):
    """With limit = omega + 1 the probe finds nothing, since omega - 1 is the
    most N(0) holds; the climb from the first dive then runs as before and
    the mask is still the unanchored search's."""
    for rows, mask in short_first_dives(rng):
        calls = searches_made(monkeypatch)
        omega = mask.bit_count()
        assert _max_clique(rows, omega + 1) == mask
        first = first_dive(rows).bit_count()
        assert calls[1] == [True, omega - 1, 0]
        assert calls[2][:2] == [True, first - 1]
        assert calls[3] == [False, omega - 1, 1]


@pytest.mark.parametrize("g, q, size", [
    (Graph.cycle(11), 2, 32),
    (Graph.cycle(12), 2, 64),
    (Graph.cycle(5), 3, 12),
    (LOOPED_2_CYCLE, 2, 2048),
    (Graph.complete(3), 7, 49),
], ids=["C11-q2", "C12-q2", "C5-q3", "looped-2-cycle-q2", "K3-q7"])
def test_codes_at_the_cap(g, q, size):
    started = time.perf_counter()
    got, code = max_guessing(g, q)
    elapsed = time.perf_counter() - started
    assert got == len(code) == size
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_code_meeting_q_tau_ends_the_search():
    """The first greedy clique of this graph at q = 3 already has q**tau = 27
    words; the search stops there instead of proving it optimal, which took
    about a minute."""
    g = Graph.undirected(5, [(0, 1), (0, 2), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert transversal_number(g)[0] == 3
    started = time.perf_counter()
    size, code = max_guessing(g, 3)
    elapsed = time.perf_counter() - started
    assert size == len(code) == 27
    code.validate()
    assert elapsed < 5, f"took {elapsed:.1f}s"


def test_code_size_within_tau_and_theta(rng):
    # Every undirected 5-vertex graph is searched at q = 3, including those
    # whose optimal code falls short of q**tau, such as C5 (12 < 27 words);
    # with the symmetry pruning all 34 take well under a second together.
    # Undirected graphs at q = 3 stop there: some 6-vertex ones still take
    # more than 5 s each.
    graphs = [random_graph(rng, rng.randint(1, 6)) for _ in range(40)]
    graphs += isomorphism_classes(5)
    graphs += [random_digraph(rng, rng.randint(1, 5), loop_p=0.3) for _ in range(40)]
    for g in graphs:
        report = entropy_bracket(g)
        theta = report.theta
        for q in (2, 3) if g.directed or g.n <= 5 else (2,):
            size = max_guessing(g, q)[0]
            assert size <= q ** report.tau, (g, q)
            assert size ** theta.denominator <= q ** theta.numerator, (g, q)


def test_complete_graph_codes():
    # K11's 1024-word code is a clique deeper than the recursion limit.
    for n in (2, 3, 4, 5, 11):
        size, code = max_guessing(Graph.complete(n), 2)
        assert size == 2 ** (n - 1)
        code.validate()


def test_pentagon_code_size_matches_oracles():
    size, code = max_guessing(c5(), 2)
    assert size == 5
    assert clique_code_size(c5(), 2) == 5
    assert profile_code_size(c5(), 2) == 5


def test_triangle_code_size_matches_profile_oracle():
    size, _ = max_guessing(Graph.complete(3), 2)
    assert size == profile_code_size(Graph.complete(3), 2) == 4


def test_double_loop_reduction_example():
    both = Graph.from_arcs(2, [(0, 0), (1, 1)])
    size, _ = max_guessing(both, 2)
    assert size == 4


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
        assert whole == 2 ** k * part


def test_tau_upper_bound(rng):
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 5), loop_p=0.2)
        size, _ = max_guessing(g, 2)
        assert size <= 2 ** transversal_number(g)[0]


def test_subgraph_monotonicity(rng):
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 5), loop_p=0.2)
        kept = [a for a in g.arcs() if rng.random() < 0.7]
        sub = Graph.from_arcs(g.n, kept)
        small, _ = max_guessing(sub, 2)
        large, _ = max_guessing(g, 2)
        assert small <= large


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
        assert before <= 2 ** bin(i_mask).count("1") * after


def test_extend_code_pendant_pair():
    base = GuessingCode(Graph.empty(0), 2, [()])
    out = extend_code(base, Decomposition(Graph.complete(2), 1 << 0, ((1, 0),)))
    assert out.words == ((0, 0), (1, 1))


def test_extend_code_across_union():
    g = disjoint_union(c5(), Graph.complete(2))
    _, pent_code = max_guessing(c5(), 2)

    d = Decomposition(g, 1 << 5, ((6, 5),))
    lifted = extend_code(pent_code, d)
    assert len(lifted.words) == 10
    for i, w in enumerate(lifted.words):
        for x in lifted.words[i + 1:]:
            assert words_compatible(g, 2, w, x)

    four = GuessingCode(c5(), 2, pent_code.words[:4])
    four.validate()
    assert len(extend_code(four, d).words) == 8


def test_extend_code_size_identity(rng):
    cases = 0
    while cases < 40:
        host = random_graph(rng, rng.randint(2, 5))
        d = find_reducible_set(host)
        if d is None:
            continue
        cases += 1
        _, base = max_guessing(d.remainder, 2)
        lifted = extend_code(base, d)
        assert len(lifted.words) == len(base.words) * 2 ** len(d.matching)


def test_isolated_vertex_adds_nothing():
    g = disjoint_union(c5(), Graph.empty(1))
    size, _ = max_guessing(g, 2)
    assert size == 5


def test_guessing_code_refuses_one_symbol_and_no_words():
    with pytest.raises(GraphError):
        GuessingCode(Graph.empty(1), 1, [(0,)])
    with pytest.raises(GraphError):
        GuessingCode(Graph.empty(1), 2, [])


def test_extend_code_refuses_a_code_off_the_remainder():
    g = disjoint_union(c5(), Graph.complete(2))
    d = Decomposition(g, 1 << 5, ((6, 5),))
    _, k2_code = max_guessing(Graph.complete(2), 2)
    with pytest.raises(GraphError):
        extend_code(k2_code, d)
