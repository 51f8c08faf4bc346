import json
from itertools import product

import pytest

from graphentropy.bounds import entropy_bracket
from graphentropy.enumeration import isomorphism_classes
from graphentropy.graphs import (
    BipartiteView,
    Graph,
    GraphError,
    bits_of,
    mask_of,
    render_graph,
)
from graphentropy.structure import (
    Decomposition,
    SaturatingWitness,
    bipartite_max_matching,
    certify_entropy_minimal_candidate,
    find_reducible_set,
    find_saturating_subset,
)

from _oracles import (
    bipartite_edges,
    bipartite_matching_size,
    previous_certify_entropy_minimal_candidate,
)
from conftest import c5, g1, random_graph


def bipartite_host(a: int, b: int, edges) -> tuple[Graph, int, int]:
    """Host graph on a+b vertices: left 0..a-1, right a..a+b-1."""
    g = Graph.undirected(a + b, [(u, a + v) for u, v in edges])
    return g, mask_of(range(a)), mask_of(range(a, a + b))


def test_bipartite_matching_examples():
    g, left, right = bipartite_host(3, 3, product(range(3), range(3)))
    assert len(bipartite_max_matching(BipartiteView(g, left, right))) == 3

    star, left, right = bipartite_host(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert len(bipartite_max_matching(BipartiteView(star, left, right))) == 1

    view = BipartiteView(g1(), mask_of([5, 6]), mask_of(range(5)))
    assert len(bipartite_max_matching(view)) == 2


def test_bipartite_matching_against_oracle(rng):
    for _ in range(120):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        edges = [(u, v) for u in range(a) for v in range(b) if rng.random() < 0.5]
        g, left, right = bipartite_host(a, b, edges)
        view = BipartiteView(g, left, right)
        matching = bipartite_max_matching(view)
        for u, v in matching:
            assert g.has_arc(u, v)
        assert len(matching) == bipartite_matching_size(bipartite_edges(view))


def test_saturating_witness_examples():
    g, left, right = bipartite_host(1, 1, [(0, 0)])
    w = find_saturating_subset(BipartiteView(g, left, right))
    assert w.a_prime == 1 << 0
    assert w.matching == ((0, 1),)

    g, left, right = bipartite_host(5, 3, [(0, 0), (1, 1), (2, 2)])
    w = find_saturating_subset(BipartiteView(g, left, right))
    _check_witness(g, left, right, w)

    g, left, right = bipartite_host(2, 2, [(0, 0), (1, 0)])
    w = find_saturating_subset(BipartiteView(g, left, right))
    _check_witness(g, left, right, w)
    assert w.saturated == mask_of([2])


def _check_witness(g, left, right, w):
    """Revalidate a witness from scratch: nonempty A', matching covers N(A')."""
    assert w.a_prime and w.a_prime & left == w.a_prime
    neighborhood = 0
    for u in bits_of(w.a_prime):
        neighborhood |= g.rows[u] & right
    assert w.saturated == neighborhood
    covered = 0
    used_left = 0
    for u, v in w.matching:
        assert g.has_arc(u, v)
        assert w.a_prime >> u & 1 and neighborhood >> v & 1
        assert not used_left >> u & 1 and not covered >> v & 1
        used_left |= 1 << u
        covered |= 1 << v
    assert covered == neighborhood


def test_saturating_witness_exhaustive_small():
    for a in range(1, 5):
        for b in range(1, a + 1):
            for bits in range(1, 1 << (a * b)):
                edges = [(u, v) for k, (u, v) in enumerate(product(range(a), range(b)))
                         if bits >> k & 1]
                g, left, right = bipartite_host(a, b, edges)
                w = find_saturating_subset(BipartiteView(g, left, right))
                _check_witness(g, left, right, w)


def test_saturating_witness_rejects_garbage():
    g, left, right = bipartite_host(2, 1, [(0, 0), (1, 0)])
    view = BipartiteView(g, left, right)
    with pytest.raises(GraphError):
        SaturatingWitness(view, 0, ())
    with pytest.raises(GraphError):
        SaturatingWitness(view, mask_of([0, 1]), ())


def _witness(matching) -> SaturatingWitness:
    g, left, right = bipartite_host(2, 2, [(0, 0), (0, 1), (1, 1)])
    return SaturatingWitness(BipartiteView(g, left, right), left, matching)


def _decomposition(matching) -> Decomposition:
    # c(S) of S = {2, 3} is {0, 1}, so the witness's matchings fit here too.
    g, _, right = bipartite_host(2, 2, [(0, 0), (0, 1), (1, 1)])
    return Decomposition(g, right, matching)


@pytest.mark.parametrize("build", [_witness, _decomposition], ids=["witness", "decomposition"])
@pytest.mark.parametrize("matching", [
    pytest.param(((0, 3), (1, 2)), id="not-an-edge"),
    pytest.param(((0, 2), (0, 3)), id="shared-left-endpoint"),
    pytest.param(((0, 3), (1, 3)), id="shared-right-endpoint"),
    pytest.param(((2, 0), (1, 3)), id="endpoint-off-its-side"),
    pytest.param(((0, 2),), id="misses-a-target"),
])
def test_tampered_matchings_are_refused(build, matching):
    assert build(((0, 2), (1, 3))).matching == ((0, 2), (1, 3))
    with pytest.raises(GraphError):
        build(matching)


def test_find_reducible_examples():
    d = find_reducible_set(Graph.complete(2))
    assert d is not None
    assert bin(d.s).count("1") == 1 and len(d.matching) == 1

    assert find_reducible_set(c5()) is None

    pendant = Graph.undirected(6, list(c5().edges()) + [(0, 5)])
    d = find_reducible_set(pendant)
    assert d is not None
    assert d.s == 1 << 0
    assert d.c_s == 1 << 5
    assert d.remainder == Graph.path(4)


def test_minimality_reports():
    report = certify_entropy_minimal_candidate(c5())
    assert report["candidate"]
    assert len(report["matched_vertices"]) == 4
    assert report["c_of_matched"] == [] or len(report["c_of_matched"]) == 1
    assert "<" in report["comparison"]

    assert certify_entropy_minimal_candidate(g1())["candidate"]

    pendant = Graph.undirected(6, list(c5().edges()) + [(0, 5)])
    assert not certify_entropy_minimal_candidate(pendant)["candidate"]


def test_minimality_dict_matches_previous_report():
    """The certificate is the previous report's as_dict(), key order
    included, on every class up to 6 vertices and the pendant C5; 15 of them
    reach the >= comparison and 12 carry a saturating witness."""
    graphs = [g for n in range(1, 7) for g in isomorphism_classes(n)]
    graphs.append(Graph.undirected(6, list(c5().edges()) + [(0, 5)]))
    assert len(graphs) == 209
    at_least = witnesses = 0
    for g in graphs:
        got = certify_entropy_minimal_candidate(g)
        want = previous_certify_entropy_minimal_candidate(g).as_dict()
        assert got == want, render_graph(g, "graph6")
        assert json.dumps(got) == json.dumps(want), render_graph(g, "graph6")
        at_least += ">=" in got.get("comparison", "")
        witnesses += "saturating_witness" in got
    assert (at_least, witnesses) == (15, 12)


def test_minimality_disqualifier_when_c_of_m_large():
    path = Graph.path(4)
    report = certify_entropy_minimal_candidate(path)
    assert not report["candidate"]


def test_decomposition_identity_all_n6():
    for n in range(1, 7):
        for g in isomorphism_classes(n):
            d = find_reducible_set(g)
            if d is None:
                continue
            whole = entropy_bracket(g)
            part = entropy_bracket(d.remainder)
            k = bin(d.s).count("1")
            if whole.exact and part.exact:
                assert whole.lower == k + part.lower


def test_reducible_set_never_tightens_the_bracket():
    """For a reducible set S with remainder R, the lazy bracket of G already
    lies inside |S| + bracket(R) on both sides, which is why the survey
    needs no decomposition fallback.  Up to six vertices the eager theta
    and tau obey the same inequality."""
    checked = 0
    for n in range(1, 8):
        for g in isomorphism_classes(n):
            d = find_reducible_set(g)
            if d is None:
                continue
            checked += 1
            k = d.s.bit_count()
            whole = entropy_bracket(g, lazy_theta=True)
            part = entropy_bracket(d.remainder, lazy_theta=True)
            assert whole.lower >= k + part.lower, render_graph(g, "graph6")
            assert whole.upper <= k + part.upper, render_graph(g, "graph6")
            if n <= 6:
                eager, rest = entropy_bracket(g), entropy_bracket(d.remainder)
                assert eager.theta <= k + rest.theta, render_graph(g, "graph6")
                assert eager.tau <= k + rest.tau, render_graph(g, "graph6")
    assert checked == 717


def test_reducible_set_matching_is_valid(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        d = find_reducible_set(g)
        if d is None:
            continue
        assert d.host == g
        used = 0
        for c, s in d.matching:
            assert g.has_arc(c, s)
            assert d.c_s >> c & 1 and d.s >> s & 1
            assert not used & (1 << c | 1 << s)
            used |= 1 << c | 1 << s
        assert {s for _, s in d.matching} == set(bits_of(d.s))
