import hashlib
import json
import random
import re
import time
from itertools import product

import pytest

from graphentropy import structure
from graphentropy.bounds import entropy_bracket
from graphentropy.enumeration import isomorphism_classes
from graphentropy.graphs import (
    CapExceededError,
    Graph,
    GraphError,
    bits_of,
    induced_subgraph,
    mask_of,
    render_graph,
)
from graphentropy.structure import (
    Decomposition,
    bipartite_max_matching,
    certify_entropy_minimal_candidate,
    find_reducible_set,
    find_saturating_subset,
)

from _oracles import (
    adjacency,
    bipartite_edges,
    bipartite_matching_size,
    brute_matching,
)
from conftest import c5, g1, random_graph


def bipartite_host(a: int, b: int, edges) -> tuple[Graph, int, int]:
    """Host graph on a+b vertices: left 0..a-1, right a..a+b-1."""
    g = Graph.undirected(a + b, [(u, a + v) for u, v in edges])
    return g, mask_of(range(a)), mask_of(range(a, a + b))


def test_bipartite_matching_examples():
    g, left, right = bipartite_host(3, 3, product(range(3), range(3)))
    assert len(bipartite_max_matching(g, left, right)) == 3

    star, left, right = bipartite_host(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert len(bipartite_max_matching(star, left, right)) == 1

    assert len(bipartite_max_matching(g1(), mask_of([5, 6]), mask_of(range(5)))) == 2


def test_bipartite_matching_against_oracle(rng):
    for _ in range(120):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        edges = [(u, v) for u in range(a) for v in range(b) if rng.random() < 0.5]
        g, left, right = bipartite_host(a, b, edges)
        matching = bipartite_max_matching(g, left, right)
        for u, v in matching:
            assert g.has_arc(u, v)
        assert len(matching) == bipartite_matching_size(bipartite_edges(g, left, right))


def test_saturating_witness_examples():
    g, left, right = bipartite_host(1, 1, [(0, 0)])
    assert find_saturating_subset(g, left, right) == (1 << 0, ((0, 1),))

    g, left, right = bipartite_host(5, 3, [(0, 0), (1, 1), (2, 2)])
    _check_witness(g, left, right, *find_saturating_subset(g, left, right))

    g, left, right = bipartite_host(2, 2, [(0, 0), (1, 0)])
    saturated = _check_witness(g, left, right, *find_saturating_subset(g, left, right))
    assert saturated == mask_of([2])


def _check_witness(g, left, right, a_prime, matching) -> int:
    """Revalidate a witness from scratch: nonempty A', matching covers N(A').
    Returns N(A')."""
    assert a_prime and a_prime & left == a_prime
    neighborhood = 0
    for u in bits_of(a_prime):
        neighborhood |= g.rows[u] & right
    covered = 0
    used_left = 0
    for u, v in matching:
        assert g.has_arc(u, v)
        assert a_prime >> u & 1 and neighborhood >> v & 1
        assert not used_left >> u & 1 and not covered >> v & 1
        used_left |= 1 << u
        covered |= 1 << v
    assert covered == neighborhood
    assert list(matching) == sorted(matching)
    return neighborhood


def test_saturating_witness_exhaustive_small():
    for a in range(1, 5):
        for b in range(1, a + 1):
            for bits in range(1, 1 << (a * b)):
                edges = [(u, v) for k, (u, v) in enumerate(product(range(a), range(b)))
                         if bits >> k & 1]
                g, left, right = bipartite_host(a, b, edges)
                _check_witness(g, left, right, *find_saturating_subset(g, left, right))


def test_saturating_witness_rejects_garbage():
    g, left, right = bipartite_host(2, 1, [(0, 0), (1, 0)])
    for a_prime, matching in [
        (0, ()),  # empty A'
        (mask_of([0, 1]), ()),  # N(A') = {2} left unmatched
        (1 << 2, ()),  # A' on the right side, with no right neighbour
        (mask_of([0, 2]), ((0, 2),)),  # A' reaching off the left side
    ]:
        with pytest.raises(GraphError):
            structure._witness(g, left, right, a_prime, matching)
    assert structure._witness(g, left, right, 1 << 0, ((0, 2),)) == (1 << 0, ((0, 2),))


P3 = Graph.path(3)


@pytest.mark.parametrize("g, left, right, says", [
    pytest.param(Graph.from_arcs(2, [(0, 1), (1, 0)]), 1 << 0, 1 << 1, "undirected",
                 id="directed-host"),
    pytest.param(P3, 1 << 0, 1 << 3, "outside the host", id="side-outside-host"),
    pytest.param(P3, mask_of([0, 1]), mask_of([1, 2]), "overlap", id="overlapping-sides"),
    pytest.param(P3, 1 << 1, mask_of([0, 2]), "|left| >= |right|", id="left-smaller"),
    pytest.param(P3, mask_of([0, 1]), 0, "|left| >= |right| >= 1", id="empty-right"),
    pytest.param(Graph.path(4), mask_of([0, 1]), mask_of([3]), "at least one edge",
                 id="no-edge-between-sides"),
])
def test_find_saturating_subset_refuses(g, left, right, says):
    with pytest.raises(GraphError, match=re.escape(says)):
        find_saturating_subset(g, left, right)


def test_bipartite_max_matching_checks_its_sides():
    with pytest.raises(GraphError, match="undirected"):
        bipartite_max_matching(Graph.from_arcs(2, [(0, 1), (1, 0)]), 1 << 0, 1 << 1)
    with pytest.raises(GraphError, match="outside the host"):
        bipartite_max_matching(P3, 1 << 0, 1 << 3)
    with pytest.raises(GraphError, match="overlap"):
        bipartite_max_matching(P3, mask_of([0, 1]), mask_of([1, 2]))


def _witness_matching(matching) -> tuple[tuple[int, int], ...]:
    g, left, right = bipartite_host(2, 2, [(0, 0), (0, 1), (1, 1)])
    return structure._witness(g, left, right, left, matching)[1]


def _decomposition_matching(matching) -> tuple[tuple[int, int], ...]:
    # c(S) of S = {2, 3} is {0, 1}, so the witness's matchings fit here too.
    g, _, right = bipartite_host(2, 2, [(0, 0), (0, 1), (1, 1)])
    return Decomposition(g, right, matching).matching


@pytest.mark.parametrize("build", [_witness_matching, _decomposition_matching],
                         ids=["witness", "decomposition"])
@pytest.mark.parametrize("matching", [
    pytest.param(((0, 3), (1, 2)), id="not-an-edge"),
    pytest.param(((0, 2), (0, 3)), id="shared-left-endpoint"),
    pytest.param(((0, 3), (1, 3)), id="shared-right-endpoint"),
    pytest.param(((2, 0), (1, 3)), id="endpoint-off-its-side"),
    pytest.param(((0, 2),), id="misses-a-target"),
])
def test_tampered_matchings_are_refused(build, matching):
    assert build(((0, 2), (1, 3))) == ((0, 2), (1, 3))
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


def _covers_exactly(adj, pairs, left, right) -> bool:
    """The pairs are disjoint edges from left to right covering all of right."""
    ends = [u for u, _ in pairs] + [v for _, v in pairs]
    return (len(set(ends)) == len(ends) and {v for _, v in pairs} == set(right)
            and all(u in left and v in adj[u] for u, v in pairs))


# sha256 of the minimal-check dicts of test_minimality_dict_follows_its_
# definition's graphs, one json.dumps line each: key order and list order are
# what minimal-check prints.
MINIMALITY_SHA256 = "a78469d49c98e20aa40198ec2bf81bc60b8bff5f2767c27b2d0fe52f32a3207c"


def test_minimality_dict_follows_its_definition():
    """The certificate read from definitions, on every class up to 6
    vertices and the pendant C5: a reducible S takes c(S), the vertices
    outside S with every neighbour in S, and a matching from c(S) onto S;
    M is the vertex set of a maximum matching; c(M), the comparison and the
    saturating witness follow.  15 graphs reach the >= comparison and 12
    carry a saturating witness."""
    graphs = [g for n in range(1, 7) for g in isomorphism_classes(n)]
    graphs.append(Graph.undirected(6, list(c5().edges()) + [(0, 5)]))
    assert len(graphs) == 209
    at_least = witnesses = 0
    lines = []
    for g in graphs:
        got = certify_entropy_minimal_candidate(g)
        g6 = render_graph(g, "graph6")
        adj = adjacency(g)

        def c_of(s):
            return [v for v in range(g.n) if v not in s and adj[v] <= set(s)]

        reducible = got["reducible"]
        assert got["candidate"] == (reducible is None), g6
        if reducible is not None:
            s = reducible["s"]
            assert s and _covers_exactly(adj, reducible["matching"], c_of(s), s), g6
        matched = got["matched_vertices"]
        assert len(matched) == 2 * brute_matching(g), g6
        assert len(matched) == 2 * brute_matching(induced_subgraph(g, mask_of(matched))[0]), g6
        assert got["isolated_vertices"] == [v for v in range(g.n) if not adj[v]], g6
        c = c_of(matched)
        rel = None
        if matched:
            rel = "<" if len(c) < len(matched) else ">="
            assert got["c_of_matched"] == c, g6
            assert got["comparison"] == f"|c(M)| = {len(c)} {rel} |M| = {len(matched)}", g6
            at_least += rel == ">="
        else:
            assert "c_of_matched" not in got and "comparison" not in got, g6
        if rel == ">=" and bipartite_edges(g, mask_of(c), mask_of(matched)):
            a_prime = got["saturating_witness"]["a_prime"]
            covered = sorted({v for u in a_prime for v in adj[u]})
            assert a_prime and set(a_prime) <= set(c), g6
            assert _covers_exactly(adj, got["saturating_witness"]["matching"], a_prime, covered), g6
            witnesses += 1
        else:
            assert "saturating_witness" not in got, g6
        lines.append(json.dumps(got) + "\n")
    assert (at_least, witnesses) == (15, 12)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == MINIMALITY_SHA256


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


def test_minimality_refuses_past_the_matching_cap_before_searching(monkeypatch):
    """Past the matching's fixed component cap, minimal-check is refused
    before a single subset is tried; the not-simple and reduction-cap
    refusals still come first."""
    g = random_graph(random.Random(3), 25)

    def spy(host, s):
        raise AssertionError(f"subset {sorted(bits_of(s))} tried")

    monkeypatch.setattr(structure, "co_neighborhood_set", spy)
    with pytest.raises(CapExceededError, match="component with 25 vertices") as err:
        certify_entropy_minimal_candidate(g, cap=30)
    assert err.value.flag is None
    with pytest.raises(CapExceededError, match="reduction cap 16") as err:
        certify_entropy_minimal_candidate(g)
    assert err.value.flag == "--cap"
    looped = Graph(25, [r | 1 << v for v, r in enumerate(g.rows)], directed=False)
    with pytest.raises(GraphError, match="loopless undirected") as err:
        certify_entropy_minimal_candidate(looped, cap=30)
    assert not isinstance(err.value, CapExceededError)


@pytest.mark.parametrize("p, reducible, report", [
    pytest.param(0.5, None, {
        "candidate": True, "reducible": None,
        "matched_vertices": list(range(16)), "isolated_vertices": [],
        "c_of_matched": [], "comparison": "|c(M)| = 0 < |M| = 16",
    }, id="gnp16-half"),
    pytest.param(0.2, ([7], [(4, 7)], "K?H??aP?BQ_o"), {
        "candidate": False, "reducible": {"s": [7], "matching": [[4, 7]]},
        "matched_vertices": [v for v in range(16) if v not in (0, 4)],
        "isolated_vertices": [0],
        "c_of_matched": [0, 4], "comparison": "|c(M)| = 2 < |M| = 14",
    }, id="gnp16-fifth"),
])
def test_structure_at_the_reduction_cap(p, reducible, report):
    """At the 16-vertex reduction cap: G(16, 1/2) has no reducible set, so
    both calls sweep all 2**16 subsets; G(16, 0.2) reduces at its first
    singleton.  Each call finishes within 2 s."""
    g = random_graph(random.Random(0), 16, p)
    start = time.perf_counter()
    d = find_reducible_set(g)
    assert time.perf_counter() - start < 2.0
    if reducible is None:
        assert d is None
    else:
        s, matching, remainder = reducible
        assert (sorted(bits_of(d.s)), list(d.matching)) == (s, matching)
        assert render_graph(d.remainder, "graph6") == remainder
    start = time.perf_counter()
    assert certify_entropy_minimal_candidate(g) == report
    assert time.perf_counter() - start < 2.0
