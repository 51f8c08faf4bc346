import pytest

from graphentropy import graphs as graphs_module
from graphentropy.graphs import (
    BipartiteView,
    Graph,
    GraphError,
    automorphisms,
    bits_of,
    co_neighborhood_set,
    complement,
    connected_components,
    disjoint_union,
    i_reduction,
    induced_subgraph,
    is_acyclic,
    loops,
    mask_of,
    orbit_representatives,
    parse_graph,
    permute_mask,
    render_graph,
)

from _oracles import all_automorphisms, cycles_avoiding, i_reduction_oracle, perm_class_key
from conftest import c5, g1, random_digraph, random_graph


def test_constructors():
    assert Graph.cycle(5).edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert len(Graph.complete(4).edges()) == 6
    assert Graph.path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert Graph.empty(3).edges() == []
    assert Graph.cycle(5).is_simple()
    assert not Graph.from_arcs(2, [(0, 1)]).is_simple()


def test_one_way_arc_message_names_first_arc():
    """The first one-way arc is named: least tail, then least head."""
    # Arcs 1->3 and 2->0 have no reverse; 0-1 is an edge and 0 has a loop.
    with pytest.raises(GraphError, match=r"one-way arc 1->3$"):
        Graph(4, [0b0011, 0b1001, 0b0001, 0b0000], directed=False)
    # Two one-way arcs out of vertex 1.
    with pytest.raises(GraphError, match=r"one-way arc 1->2$"):
        Graph(4, [0b0010, 0b1101, 0b0000, 0b0000], directed=False)


def test_cols_are_the_transposed_rows(rng):
    for _ in range(50):
        n = rng.randint(0, 8)
        for g in (random_graph(rng, n), random_digraph(rng, n, loop_p=0.3)):
            assert g.cols == tuple(
                mask_of(u for u in range(n) if g.rows[u] >> v & 1) for v in range(n))


def test_parse_edge_list_is_pentagon():
    assert parse_graph("5; 1-2,2-3,3-4,4-5,5-1") == Graph.cycle(5)


def test_parse_arc_list_loop():
    g = parse_graph("3; 1->1,1->2")
    assert g.has_arc(0, 0)
    assert loops(g) == 1


def test_graph6_round_trip_fixed():
    g = parse_graph("D~{")
    assert g.n == 5
    assert render_graph(g, "graph6") == "D~{"


def test_round_trips_random(rng):
    for _ in range(100):
        n = rng.randint(1, 12)
        g = random_graph(rng, n)
        assert parse_graph(render_graph(g, "graph6"), "graph6") == g
        d = random_digraph(rng, n, loop_p=0.2)
        assert parse_graph(render_graph(d, "arc-list"), "arc-list") == d
        assert parse_graph(render_graph(g, "graph6")) == g


def test_induced_subgraph_examples():
    sub, verts = induced_subgraph(c5(), mask_of(range(5)))
    assert sub == c5() and verts == (0, 1, 2, 3, 4)
    path, _ = induced_subgraph(c5(), mask_of([0, 1, 2]))
    assert path == Graph.path(3)
    pent, verts = induced_subgraph(g1(), mask_of(range(5)))
    assert pent == c5() and verts == (0, 1, 2, 3, 4)


def test_bipartite_view_examples():
    assert BipartiteView(c5(), 1 << 0, 1 << 1).edges() == [(0, 1)]
    assert BipartiteView(c5(), 1 << 0, 1 << 2).edges() == []
    view = BipartiteView(g1(), mask_of([5, 6]), mask_of(range(5)))
    assert sorted(view.edges()) == [(5, 0), (5, 1), (6, 3)]
    assert view.edge_count() == 3


def test_bipartite_edge_count_identity(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 9))
        verts = list(range(g.n))
        rng.shuffle(verts)
        cut = rng.randint(1, g.n - 1)
        s, t = mask_of(verts[:cut]), mask_of(verts[cut:])
        inner_s, _ = induced_subgraph(g, s)
        inner_t, _ = induced_subgraph(g, t)
        whole, _ = induced_subgraph(g, s | t)
        crossing = BipartiteView(g, s, t).edge_count()
        assert crossing + len(inner_s.edges()) + len(inner_t.edges()) == len(whole.edges())


def test_co_neighborhood_examples():
    star = Graph.undirected(4, [(0, 1), (0, 2), (0, 3)])
    assert co_neighborhood_set(star, 1 << 0) == mask_of([1, 2, 3])
    assert co_neighborhood_set(c5(), 1 << 1) == 0
    assert co_neighborhood_set(g1(), mask_of([0, 2])) & ~(1 << 1) == 0
    assert co_neighborhood_set(g1(), mask_of([0, 2, 5])) == 1 << 1
    with pytest.raises(GraphError):
        co_neighborhood_set(c5(), 0)


def test_co_neighborhood_always_independent(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8))
        s = rng.randrange(1, 1 << g.n)
        c = co_neighborhood_set(g, s)
        for u in bits_of(c):
            assert g.rows[u] & c == 0


def test_i_reduction_examples():
    chain = Graph.from_arcs(3, [(0, 1), (1, 2)])
    reduced, verts = i_reduction(chain, 1 << 1)
    assert verts == (0, 2)
    assert reduced.arcs() == [(0, 1)]

    same, verts = i_reduction(chain, 0)
    assert same == chain and verts == (0, 1, 2)

    sym = Graph.from_arcs(5, [(u, v) for u, v in Graph.cycle(5).edges()]
                          + [(v, u) for u, v in Graph.cycle(5).edges()])
    reduced, verts = i_reduction(sym, 1 << 0)
    assert verts == (1, 2, 3, 4)
    old = {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)}
    added = {(1, 4), (4, 1)}
    walks_back = {(1, 1), (4, 4)}
    expect = {(verts.index(u), verts.index(v)) for u, v in old | added | walks_back}
    assert set(reduced.arcs()) == expect


def test_i_reduction_rejects_cyclic_interior():
    two_cycle = Graph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(GraphError):
        i_reduction(two_cycle, mask_of([0, 1]))


def test_i_reduction_matches_oracle(rng):
    for _ in range(150):
        n = rng.randint(1, 6)
        g = random_digraph(rng, n, loop_p=0.15)
        candidates = [v for v in range(n)]
        rng.shuffle(candidates)
        i_mask = 0
        for v in candidates[: rng.randint(0, n - 1) if n > 1 else 0]:
            trial = i_mask | 1 << v
            inner, _ = induced_subgraph(g, trial)
            if is_acyclic(inner):
                i_mask = trial
        reduced, verts = i_reduction(g, i_mask)
        size, arcs = i_reduction_oracle(g, set(bits_of(i_mask)))
        assert reduced.n == size
        assert set(reduced.arcs()) == arcs


def test_i_reduction_preserves_disjoint_cycles(rng):
    for _ in range(150):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n, loop_p=0.15)
        acyclic_sets = []
        for mask in range(1 << n):
            inner, _ = induced_subgraph(g, mask)
            if is_acyclic(inner):
                acyclic_sets.append(mask)
        i_mask = rng.choice(acyclic_sets)
        reduced, verts = i_reduction(g, i_mask)
        before = cycles_avoiding(g, set(bits_of(i_mask)))
        after = cycles_avoiding(reduced, set())
        relabel = {v: k for k, v in enumerate(verts)}
        for cyc in before:
            assert frozenset(relabel[v] for v in cyc) in after


def test_loops_and_complement():
    assert loops(c5()) == 0
    assert loops(Graph.from_arcs(2, [(0, 0), (0, 1), (1, 0)])) == 1 << 0
    assert perm_class_key(complement(c5())) == perm_class_key(c5())
    assert complement(Graph.complete(3)) == Graph.empty(3)


def test_disjoint_union():
    u = disjoint_union(c5(), Graph.complete(2))
    assert u.n == 7
    assert len(u.edges()) == 6
    assert connected_components(u) == [mask_of(range(5)), mask_of([5, 6])]


def _generated_group(gens, n: int) -> set[tuple[int, ...]]:
    """Every product of the generators, the identity included."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        a = todo.pop()
        for p in gens:
            b = tuple(p[a[v]] for v in range(n))
            if b not in group:
                group.add(b)
                todo.append(b)
    return group


def test_automorphisms_pentagon():
    assert len(_generated_group(automorphisms(c5()), 5)) == 10


def test_strong_generators_match_full_enumeration(rng):
    """The generators give exactly the group the full listing finds, and
    the orbit minima of every vertex set agree with it."""
    graphs = [random_graph(rng, rng.randint(0, 7), rng.choice([0.2, 0.5, 0.8]))
              for _ in range(150)]
    graphs += [random_digraph(rng, rng.randint(1, 7), rng.choice([0.2, 0.4]), loop_p=0.3)
               for _ in range(150)]
    symmetric = 0
    for g in graphs:
        group = all_automorphisms(g)
        gens = automorphisms(g)
        assert _generated_group(gens, g.n) == set(group), g
        rep = orbit_representatives(gens, range(1 << g.n))
        assert rep == {m: min(permute_mask(p, m) for p in group) for m in range(1 << g.n)}, g
        symmetric += len(group) > 1
    assert symmetric > 100


def test_permute_mask_matches_bit_walk(rng):
    """The inlined low-bit loop gives the image the bits_of walk gave."""
    for _ in range(300):
        n = rng.randint(0, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        for mask in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(20)]:
            image = 0
            for v in bits_of(mask):
                image |= 1 << perm[v]
            assert permute_mask(perm, mask) == image, (perm, mask)


def test_automorphisms_rejects_a_wrong_generator(monkeypatch):
    """A search that returned a non-automorphism is caught before any orbit
    is read off it."""
    monkeypatch.setattr(graphs_module, "_automorphism_sending",
                        lambda g, sig, i, w: (1, 0) + tuple(range(2, g.n)))
    with pytest.raises(AssertionError, match="not an automorphism"):
        automorphisms(Graph.path(4))


def test_is_acyclic():
    assert is_acyclic(Graph.from_arcs(3, [(0, 1), (1, 2)]))
    assert not is_acyclic(Graph.from_arcs(2, [(0, 1), (1, 0)]))
    assert not is_acyclic(Graph.from_arcs(1, [(0, 0)]))
