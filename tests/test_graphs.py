import pytest

from graphentropy import graphs as graphs_module
from graphentropy.bounds import closure_map
from graphentropy.graphs import (
    FormatError,
    Graph,
    GraphError,
    adjacency_bits,
    automorphisms,
    bits_of,
    co_neighborhood_set,
    connected_components,
    graph_from_bits,
    induced_subgraph,
    loops,
    mask_of,
    orbit_representatives,
    parse_graph,
    permute_mask,
    render_graph,
)

from _oracles import (
    all_automorphisms,
    bipartite_edges,
    complement_graph,
    cycles_avoiding,
    disjoint_union,
    i_reduction,
    is_acyclic,
    least_adjacency_bits,
)
from conftest import c5, g1, random_digraph, random_graph, random_looped_graph


def test_constructors():
    assert Graph.cycle(5).edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert len(Graph.complete(4).edges()) == 6
    assert Graph.path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert Graph.empty(3).edges() == []
    assert Graph.cycle(5).is_simple()
    assert not Graph.from_arcs(2, [(0, 1)]).is_simple()


@pytest.mark.parametrize("pair", [(0, 3), (0, -1), (-1, 0)])
def test_constructors_refuse_endpoints_out_of_range(pair):
    with pytest.raises(GraphError, match="out of range"):
        Graph.undirected(3, [pair])
    with pytest.raises(GraphError, match="out of range"):
        Graph.from_arcs(3, [pair])


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


def test_mutual_is_the_two_way_arc_relation(rng):
    for _ in range(50):
        n = rng.randint(0, 8)
        for g in (random_looped_graph(rng, n), random_digraph(rng, n, loop_p=0.3)):
            assert g.mutual == tuple(
                mask_of(v for v in range(n) if v != u and g.has_arc(u, v) and g.has_arc(v, u))
                for u in range(n))
            assert g.edges() == [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if g.has_arc(u, v) and g.has_arc(v, u)]


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


@pytest.mark.parametrize("text, message", [
    ("", "empty graph6 payload"),
    ("D~\x7f", "graph6 byte out of range"),
    ("~??", "truncated graph6 size field"),
    ("D~", "graph6 payload length does not match vertex count"),
    ("D~~", "graph6 padding bits must be zero"),
])
def test_graph6_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_graph(text, "graph6")


def test_graph6_bits_are_the_adjacency_bits(rng):
    """The payload is adjacency_bits, padded to whole bytes, on both sides
    of the one-byte size field's limit."""
    for n in (0, 1, 2, 5, 62, 63, 64):
        g = random_graph(rng, n)
        text = render_graph(g, "graph6")
        assert parse_graph(text) == g == graph_from_bits(n, adjacency_bits(g))
        payload = text[1 if n <= 62 else 4:]
        packed = int("".join(f"{ord(c) - 63:06b}" for c in payload) or "0", 2)
        assert packed == adjacency_bits(g) << (6 * len(payload) - n * (n - 1) // 2)


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
    assert bipartite_edges(c5(), 1 << 0, 1 << 1) == [(0, 1)]
    assert bipartite_edges(c5(), 1 << 0, 1 << 2) == []
    edges = bipartite_edges(g1(), mask_of([5, 6]), mask_of(range(5)))
    assert sorted(edges) == [(5, 0), (5, 1), (6, 3)]


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
    assert least_adjacency_bits(complement_graph(c5())) == least_adjacency_bits(c5())
    assert complement_graph(Graph.complete(3)) == Graph.empty(3)


def test_disjoint_union():
    u = disjoint_union(c5(), Graph.complete(2))
    assert u.n == 7
    assert len(u.edges()) == 6
    assert connected_components(u) == [mask_of(range(5)), mask_of([5, 6])]


def test_components_are_found_once_per_graph(monkeypatch):
    """connected_components searches a graph once and caches the masks on
    it; every call, the first included, hands out a list of its own, so a
    caller that changes one changes no other."""
    g = disjoint_union(c5(), Graph.complete(2))
    reads = []
    real_cols = Graph.cols
    monkeypatch.setattr(Graph, "cols",
                        property(lambda self: reads.append(1) or real_cols.fget(self)))
    first = connected_components(g)
    first.append(0)
    second = connected_components(g)
    assert second == [mask_of(range(5)), mask_of([5, 6])] and second is not first
    assert connected_components(g) is not second
    assert len(reads) == 1


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


def test_orbits_of_the_mask_sets_callers_pass(rng):
    """The orbit minima on the mask sets the library passes, against the
    full group: the closed sets the entropy dual collapses, which are not
    closed under removing a low bit, and single vertices.  A 40-vertex cycle
    shows that only the given masks are touched: single vertices and the
    orbits of a few larger sets, with no table of 2^40 masks."""
    graphs = [random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]))
              for _ in range(60)]
    graphs += [random_digraph(rng, rng.randint(1, 7), rng.choice([0.2, 0.4]), loop_p=0.3)
               for _ in range(60)]
    symmetric = 0
    for g in graphs:
        group = all_automorphisms(g)
        gens = automorphisms(g)
        for masks in (sorted(set(closure_map(g))), [1 << v for v in range(g.n)]):
            assert orbit_representatives(gens, masks) == {
                m: min(permute_mask(p, m) for p in group) for m in masks}, g
        symmetric += len(group) > 1
    assert symmetric > 40
    g = Graph.cycle(40)
    group = all_automorphisms(g)
    assert len(group) == 80
    seeds = [1 << v for v in range(40)] + [rng.randrange(1 << 40) for _ in range(5)]
    masks = {permute_mask(p, m) for p in group for m in seeds}
    assert orbit_representatives(automorphisms(g), masks) == {
        m: min(permute_mask(p, m) for p in group) for m in masks}


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
