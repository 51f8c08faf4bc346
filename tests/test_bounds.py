import hashlib
import random
import sys
import time

import networkx as nx
import pytest

from graphentropy import bounds, rationals
from graphentropy import lp as lp_module
from graphentropy.bounds import (
    _elemental_table,
    _entropy_dual,
    _largest_independent_set,
    _shannon_rows,
    build_fractional_cover_lp,
    check_clique_cover,
    build_shannon_lp,
    clique_cover_number,
    closure_map,
    entropy_bracket,
    fractional_clique_cover_number,
    max_matching,
    maximal_cliques,
    shannon_entropy,
    transversal_number,
    validate_entropy_function,
)
from graphentropy.enumeration import enumerate_graphs, g_family, isomorphism_classes
from graphentropy.graphs import (
    CapExceededError,
    Graph,
    automorphisms,
    bits_of,
    connected_components,
    induced_subgraph,
    loops,
    mask_of,
    orbit_representatives,
    parse_graph,
    render_graph,
)
from graphentropy.lp import solve
from graphentropy.rationals import rat, rat_str

from _oracles import (
    brute_matching,
    brute_transversal,
    chromatic_number,
    complement_graph,
    disjoint_union,
    exhaustive_entropy_check,
    is_acyclic,
    max_independent_set,
)
from conftest import c5, count_calls, g1, random_digraph, random_graph, random_looped_graph


def test_matching_examples():
    assert max_matching(c5())[0] == 2
    assert max_matching(Graph.complete(2))[0] == 1
    assert max_matching(g1())[0] == 3


def test_matching_result_is_valid_and_maximum(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        size, edges = max_matching(g)
        seen = 0
        for u, v in edges:
            assert g.has_arc(u, v) and g.has_arc(v, u)
            assert not seen & (1 << u | 1 << v)
            seen |= 1 << u | 1 << v
        assert size == len(edges) == brute_matching(g)


def test_maximal_cliques_examples():
    assert maximal_cliques(Graph.complete(3)) == (mask_of([0, 1, 2]),)
    pent = maximal_cliques(c5())
    assert len(pent) == 5
    assert all(bin(c).count("1") == 2 for c in pent)
    assert mask_of([0, 1, 5]) in maximal_cliques(g1())


def test_clique_cover_examples():
    for n in range(1, 6):
        assert clique_cover_number(Graph.complete(n))[0] == 1
    assert clique_cover_number(c5())[0] == 3


def test_clique_cover_matches_complement_coloring(rng):
    for n in range(1, 7):
        for g in isomorphism_classes(n):
            assert clique_cover_number(g)[0] == chromatic_number(complement_graph(g))


def _kappa_f(g):
    return fractional_clique_cover_number(g, clique_cover_number(g)[1], max_independent_set(g))


def test_fractional_cover_examples():
    value, cliques, weights, _ = _kappa_f(c5())
    assert value == rat("5/2")
    check_clique_cover(c5(), cliques, weights)
    assert _kappa_f(Graph.complete(4))[0] == 1
    assert _kappa_f(g1())[0] == rat("10/3")
    assert fractional_clique_cover_number(Graph.empty(0), (), 0) == (0, (), (), ())
    # All five edges cover C5 but not minimally; the LP decides, at its
    # unique optimum of weight 1/2 per edge.
    edges = maximal_cliques(c5())
    pair = mask_of([0, 2])
    assert fractional_clique_cover_number(c5(), edges, pair) == (
        rat("5/2"), edges, (rat("1/2"),) * 5, (rat("1/2"),) * 5)
    # Two members, as many as the independent set, one not a clique.
    with pytest.raises(ValueError, match=r"\[0, 1, 2\] is not a clique"):
        fractional_clique_cover_number(c5(), (mask_of([0, 1, 2]), mask_of([3, 4])), pair)
    # The unit-weight answer on P4, {0, 3} independent: its cover with a
    # clique dropped, or with a member that is not a clique, is refused.
    p4, ends = Graph.path(4), mask_of([0, 3])
    assert fractional_clique_cover_number(p4, (mask_of([0, 1]), mask_of([2, 3])), ends) == (
        2, (mask_of([0, 1]), mask_of([2, 3])), (1, 1), (1, 0, 0, 1))
    with pytest.raises(ValueError, match="vertex 2 covered only to level 0"):
        fractional_clique_cover_number(p4, (mask_of([0, 1]),), 1)
    with pytest.raises(ValueError, match=r"\[1, 3\] is not a clique"):
        fractional_clique_cover_number(p4, (mask_of([0, 1]), mask_of([1, 3])), ends)
    # The dual half is checked whichever branch runs.
    for cover in (edges, clique_cover_number(c5())[1]):
        with pytest.raises(ValueError, match=r"\[0, 1\] is not an independent set"):
            fractional_clique_cover_number(c5(), cover, mask_of([0, 1]))
    with pytest.raises(ValueError, match="not an independent set"):
        fractional_clique_cover_number(c5(), edges, 1 << 5)
    with pytest.raises(ValueError, match="negative clique weight"):
        check_clique_cover(c5(), edges, (1, 1, 1, 1, -1))
    with pytest.raises(ValueError, match="vertex 0 covered only to level 1/2"):
        check_clique_cover(c5(), edges, (rat("1/4"), 1, 1, rat("1/4"), 1))


def _lp_kappa_f(g):
    return solve(build_fractional_cover_lp(g)[0]).objective


def _packing_holds(g, packing) -> bool:
    """Every maximal clique of g at total packing weight at most one."""
    return all(y >= 0 for y in packing) and all(
        sum(packing[v] for v in range(g.n) if c >> v & 1) <= 1 for c in maximal_cliques(g))


def test_deletion_pair_matches_the_cover_lp(monkeypatch):
    """For every vertex v of every connected class up to 7 vertices, the
    optimal pair of g - v lifts exactly where v's cliques inside N(v) weigh
    at least one.  Where it lifts, both halves pass on g (the cover through
    check_clique_cover, the packing against every maximal clique), and
    fractional_clique_cover_number takes kappa_f from them, with no LP, at
    the covering LP's value."""
    solves = count_calls(monkeypatch, bounds, "solve")
    lifted = 0
    for g in enumerate_graphs(7, connected_only=True):
        g6 = render_graph(g, "graph6")
        kappa_f = None
        for v in range(g.n):
            less, verts = induced_subgraph(g, g.vertex_mask & ~(1 << v))
            pair = _kappa_f(less)[1:]
            leaf = bytes(g.n - 1 if k == v else verts.index(k) for k in range(g.n))
            cliques, weights, _ = pair
            level = sum(w for c, w in zip(cliques, weights)
                        if all(g.has_arc(v, verts[u]) for u in range(less.n) if c >> u & 1))
            got = bounds.deletion_pair(g, leaf, pair)
            assert (got is not None) == (level >= 1), (g6, v)
            if got is None:
                continue
            lifted += 1
            (cover, cover_weights), packing = got
            check_clique_cover(g, cover, cover_weights)
            assert _packing_holds(g, packing), (g6, v)
            if kappa_f is None:
                kappa_f = _lp_kappa_f(g)
            before = len(solves)
            value, _, _, _ = fractional_clique_cover_number(g, *got)
            assert len(solves) == before, (g6, v)
            assert value == sum(cover_weights) == sum(packing) == kappa_f, (g6, v)
    assert lifted == 3124, lifted


def test_tampered_deletion_pair_is_refused():
    """A pentagon with an apex on three consecutive rim vertices, lifted
    from the pentagon's pair.  Moving weight off a clique inside N(apex),
    or raising a packing entry on N(apex) or the apex, is refused; so is a
    pentagon pair whose cliques inside N(apex) weigh less than one, which
    deletion_pair declines to lift."""
    pentagon = c5()
    pair = _kappa_f(pentagon)[1:]
    leaf = bytes(range(6))
    g = Graph.undirected(6, pentagon.edges() + [(0, 5), (1, 5), (2, 5)])
    (cliques, weights), packing = bounds.deletion_pair(g, leaf, pair)
    assert fractional_clique_cover_number(g, (cliques, weights), packing)[0] == rat("5/2")
    inside = [i for i, c in enumerate(cliques) if c >> 5 & 1]
    assert [list(bits_of(cliques[i])) for i in inside] == [[0, 1, 5], [1, 2, 5]]
    moved = list(weights.ints)
    outside = next(i for i in range(len(cliques)) if i not in inside)
    moved[outside] += moved[inside[0]]
    moved[inside[0]] = 0
    with pytest.raises(ValueError, match="covered only to level 1/2"):
        fractional_clique_cover_number(g, (cliques, rationals.Scaled(moved, weights.den)),
                                       packing)
    for v in (1, 5):
        raised = list(packing.ints)
        raised[v] += packing.den // 2
        with pytest.raises(ValueError, match="has packing weight 3/2"):
            fractional_clique_cover_number(g, (cliques, weights),
                                           rationals.Scaled(raised, packing.den))
    negative = list(packing.ints)
    negative[5] = -1
    with pytest.raises(ValueError, match="negative packing weight"):
        fractional_clique_cover_number(g, (cliques, weights),
                                       rationals.Scaled(negative, packing.den))
    # Weight moved off the pentagon's edge {0, 1} onto {2, 3}: the apex
    # then sits at level 1/2, so nothing lifts, and a cover lifted anyway
    # is refused on g.
    edges, edge_weights, edge_packing = pair
    shifted = list(edge_weights.ints)
    shifted[edges.index(mask_of([2, 3]))] += shifted[edges.index(mask_of([0, 1]))]
    shifted[edges.index(mask_of([0, 1]))] = 0
    short = (edges, rationals.Scaled(shifted, edge_weights.den), edge_packing)
    assert bounds.deletion_pair(g, leaf, short) is None
    forced = tuple(c | 1 << 5 if c in (mask_of([0, 1]), mask_of([1, 2])) else c for c in edges)
    with pytest.raises(ValueError, match="covered only to level 1/2"):
        fractional_clique_cover_number(g, (forced, short[1]), packing)


def test_fractional_cover_shortcut_matches_lp(monkeypatch, rng):
    """The value certified by an independent set of size cc equals the
    covering LP's optimum, and so does the LP path's, on graphs and looped
    digraphs; both paths must run."""
    solves = []
    real_solve = bounds.solve

    def counting_solve(lp):
        solves.append(1)
        return real_solve(lp)

    monkeypatch.setattr(bounds, "solve", counting_solve)
    graphs = [g for n in range(1, 7) for g in isomorphism_classes(n)]
    graphs += [random_graph(rng, 7) for _ in range(60)]
    graphs += [random_digraph(rng, rng.randint(1, 6), loop_p=0.3) for _ in range(80)]
    paths = {"shortcut": 0, "lp": 0}
    for g in graphs:
        before = len(solves)
        value, cliques, weights, _ = _kappa_f(g)
        paths["lp" if len(solves) > before else "shortcut"] += 1
        assert value == _lp_kappa_f(g), g
        check_clique_cover(g, cliques, weights)
        assert sum(weights) == value
    assert paths["shortcut"] and paths["lp"], paths


# sha256 of one line per connected class on up to 7 vertices whose fractional
# cover the covering LP decides (the independent-set shortcut closes all the
# others): its graph6, then clique:weight pairs.  These are the 37 covering
# LPs that `verify --suite theorem2` solves where no deletion pair lifts (17
# of them still run there), and each weight vector is the vertex its
# proposed basis selects, so the digest pins those bases.  Each
# vector is also checked as a cover of the LP's optimal value, so a change of
# digest means a move to another optimal vertex, not a wrong answer.
COVER_WEIGHTS_SHA256 = "ab975a700db6baa3cb3a4b9d0377e9178ea19a4509ee9d0aa32db4c7845124ec"


def test_cover_lp_weights_pinned(monkeypatch):
    solves = []
    real_solve = bounds.solve

    def counting_solve(lp):
        solves.append(1)
        return real_solve(lp)

    monkeypatch.setattr(bounds, "solve", counting_solve)
    lines = []
    for g in enumerate_graphs(7, connected_only=True):
        before = len(solves)
        value, cliques, weights, _ = _kappa_f(g)
        if len(solves) > before:
            check_clique_cover(g, cliques, weights)
            assert sum(weights) == value == _lp_kappa_f(g), render_graph(g, "graph6")
            pairs = " ".join(f"{c}:{rat_str(w)}" for c, w in zip(cliques, weights))
            lines.append(f"{render_graph(g, 'graph6')} {pairs}\n")
    assert len(lines) == 37
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == COVER_WEIGHTS_SHA256


# sha256 of one line per connected class on up to 7 vertices, in enumeration
# order: its graph6, the matching edges, the clique cover, the transversal
# mask and the maximal cliques.  bounds prints the first three as witnesses,
# and each is one of several optimal choices, picked by the search order
# (lowest vertex matched first, the cover's branch order, the vertex cover's
# branch vertex).
WITNESSES_SHA256 = "84e095eaa07a58eb3939758de6dbb73e9b395785f44aefc28d6d5e5ee7f91bcf"


def test_combinatorial_witnesses_pinned():
    lines = [f"{render_graph(g, 'graph6')} {max_matching(g)[1]} {clique_cover_number(g)[1]} "
             f"{transversal_number(g)[1]} {maximal_cliques(g)}\n"
             for g in enumerate_graphs(7, connected_only=True)]
    assert len(lines) == 996
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == WITNESSES_SHA256


def test_cover_lower_bound_is_hereditary():
    """L = n - kappa_f, from the cover and independent set the bracket hands
    fractional_clique_cover_number, never grows when a vertex is deleted:
    kappa_f(G) <= kappa_f(G - v) + 1, as any cover of G - v plus the clique
    {v} covers G.  So the graphs with L <= 4 are closed under deletion."""
    def lower(g: Graph):
        independent = g.vertex_mask & ~transversal_number(g)[1]
        return g.n - fractional_clique_cover_number(g, clique_cover_number(g)[1], independent)[0]

    checks = 0
    for n in range(1, 8):
        for g in isomorphism_classes(n):
            whole = lower(g)
            for v in range(n):
                assert lower(induced_subgraph(g, g.vertex_mask & ~(1 << v))[0]) <= whole, (g, v)
                checks += 1
    assert checks == 8475


def test_deleting_a_vertex_lowers_theta_and_tau_by_at_most_one(rng):
    """The step behind the survey's vertex-deletion witness, at every vertex
    of seeded random graphs and digraphs on 2 to 6 vertices.  Conditioning
    an optimal h of G on X_v, h'(S) = h(S + v) - h(v), passes every row of
    G - v's program with h'(V - v) >= theta(G) - 1, so theta(G) <=
    theta(G - v) + 1; and tau(G) <= tau(G - v) + 1."""
    graphs = [random_graph(rng, rng.randint(2, 6)) for _ in range(20)]
    graphs += [random_digraph(rng, rng.randint(2, 6)) for _ in range(20)]
    for g in graphs:
        theta, h = shannon_entropy(g)
        tau = transversal_number(g)[0]
        for v in range(g.n):
            bit = 1 << v
            sub, kept = induced_subgraph(g, g.vertex_mask & ~bit)
            host = [mask_of(kept[i] for i in range(sub.n) if s >> i & 1)
                    for s in range(sub.vertex_mask + 1)]
            k = h.ints
            conditioned = rationals.Scaled([k[m | bit] - k[bit] for m in host], h.den)
            assert validate_entropy_function(sub, conditioned) == (True, "ok"), (g, v)
            assert conditioned[sub.vertex_mask] >= theta - 1, (g, v)
            assert theta <= shannon_entropy(sub)[0] + 1, (g, v)
            assert tau <= transversal_number(sub)[0] + 1, (g, v)


def test_transversal_examples():
    assert transversal_number(c5())[0] == 3
    assert transversal_number(Graph.cycle(7))[0] == 4
    for n in range(2, 8):
        assert transversal_number(Graph.path(n))[0] == n // 2


def test_transversal_matches_oracle(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6))
        assert transversal_number(g)[0] == brute_transversal(g)
    for _ in range(60):
        d = random_digraph(rng, rng.randint(1, 5), loop_p=0.2)
        size, mask = transversal_number(d)
        assert size == brute_transversal(d)
        assert size == bin(mask).count("1")
    for _ in range(60):
        g = random_looped_graph(rng, rng.randint(1, 7))
        size, mask = transversal_number(g)
        assert size == brute_transversal(g) == mask.bit_count()
        assert not loops(g) & ~mask
        assert all(mask >> u & 1 or mask >> v & 1 for u, v in g.edges())


# sha256 of the feedback vertex sets of test_feedback_vertex_set_is_minimum's
# digraphs, one "size mask" line each.  bounds prints a digraph's set as
# tau's witness, and the order in which the search meets cycles picks which
# minimum set that is.
FEEDBACK_SETS_SHA256 = "220e87fe104d8d797e0c7de661a4d3e061c224ed96397f3344a2a76eba97b08e"


def test_feedback_vertex_set_is_minimum():
    """On 1,000 seeded digraphs of 2 to 13 vertices, some with loops, the
    witness leaves an acyclic digraph behind and has the reported size,
    which up to 8 vertices is the brute-force transversal number."""
    rng = random.Random(13)
    lines = []
    for _ in range(1000):
        d = random_digraph(rng, rng.randint(2, 13), p=rng.choice((0.2, 0.3, 0.4)),
                           loop_p=rng.choice((0.0, 0.1)))
        size, mask = bounds._feedback_vertex_set(d)
        assert mask.bit_count() == size, d
        assert is_acyclic(induced_subgraph(d, d.vertex_mask & ~mask)[0]), d
        if d.n <= 8:
            assert size == brute_transversal(d), d
        lines.append(f"{size} {mask}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == FEEDBACK_SETS_SHA256


def test_one_vertex_cover_search_per_leaf(monkeypatch):
    """On a connected, loopless, undirected graph tau's vertex cover search
    is the only one: kappa_f reads the complement of its cover."""
    calls = []
    real_cover = bounds._vertex_cover

    def counting_cover(rows, alive):
        calls.append(alive)
        return real_cover(rows, alive)

    monkeypatch.setattr(bounds, "_vertex_cover", counting_cover)
    rng = random.Random(7)
    gnp = random_graph(rng, 7)
    while len(connected_components(gnp)) != 1:
        gnp = random_graph(rng, 7)
    for g in (c5(), g1(), gnp):
        assert g.is_simple() and len(connected_components(g)) == 1
        calls.clear()
        entropy_bracket(g)
        assert calls == [g.vertex_mask], render_graph(g, "graph6")


def test_fractional_cover_searches_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("fractional_clique_cover_number searched")

    monkeypatch.setattr(bounds, "_vertex_cover", refuse)
    monkeypatch.setattr(bounds, "transversal_number", refuse)
    for g in (c5(), g1(), Graph.complete(4), Graph.from_arcs(3, [(0, 0), (0, 1), (1, 0)])):
        value = _kappa_f(g)[0]
        assert value == _lp_kappa_f(g)


def test_transversal_forces_loops():
    looped = Graph.from_arcs(3, [(0, 0)])
    size, mask = transversal_number(looped)
    assert size == 1 and mask == 1


def test_theta_examples():
    assert entropy_bracket(c5()).theta == rat("5/2")
    assert entropy_bracket(Graph.cycle(7)).theta == rat("7/2")
    assert entropy_bracket(complement_graph(Graph.cycle(7))).theta == rat("14/3")
    assert entropy_bracket(g1()).theta == rat("11/3")
    assert entropy_bracket(Graph.complete(7)).theta == 6


def test_shannon_result_revalidates():
    theta, h = shannon_entropy(c5())
    assert theta == rat("5/2")
    ok, why = validate_entropy_function(c5(), h)
    assert ok, why
    broken = list(h)
    broken[-1] += 1
    ok, _ = validate_entropy_function(c5(), broken)
    assert not ok


def _assert_validation_matches_oracle(g, rng):
    h = shannon_entropy(g)[1]
    assert validate_entropy_function(g, h)[0]
    assert exhaustive_entropy_check(g, h)
    full = g.vertex_mask
    deltas = (1, -1, rat(1, 2), rat(-1, 3), rat(1, 12), rat(-1, 12))
    bends = [(full, 1), (full, -1)]
    bends += [(rng.randint(1, full), rng.choice(deltas)) for _ in range(4)]
    rejected = 0
    for mask, delta in bends:
        bent = list(h)
        bent[mask] += delta
        verdict = validate_entropy_function(g, bent)[0]
        assert verdict == exhaustive_entropy_check(g, bent), (g, mask, delta)
        rejected += not verdict
    assert rejected, g


def test_validation_matches_exhaustive_oracle(rng):
    """The elemental rows accept exactly what the 4^n pair sweep accepts, on
    the solved witness and on single-entry perturbations of it, up to C8."""
    for n in range(1, 7):
        for g in isomorphism_classes(n):
            _assert_validation_matches_oracle(g, rng)
    for _ in range(30):
        _assert_validation_matches_oracle(random_graph(rng, 7), rng)
    for _ in range(30):
        _assert_validation_matches_oracle(
            random_digraph(rng, rng.randint(1, 5), loop_p=0.3), rng)
    _assert_validation_matches_oracle(Graph.cycle(8), rng)


def _collapsed_rows(g, var) -> set[tuple]:
    """The rows of build_shannon_lp(g) with each h(m) read as variable
    var[m]: the pinned -1 dropped, terms merged by variable and rows that
    cancel dropped, each as (frozenset of (variable, coeff), relation, rhs)."""
    rows = set()
    for coeffs, rel, rhs in _shannon_rows(g):
        merged = {}
        for m, c in coeffs.items():
            if var[m] >= 0:
                merged[var[m]] = merged.get(var[m], 0) + c
        terms = frozenset((j, c) for j, c in merged.items() if c)
        if terms:
            rows.add((terms, rel, rhs))
    return rows


def test_collapsed_program_matches_uncollapsed(rng):
    """The entropy dual has one column per row of build_shannon_lp, read
    through its variable table and held once: column i is minus that row's
    coefficients, and its cost is the row's right-hand side.  It has one
    '<=' row per variable, with right-hand side -1 on the variable of h(V)
    and 0 elsewhere, and is minimised: the dual of maximising h(V).  The
    table gives the closed sets one variable per orbit of the automorphism
    group, cl(empty) none, and every subset its closure's variable.  On
    every graph up to 6 vertices, every connected 7-vertex graph, C8, seeded
    7-vertex graphs and looped digraphs; up to 5 vertices its optimum is
    also the uncollapsed program's."""
    graphs = [g for n in range(1, 7) for g in isomorphism_classes(n)]
    graphs += [random_graph(rng, 7) for _ in range(12)]
    graphs += [random_digraph(rng, rng.randint(1, 6), loop_p=0.2) for _ in range(40)]
    graphs += [g for g in isomorphism_classes(7) if len(connected_components(g)) == 1]
    graphs.append(Graph.cycle(8))
    collapsed = 0
    for g in graphs:
        cl = closure_map(g)
        if cl[0] == g.vertex_mask:
            continue
        gens = automorphisms(g)
        dual, var, _ = _entropy_dual(g, cl, gens)
        nvars = len(dual.rows)
        assert all(var[m] == var[c] for m, c in enumerate(cl)), g
        rep = orbit_representatives(gens, set(cl))
        pairs = {(rep[c], var[c]) for c in rep}
        assert len({r for r, _ in pairs}) == len(pairs) == nvars + 1, g
        assert {j for _, j in pairs} == set(range(-1, nvars)), g
        assert (rep[cl[0]], -1) in pairs, g
        columns = [set() for _ in range(dual.num_vars)]
        for j, (coeffs, rel, rhs) in enumerate(dual.rows):
            assert (rel, rhs) == ("<=", -int(j == var[g.vertex_mask])), g
            for i, c in coeffs:
                columns[i].add((j, -c))
        rows = [(frozenset(col), "<=", b) for col, b in zip(columns, dual.objective)]
        assert len(set(rows)) == len(rows) and set(rows) == _collapsed_rows(g, var), g
        assert dual.sense == "min", g
        if g.n <= 5:
            theta, h = shannon_entropy(g)
            assert theta == solve(build_shannon_lp(g)).objective, g
            assert exhaustive_entropy_check(g, h), g
        collapsed += 1
    assert collapsed >= 1094, collapsed


def test_elemental_table_size():
    """One quadruple per pair i < j and set K outside it, none repeated."""
    for n in range(2, 11):
        table = _elemental_table(n)
        assert len(table) == n * (n - 1) // 2 * 2 ** (n - 2), n
        assert len(set(table)) == len(table), n


def _first_failing_row(g, h) -> tuple[bool, str]:
    """The verdict on h read off the rows of build_shannon_lp in their
    order, each summed over exact rationals: the first row h breaks, or ok."""
    for coeffs, rel, rhs in _shannon_rows(g):
        value = sum(c * h[m] for m, c in coeffs.items())
        if value != rhs if rel == "=" else value > rhs:
            terms = " ".join(f"{c:+d}*h({m:b})" for m, c in coeffs.items())
            return False, f"row {terms} {rel} {rhs} fails"
    return True, "ok"


def test_rejection_message_names_the_first_failing_row(rng):
    """A bent h fails at the first row of the subset-entropy LP that it
    breaks, and the message spells that row out; bends reach the head, the
    elemental and the functional rows."""
    graphs = [c5(), g1(), Graph.cycle(8), complement_graph(Graph.cycle(7))]
    graphs += [random_graph(rng, 7) for _ in range(4)]
    graphs += [random_digraph(rng, rng.randint(2, 6), loop_p=0.3) for _ in range(8)]
    deltas = (1, -1, rat(1, 2), rat(-1, 3), rat(1, 12))
    messages = set()
    for g in graphs:
        h = shannon_entropy(g)[1]
        full = g.vertex_mask
        bents = [[rat(m.bit_count()) for m in range(full + 1)]]
        for mask, delta in [(0, 1), (1, 1), (full, -1), (full, 1)]:
            bents.append(list(h))
            bents[-1][mask] += delta
        for _ in range(8):
            bents.append(list(h))
            bents[-1][rng.randint(1, full)] += rng.choice(deltas)
        for bent in bents:
            got = validate_entropy_function(g, bent)
            assert got == _first_failing_row(g, bent), (g, bent)
            if not got[0]:
                messages.add(got[1])
    empty = "row +1*h(0) = 0 fails"
    assert empty in messages
    assert any(m.endswith(" <= 1 fails") for m in messages), "no singleton row"
    assert any(m.count("*h(") == 4 for m in messages), "no elemental row"
    assert any(m.endswith(" = 0 fails") and m != empty for m in messages), "no functional row"


# sha256 of one line per graph whose bracket needs theta: the 37 connected
# classes on up to 7 vertices with tau > n - kappa_f, then C5, C7, co-C7, C8
# and the first two graphs of the 7-vertex family.  Each line holds the
# graph6, the entropy dual's objective and rows, its crash columns for the
# optimal fractional clique cover that shannon_entropy derives, and theta.
ENTROPY_DUALS_SHA256 = "0b65d19883558c76df464eb14f7325fd5d94e1276e7fa458b960aa1b0b591e4b"


def _duals_needing_theta():
    """(graph, entropy dual, crash columns) for each graph of the pinned
    list above, the crash columns those of the optimal fractional clique
    cover that shannon_entropy derives."""
    graphs = [g for g in enumerate_graphs(7, connected_only=True)
              if (r := entropy_bracket(g, lazy_theta=True)).tau > r.lower]
    assert len(graphs) == 37
    graphs += [Graph.cycle(5), Graph.cycle(7), complement_graph(Graph.cycle(7)), Graph.cycle(8)]
    graphs += g_family()[:2]
    out = []
    for g in graphs:
        gens = automorphisms(g)
        cover = fractional_clique_cover_number(
            g, clique_cover_number(g)[1], _largest_independent_set(g))[1:3]
        dual, _, crash = _entropy_dual(g, closure_map(g), gens, cover)
        out.append((g, dual, crash))
    return out


def test_entropy_duals_pinned():
    """The entropy duals that bounds and verify solve, with their crash
    columns and theta, hash to the digest pinned from a two-pass build: the
    dual first, then a pass over its rows for the tight ones."""
    lines = []
    for g, dual, crash in _duals_needing_theta():
        rows = [(list(coeffs), rel, rhs) for coeffs, rel, rhs in dual.rows]
        theta = shannon_entropy(g)[0]
        lines.append(f"{render_graph(g, 'graph6')} {list(dual.objective)} {rows} {crash} "
                     f"{rat_str(theta)}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == ENTROPY_DUALS_SHA256


# sha256 of one line per graph of ENTROPY_DUALS_SHA256: the graph6 and the
# crash basis over its dual's crash columns, pinned from the crash that
# sorted its candidates by a Python key and ran every pass to the end.
CRASH_BASES_SHA256 = "9fb3079681e0941242551e6e6e9f59707aa74331648faf2376d32c40e51fa231"


def test_crash_bases_pinned():
    """The crash bases the float run starts from on those duals are the
    ones pinned, so stopping once every row is covered and sorting by a
    builtin key chose no other column."""
    lines = []
    for g, dual, crash in _duals_needing_theta():
        basis = lp_module._crash_basis(lp_module._standardize(dual), crash)
        lines.append(f"{render_graph(g, 'graph6')} {basis}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == CRASH_BASES_SHA256


def test_entropy_programs_build_without_rationals(monkeypatch):
    """The collapsed entropy LP of C7, its dual and the dual's standard form
    are built, solved and certified in ints alone: the first rational is made
    after the certificate check.  C7's fractional clique cover, its seven
    edges at weight 1/2, is passed in, so that no cover LP is solved first."""
    cover = ([1 << v | 1 << (v + 1) % 7 for v in range(7)], [rat(1, 2)] * 7)
    events = []
    # Every binding of the name in the package, wherever a rational is made.
    modules = [m for name, m in sys.modules.items()
               if name.partition(".")[0] == "graphentropy" and hasattr(m, "Rational")]
    assert rationals in modules and bounds in modules
    for module in modules:
        real = module.Rational
        monkeypatch.setattr(module, "Rational",
                            lambda *a, real=real: events.append("rational") or real(*a))
    real_standardize = lp_module._standardize
    real_verify = lp_module.verify_certificates

    def standardize(program):
        s = real_standardize(program)
        events.append("standard form")
        return s

    def verify(lp, sol):
        verdict = real_verify(lp, sol)
        events.append("certificates checked")
        return verdict

    monkeypatch.setattr(lp_module, "_standardize", standardize)
    monkeypatch.setattr(lp_module, "verify_certificates", verify)
    assert shannon_entropy(Graph.cycle(7), cover=cover)[0] == rat("7/2")
    assert events[:2] == ["standard form", "certificates checked"], events
    assert "rational" in events[2:], "the counter saw no rational at all"


def test_entropy_program_is_built_and_certified_once():
    """One shannon_entropy states one LinearProgram, the dual it solves, by
    either constructor (rows or columns), and checks that program's
    certificates once, inside solve.  Calls are counted by code object, so
    a check reached under any name counts."""
    cover = ([1 << v | 1 << (v + 1) % 7 for v in range(7)], [rat(1, 2)] * 7)
    watched = {lp_module.LinearProgram.__init__.__code__: "build",
               lp_module.LinearProgram.from_columns.__func__.__code__: "build",
               lp_module.verify_certificates.__code__: "verify"}
    calls = []

    def profile(frame, event, _):
        if event == "call" and frame.f_code in watched:
            calls.append(watched[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        theta = shannon_entropy(Graph.cycle(7), cover=cover)[0]
    finally:
        sys.setprofile(previous)
    assert theta == rat("7/2")
    assert sorted(calls) == ["build", "verify"], calls


def test_entropy_path_rejects_a_bad_certificate_or_witness(monkeypatch):
    """On C5, an optimal solve whose primal or dual is off in one entry is
    refused by solve's certificate check, and an h whose expansion is off
    in one entry by validate_entropy_function.  The cover is passed in, so
    the entropy dual is the only program solved."""
    cover = ([1 << v | 1 << (v + 1) % 5 for v in range(5)], [rat(1, 2)] * 5)
    assert shannon_entropy(c5(), cover=cover)[0] == rat("5/2")
    real_simplex = lp_module._simplex

    def bumped(which):
        def simplex(s, basis):
            sol = real_simplex(s, basis)
            primal, dual = list(sol.primal), list(sol.dual)
            if which == "primal":
                # A column with a nonzero cost moves the objective.
                primal[next(i for i, b in enumerate(s.lp.objective) if b)] += 1
            else:
                # The row of h(V) is the one with a nonzero right-hand side.
                dual[next(k for k, row in enumerate(s.lp.rows) if row[2])] -= 1
            return lp_module.LpSolution(sol.status, sol.objective, primal, dual)
        return simplex

    for which in ("primal", "dual"):
        monkeypatch.setattr(lp_module, "_simplex", bumped(which))
        with pytest.raises(lp_module.LpError, match="internal certificate check failed"):
            shannon_entropy(c5(), cover=cover)
    monkeypatch.setattr(lp_module, "_simplex", real_simplex)

    def h_of_v_read_as_zero(g, cl, gens, cover):
        dual, var, crash = _entropy_dual(g, cl, gens, cover)
        var = list(var)
        var[g.vertex_mask] = -1
        return dual, var, crash

    monkeypatch.setattr(bounds, "_entropy_dual", h_of_v_read_as_zero)
    with pytest.raises(AssertionError, match="entropy witness failed validation"):
        shannon_entropy(c5(), cover=cover)


def test_cover_function_is_an_optimal_entropy_function(rng):
    """The entropy function of the optimal fractional clique cover, shrunk to
    level exactly one and averaged over the automorphism group, passes every
    row of the full program, is constant on each orbit of vertex sets, and
    reaches n - kappa_f on the whole vertex set: on every class up to 6
    vertices, every connected 7-vertex class, seeded looped digraphs and the
    graphs at the cap, where K10, K5,5, Petersen and co-C9 average over
    groups of up to 10! elements."""
    graphs = [g for n in range(1, 7) for g in isomorphism_classes(n)]
    graphs += [g for g in enumerate_graphs(7, connected_only=True) if g.n == 7]
    graphs += [random_digraph(rng, rng.randint(1, 6), loop_p=0.3) for _ in range(30)]
    graphs += [param.values[0] for param in AT_THE_CAP]
    for g in graphs:
        kappa_f, cliques, weights, _ = _kappa_f(g)
        gens = automorphisms(g)
        k, scale = bounds._cover_function(g, cliques, weights, gens)
        h = [rat(v, scale) for v in k]
        ok, why = validate_entropy_function(g, h)
        assert ok, (render_graph(g, "graph6"), why)
        assert h[g.vertex_mask] == g.n - kappa_f
        rep = orbit_representatives(gens, range(g.vertex_mask + 1))
        assert all(k[m] == k[rep[m]] for m in range(len(k))), render_graph(g, "graph6")
    assert len(graphs) == 208 + 853 + 30 + len(AT_THE_CAP)


def test_reduced_solve_equals_full_lp_all_n5():
    for n in range(1, 6):
        for g in isomorphism_classes(n):
            full = solve(build_shannon_lp(g))
            assert full.objective == shannon_entropy(g)[0]


def test_bracket_examples():
    b = entropy_bracket(c5())
    assert (b.lower, b.upper, b.exact) == (rat("5/2"), rat("5/2"), True)

    u = entropy_bracket(disjoint_union(c5(), Graph.complete(2)))
    assert (u.lower, u.upper, u.exact) == (rat("7/2"), rat("7/2"), True)

    g = entropy_bracket(g1())
    assert (g.lower, g.upper, g.exact) == (rat("11/3"), rat("11/3"), True)
    assert g.lower_witness["tag"] == "fractional-clique-cover"
    assert g.upper_witness["tag"] == "shannon-lp"


def test_bracket_loop_reduction():
    looped = Graph.from_arcs(3, [(0, 0), (1, 2), (2, 1)])
    b = entropy_bracket(looped)
    assert (b.lower, b.upper) == (2, 2)
    assert b.lower_witness["tag"] == "loop-reduction"


@pytest.mark.parametrize("n", [36, 44])
def test_looped_matching_cap_refuses_before_any_search(n, monkeypatch):
    """A looped graph past the matching's fixed component cap is refused
    before the clique cover or vertex cover search runs on it."""
    rng = random.Random(5)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph.from_arcs(n, [a for u, v in pairs for a in ((u, v), (v, u))]
                        + [(v, v) for v in range(3, n)])

    def refuse(*args):
        raise AssertionError("searched before the matching cap")

    monkeypatch.setattr(bounds, "clique_cover_number", refuse)
    monkeypatch.setattr(bounds, "_vertex_cover", refuse)
    with pytest.raises(CapExceededError, match=f"component with {n} vertices") as err:
        entropy_bracket(g)
    assert err.value.flag is None


def test_bound_chain(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        r = entropy_bracket(g)
        assert r.nu <= g.n - r.cc <= g.n - r.kappa_f <= r.lower
        assert r.lower <= r.upper <= min(r.tau, r.theta)
        assert r.theta <= r.tau


def test_lazy_bracket_never_crosses(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        lazy = entropy_bracket(g, lazy_theta=True)
        eager = entropy_bracket(g)
        assert lazy.lower <= eager.lower
        assert lazy.upper >= eager.upper


def _assert_report_matches_direct_calls(g):
    r = entropy_bracket(g)
    assert r.nu == max_matching(g)[0]
    assert r.cc == clique_cover_number(g)[0]
    assert r.kappa_f == _lp_kappa_f(g)
    assert r.tau == transversal_number(g)[0]
    if g.n <= 5:
        assert r.theta == solve(build_shannon_lp(g)).objective
    lazy = entropy_bracket(g, lazy_theta=True)
    assert (lazy.nu, lazy.cc, lazy.kappa_f, lazy.tau) == (r.nu, r.cc, r.kappa_f, r.tau)
    assert lazy.theta in (None, r.theta)


def test_report_fields_equal_whole_graph_calls(rng):
    """Component additivity and the loop step reproduce every whole-graph
    value, on connected, disconnected and looped inputs."""
    for _ in range(40):
        _assert_report_matches_direct_calls(random_graph(rng, rng.randint(1, 7)))
    for _ in range(20):
        a = rng.randint(1, 4)
        g = disjoint_union(random_graph(rng, a), random_graph(rng, rng.randint(1, 7 - a)))
        _assert_report_matches_direct_calls(g)
    for _ in range(40):
        _assert_report_matches_direct_calls(
            random_digraph(rng, rng.randint(1, 5), loop_p=0.3))


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.undirected(10, outer + spokes + inner)


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph.undirected(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# A connected G(7, 1/2) graph under one relabelling of its vertices.
_GNP7_4_RELABELLED = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5),
                      (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)]


def _seeded_gnp(seed: int, n: int, k: int) -> Graph:
    """Graph k of the G(n, 1/2) graphs drawn in turn from random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(k):
        random_graph(rng, n)
    return random_graph(rng, n)


# Every LP here, asymmetric 8- to 10-vertex entropy duals of up to 821 rows
# included, must be optimal at its float proposal: no exact pivot and no
# phase-1 restart.
AT_THE_CAP = [
    pytest.param(Graph.cycle(9), "9/2", id="C9"),
    pytest.param(complement_graph(Graph.cycle(9)), "27/4", id="co-C9"),
    pytest.param(Graph.cycle(10), "5", id="C10"),
    pytest.param(_petersen(), "5", id="Petersen"),
    # Relabelling sends the float simplex down another path; it must still
    # end at an optimal basis, with no exact pivot.
    pytest.param(Graph.undirected(7, _GNP7_4_RELABELLED), "4", id="gnp7.4-relabelled"),
    pytest.param(_seeded_gnp(7, 8, 0), "5", id="gnp8-seed7-0"),
    pytest.param(_seeded_gnp(7, 8, 1), "5", id="gnp8-seed7-1"),
    pytest.param(_seeded_gnp(7, 8, 2), "4", id="gnp8-seed7-2"),
    # The previous float kernel, a dense tableau with the plain minimum-ratio
    # test, gave these no optimal proposal, and each ran past 30 s.
    pytest.param(_seeded_gnp(7, 8, 3), "5", id="gnp8-seed7-3"),
    pytest.param(_seeded_gnp(9, 9, 0), "6", id="gnp9-seed9-0"),
    pytest.param(_seeded_gnp(9, 9, 2), "11/2", id="gnp9-seed9-2"),
    # From the slack/artificial basis its float run made 2,707 pivots; from
    # the crash basis it makes about 120.
    pytest.param(_seeded_gnp(10, 10, 0), "6", id="gnp10-seed10-0"),
    pytest.param(_seeded_gnp(10, 10, 1), "7", id="gnp10-seed10-1"),
    pytest.param(_seeded_gnp(10, 10, 2), "6", id="gnp10-seed10-2"),
    *(pytest.param(parse_graph(text), value, id=text) for text, value in (
        ("GE`hr{", "9/2"), ("GIG\\]{", "9/2"), ("GIIO~[", "9/2"), ("GoTP\\{", "9/2"),
        ("GqIQX{", "9/2"), ("GelrX{", "11/2"), ("Gemjj{", "11/2"), ("Gfqhz{", "11/2"))),
    # Groups of up to 10! elements: orbits come from strong generators, never
    # from listing the group.
    pytest.param(Graph.complete(8), "7", id="K8"),
    pytest.param(Graph.complete(9), "8", id="K9"),
    pytest.param(Graph.complete(10), "9", id="K10"),
    pytest.param(_complete_bipartite(4, 4), "4", id="K4,4"),
    pytest.param(_complete_bipartite(5, 5), "5", id="K5,5"),
]


@pytest.mark.parametrize("g, value", AT_THE_CAP)
def test_brackets_at_the_cap(g, value, exact_steps):
    started = time.perf_counter()
    r = entropy_bracket(g)
    elapsed = time.perf_counter() - started
    assert (r.theta, r.lower, r.upper, r.exact) == (rat(value), rat(value), rat(value), True)
    assert elapsed < 60, f"took {elapsed:.1f}s"
    assert not exact_steps, "a float proposal was not optimal"


def test_exact_path_without_numpy(monkeypatch):
    """Without numpy there is no float proposal: every LP starts from the
    slack/artificial basis and runs on exact pivots alone."""
    monkeypatch.setattr(lp_module, "_numpy", lambda: None)
    started = time.perf_counter()
    r = entropy_bracket(Graph.undirected(7, _GNP7_4_RELABELLED))
    elapsed = time.perf_counter() - started
    assert (r.theta, r.lower, r.upper) == (4, 4, 4)
    assert elapsed < 60, f"took {elapsed:.1f}s"


def _connected_sample(rng: random.Random, draw) -> Graph:
    """The first connected graph that draw(rng) returns."""
    while True:
        g = draw(rng)
        if len(connected_components(g)) == 1:
            return g


def _random_bipartite(rng: random.Random, a: int, b: int, p: float) -> Graph:
    return Graph.undirected(a + b, [(u, v) for u in range(a) for v in range(a, a + b)
                                    if rng.random() < p])


# Connected graphs at the matching's 24-vertex component cap.  The lazy
# bracket of a dense one needs the subset-entropy LP, far past its cap, so
# these rows time the bounds, not the bracket.  Each row took at most 0.05 s
# on a shared 2-core VM (CPython 3.11.7).
AT_THE_MATCHING_CAP = [
    *(pytest.param(_connected_sample(random.Random(24), lambda r, p=p: random_graph(r, 24, p)),
                   id=f"gnp24-p{p}") for p in (0.2, 0.5, 0.9)),
    pytest.param(_connected_sample(random.Random(24),
                                   lambda r: _random_bipartite(r, 12, 12, 0.3)),
                 id="bipartite12+12-p0.3"),
    # Triangle-free, so cc = n - nu = 16: without Gallai's stop the search
    # found that cover at once and then took 21 s to prove it optimal.
    pytest.param(_connected_sample(random.Random(24),
                                   lambda r: _random_bipartite(r, 8, 16, 0.5)),
                 id="bipartite8+16-p0.5"),
]

# sha256 of f"{cc} {list(cover)}" for the bipartite8+16-p0.5 row, as the
# search that proved its cover optimal reported it.
GALLAI_COVER_SHA256 = "c35d5676683607398cdd0f38215e8789988c4fc92caf45c0627c886c3b74495b"


@pytest.mark.parametrize("g", AT_THE_MATCHING_CAP)
def test_bounds_at_the_matching_cap(g):
    """Every bound behind the lower side and tau finish within 10 s together,
    nu is the maximum matching size networkx finds, and the witnesses check."""
    started = time.perf_counter()
    nu, edges = max_matching(g)
    cc, cover = clique_cover_number(g, nu)
    tau, removed = transversal_number(g)
    kappa_f, cliques, weights, _ = fractional_clique_cover_number(g, cover,
                                                                  g.vertex_mask & ~removed)
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    h = nx.Graph(g.edges())
    assert nu == len(edges) == len(nx.max_weight_matching(h, maxcardinality=True))
    assert mask_of(v for e in edges for v in e).bit_count() == 2 * nu
    assert all(g.has_arc(u, v) for u, v in edges)
    assert len(cover) == cc
    check_clique_cover(g, cover, (1,) * cc)
    check_clique_cover(g, cliques, weights)
    assert sum(weights) == kappa_f
    assert removed.bit_count() == tau and is_acyclic(induced_subgraph(g, g.vertex_mask & ~removed)[0])
    assert nu <= g.n - cc <= g.n - kappa_f <= tau


def test_gallai_stop_keeps_the_cover():
    """On a triangle-free graph the clique cover search stops at its first
    cover of n - nu cliques, with nu passed in or computed, and reports the
    cover the full search reported."""
    g = AT_THE_MATCHING_CAP[-1].values[0]
    assert max(c.bit_count() for c in maximal_cliques(g)) == 2
    nu = max_matching(g)[0]
    for got in (clique_cover_number(g, nu), clique_cover_number(g)):
        cc, cover = got
        assert cc == g.n - nu == 16
        assert hashlib.sha256(f"{cc} {list(cover)}".encode()).hexdigest() == GALLAI_COVER_SHA256


def test_lazy_bracket_at_the_graph_cap():
    """64 vertices, the graph cap, as eight 8-vertex parts: the lazy bracket
    adds the parts' exact values within 10 s (0.01 s measured)."""
    cube = Graph.undirected(8, [(u, u | 1 << k) for u in range(8) for k in range(3)
                                if not u >> k & 1])
    wheel = Graph.undirected(8, [(i, (i + 1) % 7) for i in range(7)] + [(i, 7) for i in range(7)])
    parts = [Graph.cycle(8), Graph.path(8), Graph.complete(8), _complete_bipartite(4, 4),
             _complete_bipartite(1, 7), cube, complement_graph(Graph.cycle(8)), wheel]
    g = parts[0]
    for part in parts[1:]:
        g = disjoint_union(g, part)
    assert g.n == 64
    started = time.perf_counter()
    r = entropy_bracket(g, lazy_theta=True)
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    values = [entropy_bracket(part, lazy_theta=True).lower for part in parts]
    assert values == [4, 4, 7, 4, 1, 4, 6, rat("9/2")]
    assert r.exact and r.lower == sum(values) == rat("69/2")
    assert r.lower_witness["tag"] == "union-additivity"
