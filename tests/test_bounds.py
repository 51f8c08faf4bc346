import hashlib
import random
import time

import pytest

from graphentropy import bounds
from graphentropy import lp as lp_module
from graphentropy.bounds import (
    _collapsed_program,
    bounds_report,
    build_fractional_cover_lp,
    build_shannon_lp,
    clique_cover_number,
    closure_map,
    entropy_bracket,
    fractional_clique_cover_number,
    max_matching,
    maximal_cliques,
    shannon_entropy,
    shannon_theta,
    transversal_number,
    validate_entropy_function,
)
from graphentropy.enumeration import enumerate_graphs, isomorphism_classes
from graphentropy.graphs import Graph, complement, disjoint_union, mask_of, render_graph
from graphentropy.lp import solve
from graphentropy.rationals import rat, rat_str

from _oracles import (
    brute_matching,
    brute_transversal,
    chromatic_number,
    complement_graph,
    exhaustive_entropy_check,
    previous_collapsed_program,
)
from conftest import c5, g1, random_digraph, random_graph


def test_matching_examples():
    assert max_matching(c5()).size == 2
    assert max_matching(Graph.complete(2)).size == 1
    assert max_matching(g1()).size == 3


def test_matching_result_is_valid_and_maximum(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        result = max_matching(g)
        seen = 0
        for u, v in result.edges:
            assert g.has_arc(u, v) and g.has_arc(v, u)
            assert not seen & (1 << u | 1 << v)
            seen |= 1 << u | 1 << v
        assert result.size == len(result.edges) == brute_matching(g)


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


def test_fractional_cover_examples():
    value, family = fractional_clique_cover_number(c5())
    assert value == rat("5/2")
    family.validate(c5())
    assert fractional_clique_cover_number(Graph.complete(4))[0] == 1
    assert fractional_clique_cover_number(g1())[0] == rat("10/3")


def _lp_kappa_f(g):
    return solve(build_fractional_cover_lp(g)[0]).objective


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
        value, family = fractional_clique_cover_number(g)
        paths["lp" if len(solves) > before else "shortcut"] += 1
        assert value == _lp_kappa_f(g), g
        family.validate(g)
        assert family.total() == value
    assert paths["shortcut"] and paths["lp"], paths


# sha256 of one line per connected class on up to 7 vertices whose fractional
# cover the covering LP decides (the independent-set shortcut closes all the
# others): its graph6, then clique:weight pairs.  These are the 37 covering
# LPs that `verify --suite theorem2` solves, and each weight vector is the
# vertex its proposed basis selects, so the digest pins those bases.  Each
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
        value, family = fractional_clique_cover_number(g)
        if len(solves) > before:
            family.validate(g)
            assert family.total() == value == _lp_kappa_f(g), render_graph(g, "graph6")
            pairs = " ".join(f"{c}:{rat_str(w)}" for c, w in zip(family.cliques, family.weights))
            lines.append(f"{render_graph(g, 'graph6')} {pairs}\n")
    assert len(lines) == 37
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == COVER_WEIGHTS_SHA256


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


def test_transversal_forces_loops():
    looped = Graph.from_arcs(3, [(0, 0)])
    size, mask = transversal_number(looped)
    assert size == 1 and mask == 1


def test_theta_examples():
    assert shannon_theta(c5()) == rat("5/2")
    assert shannon_theta(Graph.cycle(7)) == rat("7/2")
    assert shannon_theta(complement(Graph.cycle(7))) == rat("14/3")
    assert shannon_theta(g1()) == rat("11/3")
    assert shannon_theta(Graph.complete(7)) == 6


def test_shannon_result_revalidates():
    result = shannon_entropy(c5())
    assert result.theta == rat("5/2")
    ok, why = validate_entropy_function(c5(), result.h)
    assert ok, why
    broken = list(result.h)
    broken[-1] += 1
    ok, _ = validate_entropy_function(c5(), broken)
    assert not ok


def _assert_validation_matches_oracle(g, rng):
    h = shannon_entropy(g).h
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
    the solved witness and on single-entry perturbations of it."""
    for n in range(1, 7):
        for g in isomorphism_classes(n):
            _assert_validation_matches_oracle(g, rng)
    for _ in range(30):
        _assert_validation_matches_oracle(random_graph(rng, 7), rng)
    for _ in range(30):
        _assert_validation_matches_oracle(
            random_digraph(rng, rng.randint(1, 5), loop_p=0.3), rng)


def test_collapsed_program_matches_previous(rng):
    """The variable table gives the collapse of the per-term closure,
    orbit and pinned lookups it replaces: the same variables, rows and
    objective, on every graph up to 6 vertices, seeded 7-vertex graphs and
    looped digraphs."""
    graphs = [g for n in range(1, 7) for g in isomorphism_classes(n)]
    graphs += [random_graph(rng, 7) for _ in range(12)]
    graphs += [random_digraph(rng, rng.randint(1, 6), loop_p=0.2) for _ in range(40)]
    collapsed = 0
    for g in graphs:
        cl = closure_map(g)
        previous = previous_collapsed_program(g)
        if previous is None:
            assert cl[0] == g.vertex_mask, g
            continue
        old, old_var = previous
        new, var = _collapsed_program(g, cl)
        assert (new.num_vars, new.objective, new.rows) == (old.num_vars, old.objective, old.rows), g
        assert var[g.vertex_mask] == old_var, g
        collapsed += 1
    assert collapsed >= 240, collapsed


def test_entropy_programs_build_without_rationals(monkeypatch):
    """The collapsed entropy LP of C7, its dual and the dual's standard form
    are built in ints alone: the first rational is made by the solve."""
    made = []
    real = lp_module.Rational
    monkeypatch.setattr(lp_module, "Rational", lambda *a: made.append(a) or real(*a))
    at_standard_form = []
    real_standardize = lp_module._standardize

    def standardize(program):
        s = real_standardize(program)
        at_standard_form.append(len(made))
        return s

    monkeypatch.setattr(lp_module, "_standardize", standardize)
    assert shannon_entropy(Graph.cycle(7)).theta == rat("7/2")
    assert at_standard_form == [0]
    assert made, "the counter saw none of the solve's rationals"


def test_reduced_solve_equals_full_lp_all_n5():
    for n in range(1, 6):
        for g in isomorphism_classes(n):
            full = solve(build_shannon_lp(g))
            assert full.objective == shannon_entropy(g).theta


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


def test_bound_chain(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        r = bounds_report(g)
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
    r = bounds_report(g)
    assert r.nu == max_matching(g).size
    assert r.cc == clique_cover_number(g)[0]
    assert r.kappa_f == _lp_kappa_f(g)
    assert r.tau == transversal_number(g)[0]
    if g.n <= 5:
        assert r.theta == solve(build_shannon_lp(g)).objective
    lazy = bounds_report(g, lazy_theta=True)
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


def _seeded_gnp8(k: int) -> Graph:
    """Graph k of the G(8, 1/2) graphs drawn in turn from random.Random(7)."""
    rng = random.Random(7)
    for _ in range(k):
        random_graph(rng, 8)
    return random_graph(rng, 8)


# Every LP here, asymmetric 8-vertex entropy duals of 130-155 rows included,
# must be optimal at its float proposal: no exact pivot and no phase-1 restart.
@pytest.mark.parametrize("g, value", [
    pytest.param(Graph.cycle(9), "9/2", id="C9"),
    pytest.param(complement(Graph.cycle(9)), "27/4", id="co-C9"),
    pytest.param(Graph.cycle(10), "5", id="C10"),
    pytest.param(_petersen(), "5", id="Petersen"),
    # Relabelling sends the float simplex down another path; it must still
    # end at an optimal basis, with no exact pivot.
    pytest.param(Graph.undirected(7, _GNP7_4_RELABELLED), "4", id="gnp7.4-relabelled"),
    pytest.param(_seeded_gnp8(0), "5", id="gnp8-seed7-0"),
    pytest.param(_seeded_gnp8(1), "5", id="gnp8-seed7-1"),
    pytest.param(_seeded_gnp8(2), "4", id="gnp8-seed7-2"),
    # Groups of up to 10! elements: orbits come from strong generators, never
    # from listing the group.
    pytest.param(Graph.complete(8), "7", id="K8"),
    pytest.param(Graph.complete(9), "8", id="K9"),
    pytest.param(Graph.complete(10), "9", id="K10"),
    pytest.param(_complete_bipartite(4, 4), "4", id="K4,4"),
    pytest.param(_complete_bipartite(5, 5), "5", id="K5,5"),
])
def test_brackets_at_the_cap(g, value, exact_steps):
    started = time.perf_counter()
    r = bounds_report(g)
    elapsed = time.perf_counter() - started
    assert (r.theta, r.lower, r.upper, r.exact) == (rat(value), rat(value), rat(value), True)
    assert elapsed < 60, f"took {elapsed:.1f}s"
    assert not exact_steps, "a float proposal was not optimal"


def test_exact_path_without_numpy(monkeypatch):
    """Without numpy there is no float proposal: every LP starts from the
    slack/artificial basis and runs on exact pivots alone."""
    monkeypatch.setattr(lp_module, "_np", None)
    started = time.perf_counter()
    r = bounds_report(Graph.undirected(7, _GNP7_4_RELABELLED))
    elapsed = time.perf_counter() - started
    assert (r.theta, r.lower, r.upper) == (4, 4, 4)
    assert elapsed < 60, f"took {elapsed:.1f}s"
