"""Acceptance suite: one test per criterion, exact rational equality throughout.

Run with -v to get one pass/fail line per criterion.
"""

import json
import random
import subprocess
import time
from itertools import product

from graphentropy.bounds import (
    clique_cover_number,
    entropy_bracket,
    transversal_number,
)
from graphentropy.enumeration import (
    canonical_form,
    isomorphism_classes,
    pentagon_apex,
    survey_entropy_values,
    verify_g_family,
)
from graphentropy.graphs import (
    BipartiteView,
    Graph,
    bits_of,
    complement,
    i_reduction,
    induced_subgraph,
    is_acyclic,
    loops,
    mask_of,
    render_graph,
)
from graphentropy.guessing import max_guessing
from graphentropy.lp import OPTIMAL, solve, verify_certificates
from graphentropy.structure import find_reducible_set, find_saturating_subset
from graphentropy.rationals import rat

from _oracles import chromatic_number, clique_code_size, complement_graph
from conftest import c5, g1, random_digraph
from test_cli import RUN, child_env
from test_lp import _random_lp


def bounds_via_cli(tmp_path, name: str, g: Graph) -> dict:
    path = tmp_path / name
    path.write_text(render_graph(g, "graph6"))
    started = time.monotonic()
    proc = subprocess.run(RUN + ["bounds", "--graph", str(path)],
                          capture_output=True, text=True, timeout=60, env=child_env())
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10, f"{name} took {elapsed:.1f}s"
    return json.loads(proc.stdout)["result"]


def test_criterion_1_exact_values(tmp_path):
    pentagon = bounds_via_cli(tmp_path, "c5.g6", c5())
    assert pentagon["theta"] == "5/2"
    assert pentagon["kappa_f"] == "5/2"
    assert pentagon["bracket"] == {"lower": "5/2", "upper": "5/2", "exact": True}
    assert pentagon["tau"] == 3

    heptagon = bounds_via_cli(tmp_path, "c7.g6", Graph.cycle(7))
    assert heptagon["theta"] == "7/2"
    assert heptagon["bracket"] == {"lower": "7/2", "upper": "7/2", "exact": True}

    co_pent = bounds_via_cli(tmp_path, "c5c.g6", complement(c5()))
    assert co_pent["theta"] == "5/2"

    co_hept = bounds_via_cli(tmp_path, "c7c.g6", complement(Graph.cycle(7)))
    assert co_hept["theta"] == "14/3"
    assert co_hept["kappa_f"] == "7/3"
    assert co_hept["bracket"] == {"lower": "14/3", "upper": "14/3", "exact": True}

    first = bounds_via_cli(tmp_path, "g1.g6", g1())
    assert first["theta"] == "11/3"
    assert first["kappa_f"] == "10/3"
    assert first["bracket"] == {"lower": "11/3", "upper": "11/3", "exact": True}

    family = verify_g_family()
    assert family.ok
    head, *rest = family.details["cases"]
    assert "10/13" in head["cross_check"] and "10/3" in head["cross_check"]
    assert len(rest) == 5
    assert all(entry["lower"] == entry["upper"] == rat("7/2") for entry in rest)


def test_criterion_2_wheel_trichotomy(tmp_path):
    started = time.monotonic()
    proc = subprocess.run(RUN + ["verify", "--suite", "wheel"],
                          capture_output=True, text=True, timeout=150, env=child_env())
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 120, f"wheel suite took {elapsed:.1f}s"
    result = json.loads(proc.stdout)["result"]
    assert result["ok"] is True
    assert len(result["cases"]) == 32
    for entry in result["cases"]:
        neighbors = entry["apex_neighbors"]
        triple = any(all((v + k) % 5 in neighbors for k in range(3)) for v in range(5))
        expected = "5/2" if not neighbors else "7/2" if triple else "3"
        assert entry["lower"] == entry["upper"] == expected
        g = pentagon_apex(mask_of(neighbors))
        bracket = entropy_bracket(g)
        assert bracket.exact and bracket.lower == rat(expected)


def test_criterion_3_survey_n7():
    survey = survey_entropy_values(7)
    window = [v for v in survey.values if v <= 4]
    assert window == [rat(0), rat(1), rat(2), rat("5/2"),
                      rat(3), rat("7/2"), rat("11/3"), rat(4)]

    half = [r for r in survey.records
            if r.connected and r.exact and r.bracket.lower == rat("5/2")]
    assert [canonical_form(r.graph).graph6() for r in half] == ["DLo"]
    third = [r for r in survey.records
             if r.connected and r.exact and r.bracket.lower == rat("11/3")]
    assert [canonical_form(r.graph).graph6() for r in third] == ["FFHKW"]

    for record in survey.unresolved:
        low, up = record.bracket.lower, record.bracket.upper
        inside = 3 < low < 4 and low not in (rat("7/2"), rat("11/3"))
        assert not (inside and up < 4), f"open bracket [{low}, {up}] violates the window"


def test_criterion_4_guessing_numbers():
    for n in range(2, 6):
        value, _ = max_guessing(Graph.complete(n), 2)
        assert value.code_size == 2 ** (n - 1)

    value, code = max_guessing(c5(), 2)
    assert value.code_size == clique_code_size(c5(), 2) == 5
    code.validate()

    rng = random.Random(0xACCE)
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
        assert whole.code_size == 2 ** bin(loop_mask).count("1") * part.code_size


def test_criterion_5_property_suites():
    rng = random.Random(0xF00D)

    optimal = 0
    for _ in range(250):
        lp = _random_lp(rng)
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        optimal += 1
        ok, why = verify_certificates(lp, sol)
        assert ok, why
        dual_value = sum((y * rhs for y, (_, _, rhs) in zip(sol.dual, lp.rows)),
                        rat(0))
        assert dual_value == sol.objective
    assert optimal >= 100

    for a in range(1, 6):
        for b in range(1, min(a, 4) + 1):
            cells = list(product(range(a), range(b)))
            for bits in range(1, 1 << (a * b)):
                edges = [(u, a + v) for k, (u, v) in enumerate(cells) if bits >> k & 1]
                g = Graph.undirected(a + b, edges)
                view = BipartiteView(g, mask_of(range(a)), mask_of(range(a, a + b)))
                witness = find_saturating_subset(view)
                assert witness.a_prime

    corpus = survey_entropy_values(7)
    decomposed = 0
    for record in corpus.records:
        if not record.exact:
            continue
        d = find_reducible_set(record.graph)
        if d is None:
            continue
        decomposed += 1
        part = entropy_bracket(d.remainder)
        assert part.exact
        assert record.bracket.lower == bin(d.s).count("1") + part.lower
    assert decomposed >= 100

    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 5), loop_p=0.2)
        value, _ = max_guessing(g, 2)
        assert value.code_size <= 2 ** transversal_number(g)[0]

        sub = Graph.from_arcs(g.n, [x for x in g.arcs() if rng.random() < 0.7])
        smaller, _ = max_guessing(sub, 2)
        assert smaller.code_size <= value.code_size

        masks = [m for m in range(1, 1 << g.n)
                 if m != g.vertex_mask and is_acyclic(induced_subgraph(g, m)[0])]
        if masks:
            i_mask = rng.choice(masks)
            reduced, _ = i_reduction(g, i_mask)
            after, _ = max_guessing(reduced, 2)
            assert value.code_size <= 2 ** bin(i_mask).count("1") * after.code_size

    for n in range(1, 7):
        for g in isomorphism_classes(n):
            assert clique_cover_number(g)[0] == chromatic_number(complement_graph(g))

    for n, expected in ((4, 11), (5, 34), (6, 156), (7, 1044)):
        assert len(isomorphism_classes(n)) == expected
