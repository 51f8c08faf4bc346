import random

import pytest

from graphentropy import enumeration, lp
from graphentropy.bounds import entropy_bracket
from graphentropy.enumeration import (
    bracket_with_fallback,
    canonical_form,
    enumerate_graphs,
    g_family,
    isomorphism_classes,
    pentagon_apex,
    survey_entropy_values,
    verify_g_family,
    verify_small_theorems,
    verify_wheel_lemma,
)
from graphentropy.graphs import (
    CapExceededError,
    Graph,
    bits_of,
    connected_components,
    disjoint_union,
    mask_of,
    render_graph,
)
from graphentropy.rationals import rat

from _oracles import labeled_class_count, perm_class_key, unpruned_isomorphism_classes
from conftest import c5, g1, random_graph

# Simple-graph isomorphism classes by vertex count, total and connected.
KNOWN_CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
KNOWN_CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)


def test_class_counts():
    for n, expected in enumerate(KNOWN_CLASS_COUNTS, start=1):
        assert len(isomorphism_classes(n)) == expected
    assert KNOWN_CLASS_COUNTS == (1, 2, 4, 11, 34, 156, 1044)
    assert KNOWN_CONNECTED_COUNTS == (1, 1, 2, 6, 21, 112, 853)


def test_class_counts_against_permutation_oracle():
    for n in range(1, 6):
        assert len(isomorphism_classes(n)) == labeled_class_count(n)


def test_classes_match_unpruned_augmentation():
    for n in range(8):
        assert isomorphism_classes(n) == unpruned_isomorphism_classes(n), n


def test_connected_filter():
    sixes = enumerate_graphs(4, connected_only=True)
    by_n = {}
    for g in sixes:
        by_n.setdefault(g.n, []).append(g)
    assert [len(by_n[n]) for n in range(1, 5)] == [1, 1, 2, 6]


def test_representatives_are_canonical_and_distinct():
    for n in range(1, 6):
        reps = isomorphism_classes(n)
        keys = {canonical_form(g).key() for g in reps}
        assert len(keys) == len(reps)
        for g in reps:
            assert canonical_form(g).graph() == g


def test_canonical_form_permutation_invariant():
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(100):
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.undirected(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_form(g).bits == canonical_form(h).bits


def test_canonical_graph6_values():
    assert canonical_form(c5()).graph6() == "DLo"
    assert canonical_form(g1()).graph6() == "FFHKW"
    assert render_graph(canonical_form(c5()).graph(), "graph6") == "DLo"


def test_canonical_respects_isomorphism_oracle():
    rng = random.Random(11)
    seen = {}
    for _ in range(60):
        g = random_graph(rng, 4)
        key = perm_class_key(g)
        bits = canonical_form(g).bits
        if key in seen:
            assert seen[key] == bits
        seen[key] = bits


def test_component_additivity(rng):
    cases = 0
    while cases < 50:
        a = random_graph(rng, rng.randint(1, 4))
        b = random_graph(rng, rng.randint(1, 3))
        g = disjoint_union(a, b)
        cases += 1
        whole = entropy_bracket(g)
        pa, pb = entropy_bracket(a), entropy_bracket(b)
        assert whole.lower == pa.lower + pb.lower
        assert whole.upper == pa.upper + pb.upper


def test_bracket_with_fallback_never_widens(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6))
        plain = entropy_bracket(g)
        filled = bracket_with_fallback(g)
        assert filled.lower >= plain.lower
        assert filled.upper <= plain.upper


def test_survey_small_values():
    survey = survey_entropy_values(5)
    assert len(survey.records) == 1 + 2 + 4 + 11 + 34
    assert survey.unresolved == []
    low = [v for v in survey.values if v <= 3]
    assert low == [rat(0), rat(1), rat(2), rat("5/2"), rat(3)]
    empty = [r for r in survey.records if r.graph.n == 1]
    assert empty[0].bracket.lower == 0


def test_survey_connected_only():
    survey = survey_entropy_values(4, connected_only=True)
    assert len(survey.records) == 1 + 1 + 2 + 6
    assert all(r.connected for r in survey.records)


def test_survey_forwards_cap(monkeypatch):
    """The survey's cap reaches the enumeration, so a raised cap is not
    refused by enumeration's default.  No 8-vertex class is enumerated."""
    seen = []
    real = enumeration.enumerate_graphs

    def spy(n_max, connected_only=False, cap=enumeration.DEFAULT_ENUM_CAP):
        seen.append((n_max, cap))
        return real(n_max, connected_only, cap) if n_max <= 4 else iter(())

    monkeypatch.setattr(enumeration, "enumerate_graphs", spy)
    assert len(survey_entropy_values(3, cap=3).records) == 1 + 2 + 4
    assert survey_entropy_values(8, cap=8).records == []
    assert seen == [(3, 3), (8, 8)]
    with pytest.raises(CapExceededError):
        survey_entropy_values(8)
    assert len(seen) == 2


def test_survey_union_witnesses_use_record_labelling():
    """A disconnected record's witnesses list the components of its own
    graph, and its bracket is the one that graph gets directly."""
    records = [r for r in survey_entropy_values(6).records if not r.connected]
    assert len(records) == sum(KNOWN_CLASS_COUNTS[:6]) - sum(KNOWN_CONNECTED_COUNTS[:6])
    for r in records:
        comps = [list(bits_of(c)) for c in connected_components(r.graph)]
        direct = entropy_bracket(r.graph, lazy_theta=True)
        for witness in (r.bracket.lower_witness, r.bracket.upper_witness):
            assert witness[0] == "union-additivity", r.graph6()
            assert witness[1]["components"] == comps, r.graph6()
        assert (r.bracket.lower, r.bracket.upper) == (direct.lower, direct.upper), r.graph6()


def test_survey_pool_matches_serial():
    """The --jobs pool path gives the serial survey's records, witnesses'
    tags included."""
    def rows(survey):
        return [
            (r.graph6(), r.bracket.lower, r.bracket.upper,
             r.bracket.lower_witness[0], r.bracket.upper_witness[0])
            for r in survey.records
        ]

    serial = rows(survey_entropy_values(6, jobs=1))
    assert len(serial) == sum(KNOWN_CLASS_COUNTS[:6])
    assert rows(survey_entropy_values(6, jobs=2)) == serial


def test_pentagon_apex_masks():
    lonely = pentagon_apex(0)
    assert lonely.n == 6
    assert len(lonely.edges()) == 5
    assert len(pentagon_apex(mask_of([0, 1, 2])).edges()) == 8


def test_wheel_lemma_all_32_cases():
    report = verify_wheel_lemma()
    assert report.ok
    cases = {tuple(entry["apex_neighbors"]): entry for entry in report.details["cases"]}
    assert len(cases) == 32
    assert cases[()]["lower"] == rat("5/2")
    assert cases[(0, 1, 2)]["lower"] == rat("7/2")
    assert cases[(0, 2)]["lower"] == rat(3)
    assert all(entry["ok"] for entry in cases.values())


def test_wheel_lazy_bracket_matches_eager():
    for mask in range(32):
        g = pentagon_apex(mask)
        lazy = entropy_bracket(g, lazy_theta=True)
        eager = entropy_bracket(g)
        assert (lazy.lower, lazy.upper) == (eager.lower, eager.upper), mask
        assert lazy.lower_witness == eager.lower_witness, mask
        assert lazy.upper_witness == eager.upper_witness, mask


def test_g_family_suite():
    report = verify_g_family()
    assert report.ok
    first = report.details["cases"][0]
    assert first["lower"] == rat("11/3")
    assert first["fractional_cover"] == rat("10/3")
    assert "10/13" in first["cross_check"]
    rest = report.details["cases"][1:]
    assert len(rest) == 5
    assert all(entry["lower"] == rat("7/2") for entry in rest)
    assert perm_class_key(g_family()[0]) == perm_class_key(g1())


def test_small_theorem_suite():
    report = verify_small_theorems()
    assert report.ok
    details = report.details
    assert details["connected_5/2_witnesses"] == ["DLo"]
    assert details["connected_11/3_witnesses"] == ["FFHKW"]
    assert details["window_violations"] == []
    assert details["gap_counterexamples"] == []
    assert details["unresolved"] == []


def test_small_theorem_suite_lp_count(monkeypatch):
    """At most 74 exact simplex runs: the fractional covers of perfect
    graphs are certified by independent sets, not by the LP."""
    runs = []
    real_simplex = lp._simplex

    def counting_simplex(*args):
        runs.append(1)
        return real_simplex(*args)

    monkeypatch.setattr(lp, "_simplex", counting_simplex)
    assert verify_small_theorems().ok
    assert len(runs) <= 74, len(runs)
