import random

import pytest

from graphentropy import enumeration, lp
from graphentropy.bounds import bounds_report, entropy_bracket
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

from _oracles import (
    labeled_class_count,
    perm_class_key,
    previous_canonical_form,
    previous_isomorphism_classes,
    unpruned_isomorphism_classes,
)
from conftest import c5, g1, random_graph

# Simple-graph isomorphism classes by vertex count, total and connected.
KNOWN_CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
KNOWN_CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def test_class_counts():
    for n, (total, connected) in enumerate(zip(KNOWN_CLASS_COUNTS, KNOWN_CONNECTED_COUNTS), start=1):
        classes = isomorphism_classes(n)
        assert len(classes) == total, n
        assert sum(len(connected_components(g)) == 1 for g in classes) == connected, n
    assert KNOWN_CLASS_COUNTS == (1, 2, 4, 11, 34, 156, 1044, 12346)
    assert KNOWN_CONNECTED_COUNTS == (1, 1, 2, 6, 21, 112, 853, 11117)


def test_class_counts_against_permutation_oracle():
    for n in range(1, 6):
        assert len(isomorphism_classes(n)) == labeled_class_count(n)


def test_classes_match_unpruned_augmentation():
    for n in range(8):
        assert isomorphism_classes(n) == unpruned_isomorphism_classes(n), n


def test_classes_match_previous_enumerator():
    for n in range(8):
        assert isomorphism_classes(n) == previous_isomorphism_classes(n), n


def test_canonical_bits_match_previous_search():
    """Every augmentation of every class up to 7 vertices, orbit-pruned or
    not, and seeded random graphs on 8 to 10 vertices."""
    for n in range(1, 8):
        for base in isomorphism_classes(n - 1):
            for attach in range(1 << (n - 1)):
                rows = [r | (attach >> v & 1) << (n - 1) for v, r in enumerate(base.rows)]
                g = Graph(n, rows + [attach], directed=False)
                assert canonical_form(g).bits == previous_canonical_form(g).bits
    rng = random.Random(14)
    for n in (8, 9, 10):
        for p in (0.2, 0.5, 0.8):
            for _ in range(10):
                g = random_graph(rng, n, p)
                assert canonical_form(g).bits == previous_canonical_form(g).bits


def test_canonical_searches_per_class(monkeypatch):
    """Maximum degree and top colour leave about one canonical search per
    class: at most 1,300 for the 1,252 classes on 1 to 7 vertices, where
    orbit pruning alone ran 5,759."""
    searches = []
    real_search = enumeration._canonical_search

    def counting_search(*args):
        searches.append(1)
        return real_search(*args)

    monkeypatch.setattr(enumeration, "_canonical_search", counting_search)
    enumeration._classes_cached.cache_clear()
    assert sum(len(isomorphism_classes(n)) for n in range(1, 8)) == 1252
    assert len(searches) <= 1300, len(searches)


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
    refused by enumeration's default, and a survey past its cap is refused by
    the enumeration's check.  No 8-vertex class is enumerated."""
    seen = []
    real = enumeration.enumerate_graphs

    def spy(n_max, connected_only=False, cap=enumeration.DEFAULT_ENUM_CAP):
        seen.append((n_max, cap))
        return real(n_max, connected_only, cap) if n_max <= 4 or n_max > cap else iter(())

    monkeypatch.setattr(enumeration, "enumerate_graphs", spy)
    assert len(survey_entropy_values(3, cap=3).records) == 1 + 2 + 4
    assert survey_entropy_values(8, cap=8).records == []
    assert seen == [(3, 3), (8, 8)]
    with pytest.raises(CapExceededError):
        survey_entropy_values(8)
    assert seen[2:] == [(8, enumeration.DEFAULT_ENUM_CAP)]


def test_survey_union_witnesses_use_record_labelling():
    """A disconnected record's witnesses list the components of its own
    graph, and its bracket and bound values are the ones that graph gets
    directly."""
    fields = ("lower", "upper", "nu", "cc", "kappa_f", "tau", "theta")
    records = [r for r in survey_entropy_values(6).records if not r.connected]
    assert len(records) == sum(KNOWN_CLASS_COUNTS[:6]) - sum(KNOWN_CONNECTED_COUNTS[:6])
    for r in records:
        comps = [list(bits_of(c)) for c in connected_components(r.graph)]
        direct = bounds_report(r.graph, lazy_theta=True)
        for witness in (r.bracket.lower_witness, r.bracket.upper_witness):
            assert witness["tag"] == "union-additivity", r.graph6()
            assert witness["components"] == comps, r.graph6()
        got = [getattr(r.bracket, f) for f in fields]
        assert got == [getattr(direct, f) for f in fields], r.graph6()


def test_survey_pool_matches_serial():
    """The --jobs pool path gives the serial survey's records, witnesses'
    tags included."""
    def rows(survey):
        return [
            (r.graph6(), r.bracket.lower, r.bracket.upper,
             r.bracket.lower_witness["tag"], r.bracket.upper_witness["tag"])
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
