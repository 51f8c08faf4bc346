import functools
import hashlib
import random
import subprocess
import sys
import time

import pytest

from graphentropy import bounds, enumeration, lp
from graphentropy.bounds import entropy_bracket
from graphentropy.enumeration import (
    bracket_with_fallback,
    canonical_form,
    collapsed_values,
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
    adjacency_bits,
    bits_of,
    connected_components,
    induced_subgraph,
    mask_of,
    parse_graph,
    render_graph,
)
from graphentropy.rationals import rat

from _oracles import (
    disjoint_union,
    labeled_class_count,
    least_adjacency_bits,
)
from conftest import c5, g1, random_graph
from test_cli import child_env

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


# sha256 of the graph6 strings of isomorphism_classes(n) for n = 0 to 8, one
# line each: which relabelling represents each class, and the order of the
# classes, reach the output of survey and verify.
CLASSES_SHA256 = "99e6bd270076e659c088508f9d8747ff58cbfa0dae1420108023a2569e05cdb7"


@functools.lru_cache(maxsize=None)
def _class_of_key(n: int) -> dict[int, Graph]:
    """The class representatives on n vertices keyed by least_adjacency_bits,
    which isomorphic graphs, and only they, share."""
    return {least_adjacency_bits(g): g for g in isomorphism_classes(n)}


def test_classes_pinned():
    """Up to 6 vertices no two representatives are isomorphic, and the
    graph6 listing up to 8 vertices is pinned."""
    for n in range(7):
        assert len(_class_of_key(n)) == len(isomorphism_classes(n)), n
    lines = [render_graph(g, "graph6") + "\n" for n in range(9) for g in isomorphism_classes(n)]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == CLASSES_SHA256


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.undirected(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_form_is_the_class_representative():
    """Every augmentation of a class, up to 6 vertices, has the
    representative of its own class as canonical form; up to 7 vertices it
    has some representative with its degrees.  Seeded random graphs on 8 to
    10 vertices get a canonical form with their degrees, and a random
    relabelling of each gets the same one."""
    rng = random.Random(14)
    graphs = []
    for n in range(1, 8):
        for base in isomorphism_classes(n - 1):
            for attach in range(1 << (n - 1)):
                rows = [r | (attach >> v & 1) << (n - 1) for v, r in enumerate(base.rows)]
                graphs.append(Graph(n, rows + [attach], directed=False))
    graphs += [random_graph(rng, n, p) for n in (8, 9, 10) for p in (0.2, 0.5, 0.8)
               for _ in range(10)]
    classes = set(isomorphism_classes(7))
    for g in graphs:
        form = canonical_form(g)
        g6 = render_graph(g, "graph6")
        assert sorted(r.bit_count() for r in form.rows) == sorted(r.bit_count() for r in g.rows), g6
        if g.n <= 6:
            assert form == _class_of_key(g.n)[least_adjacency_bits(g)], g6
        elif g.n == 7:
            assert form in classes, g6
        else:
            assert canonical_form(_relabelled(g, rng)) == form, g6


def test_twin_pruning_keeps_the_canonical_bits():
    """Every class up to 7 vertices under three seeded relabellings: the
    search that skips twins returns the bits of the class's canonical
    representative."""
    rng = random.Random(25)
    for n in range(1, 8):
        for g in isomorphism_classes(n):
            for _ in range(3):
                rows = _relabelled(g, rng).rows
                colors = enumeration._refined_colors(rows)
                assert (enumeration._canonical_search(rows, colors)
                        == adjacency_bits(g)), render_graph(g, "graph6")


@pytest.mark.parametrize("g", [Graph.complete(10), Graph.empty(10)], ids=["K10", "empty10"])
def test_canonical_form_of_all_twins_is_fast(g):
    """All vertices of K10 and of its complement are twins, so the search is
    one path; without twin pruning each took about 15 s."""
    started = time.perf_counter()
    assert canonical_form(g) == g
    elapsed = time.perf_counter() - started
    assert elapsed < 1, f"took {elapsed:.1f}s"


def test_canonical_form_bits_are_the_search_minimum():
    """canonical_form decodes the least bit-string through the shared
    graph6 bit order, so encoding it again gives the search's minimum."""
    for n in range(7):
        for g in isomorphism_classes(n):
            bits = enumeration._canonical_search(g.rows, enumeration._refined_colors(g.rows))
            assert adjacency_bits(canonical_form(g)) == bits, render_graph(g, "graph6")


def test_canonical_searches_per_class(monkeypatch):
    """Maximum degree and top colour leave about one canonical search per
    class: at most 1,300 for the 1,252 classes on 1 to 7 vertices, where
    orbit pruning alone ran 5,759.  The degree test runs before the orbit
    search, so of the 11,291 attachment masks only the 3,132 it passes are
    sorted into orbits."""
    searches = []
    real_search = enumeration._canonical_search
    sorted_masks = []
    real_orbits = enumeration.orbit_representatives

    def counting_search(*args):
        searches.append(1)
        return real_search(*args)

    def counting_orbits(gens, masks):
        masks = list(masks)
        sorted_masks.append(len(masks))
        return real_orbits(gens, masks)

    monkeypatch.setattr(enumeration, "_canonical_search", counting_search)
    monkeypatch.setattr(enumeration, "orbit_representatives", counting_orbits)
    enumeration._classes_cached.cache_clear()
    assert sum(len(isomorphism_classes(n)) for n in range(1, 8)) == 1252
    assert len(searches) <= 1300, len(searches)
    assert sum(sorted_masks) == 3132, sum(sorted_masks)


def test_parent_records_delete_to_the_parent():
    """Each class up to 7 vertices records the class it was enumerated from
    and the position of the added vertex: the class less that vertex has
    the parent as its canonical form."""
    for n in range(1, 8):
        classes, parents, vertices = enumeration._classes_cached(n)
        assert len(parents) == len(vertices) == len(classes), n
        bases = isomorphism_classes(n - 1)
        for g, parent, v in zip(classes, parents, vertices):
            less = induced_subgraph(g, g.vertex_mask & ~(1 << v))[0]
            assert canonical_form(less) == bases[parent], render_graph(g, "graph6")


def test_components_of_canonical_classes_are_canonical():
    """The survey looks a component up as it stands: every component of
    every disconnected class up to 7 vertices, induced and densely
    relabelled, is its own canonical form and one of the connected classes
    (614 components in all)."""
    connected = {g for n in range(1, 8) for g in isomorphism_classes(n)
                 if len(connected_components(g)) == 1}
    components = 0
    for n in range(2, 8):
        for g in isomorphism_classes(n):
            comps = connected_components(g)
            if len(comps) == 1:
                continue
            for c in comps:
                part = induced_subgraph(g, c)[0]
                assert part == canonical_form(part), render_graph(g, "graph6")
                assert part in connected, render_graph(g, "graph6")
                components += 1
    assert components == 614, components


def test_survey_runs_no_canonical_search(monkeypatch):
    """Once the classes are cached, the survey makes no canonical search."""
    for n in range(1, 7):
        isomorphism_classes(n)
    searches = []
    real_search = enumeration._canonical_search

    def counting_search(*args):
        searches.append(1)
        return real_search(*args)

    monkeypatch.setattr(enumeration, "_canonical_search", counting_search)
    records = survey_entropy_values(6)
    assert len(records) == 208
    assert any(not connected for _, _, connected in records)
    assert searches == []


def test_survey_closes_brackets_from_the_parent(monkeypatch):
    """Up to 7 vertices, 21 of the 37 connected classes whose combinatorial
    bracket is open are closed by their augmentation parent, so the survey
    solves 16 entropy LPs.  Each closed class gets the value the eager
    bracket's LP gives, theta is None, and the witness nests the upper
    witness of the class less the named vertex."""
    calls = []
    real = bounds.shannon_entropy
    monkeypatch.setattr(bounds, "shannon_entropy",
                        lambda *args: calls.append(1) or real(*args))
    records = survey_entropy_values(7)
    monkeypatch.undo()
    assert len(calls) == 16
    by_graph = {g: report for g, report, _ in records}
    closed = [(g, report) for g, report, _ in records
              if report.upper_witness["tag"] == "vertex-deletion"]
    assert len(closed) == 21
    for g, report in closed:
        g6 = render_graph(g, "graph6")
        eager = entropy_bracket(g)
        assert report.exact and eager.exact, g6
        assert report.lower == eager.lower, g6
        assert report.theta is None, g6
        witness = report.upper_witness
        less = canonical_form(induced_subgraph(g, g.vertex_mask & ~(1 << witness["vertex"]))[0])
        assert witness["inner"] == by_graph[less].upper_witness, g6
        assert by_graph[less].upper + 1 == report.upper, g6


def test_connected_filter():
    sixes = enumerate_graphs(4, connected_only=True)
    by_n = {}
    for g in sixes:
        by_n.setdefault(g.n, []).append(g)
    assert [len(by_n[n]) for n in range(1, 5)] == [1, 1, 2, 6]


def test_representatives_are_canonical_and_distinct():
    for n in range(1, 6):
        reps = isomorphism_classes(n)
        keys = {canonical_form(g) for g in reps}
        assert len(keys) == len(reps)
        for g in reps:
            assert canonical_form(g) == g


def test_canonical_form_permutation_invariant():
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(100):
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.undirected(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_form(g) == canonical_form(h)


def test_canonical_graph6_values():
    assert render_graph(canonical_form(c5()), "graph6") == "DLo"
    assert render_graph(canonical_form(g1()), "graph6") == "FFHKW"
    assert canonical_form(c5()) == parse_graph("DLo", "graph6")


def test_canonical_respects_isomorphism_oracle():
    rng = random.Random(11)
    seen = {}
    for _ in range(60):
        g = random_graph(rng, 4)
        key = least_adjacency_bits(g)
        form = canonical_form(g)
        if key in seen:
            assert seen[key] == form
        seen[key] = form


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
    records = survey_entropy_values(5)
    assert len(records) == 1 + 2 + 4 + 11 + 34
    assert all(report.exact for _, report, _ in records)
    low = [v for v in collapsed_values(records) if v <= 3]
    assert low == [rat(0), rat(1), rat(2), rat("5/2"), rat(3)]
    empty = [report for g, report, _ in records if g.n == 1]
    assert empty[0].lower == 0


def test_survey_connected_only():
    records = survey_entropy_values(4, connected_only=True)
    assert len(records) == 1 + 1 + 2 + 6
    assert all(connected for _, _, connected in records)


def test_survey_connected_flags():
    """Each triple's connected flag says whether its graph is connected."""
    for g, _, connected in survey_entropy_values(6):
        assert connected == (len(connected_components(g)) == 1), render_graph(g, "graph6")


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
    assert len(survey_entropy_values(3, cap=3)) == 1 + 2 + 4
    assert survey_entropy_values(8, cap=8) == []
    assert seen == [(3, 3), (8, 8)]
    with pytest.raises(CapExceededError):
        survey_entropy_values(8)
    assert seen[2:] == [(8, enumeration.DEFAULT_ENUM_CAP)]


def test_survey_union_witnesses_use_record_labelling():
    """A disconnected record's witnesses list the components of its own
    graph, and its bracket and bound values are the ones that graph gets
    directly."""
    fields = ("lower", "upper", "nu", "cc", "kappa_f", "tau", "theta")
    records = [(g, report) for g, report, connected in survey_entropy_values(6)
               if not connected]
    assert len(records) == sum(KNOWN_CLASS_COUNTS[:6]) - sum(KNOWN_CONNECTED_COUNTS[:6])
    for g, report in records:
        g6 = render_graph(g, "graph6")
        comps = [list(bits_of(c)) for c in connected_components(g)]
        direct = entropy_bracket(g, lazy_theta=True)
        for witness in (report.lower_witness, report.upper_witness):
            assert witness["tag"] == "union-additivity", g6
            assert witness["components"] == comps, g6
        got = [getattr(report, f) for f in fields]
        assert got == [getattr(direct, f) for f in fields], g6


def test_survey_pool_matches_serial():
    """The --jobs pool path gives the serial survey's records, witnesses'
    tags included."""
    def rows(records):
        return [
            (render_graph(g, "graph6"), report.lower, report.upper,
             report.lower_witness["tag"], report.upper_witness["tag"])
            for g, report, _ in records
        ]

    serial = rows(survey_entropy_values(6, jobs=1))
    assert len(serial) == sum(KNOWN_CLASS_COUNTS[:6])
    assert rows(survey_entropy_values(6, jobs=2)) == serial


def test_survey_pool_leaves_numpy_to_the_workers():
    """The serial 7-vertex survey imports numpy for its LPs; with a pool
    every LP runs in a worker, so the process that made the pool never
    imports numpy and each worker's BLAS thread setting takes effect."""
    script = ("import sys\n"
              "from graphentropy.enumeration import survey_entropy_values\n"
              "survey_entropy_values(7, jobs=int(sys.argv[1]))\n"
              "print('numpy' in sys.modules)\n")
    imported = [subprocess.run([sys.executable, "-c", script, jobs], env=child_env(), check=True,
                               capture_output=True, text=True, timeout=120).stdout.strip()
                for jobs in ("1", "2")]
    assert imported == ["True", "False"]


def test_pentagon_apex_masks():
    lonely = pentagon_apex(0)
    assert lonely.n == 6
    assert len(lonely.edges()) == 5
    assert len(pentagon_apex(mask_of([0, 1, 2])).edges()) == 8


def test_wheel_lemma_all_32_cases():
    report = verify_wheel_lemma()
    assert report["ok"]
    cases = {tuple(entry["apex_neighbors"]): entry for entry in report["cases"]}
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
    assert report["ok"]
    first = report["cases"][0]
    assert first["lower"] == rat("11/3")
    assert first["fractional_cover"] == rat("10/3")
    assert "10/13" in first["cross_check"]
    rest = report["cases"][1:]
    assert len(rest) == 5
    assert all(entry["lower"] == rat("7/2") for entry in rest)
    assert least_adjacency_bits(g_family()[0]) == least_adjacency_bits(g1())


def test_small_theorem_suite():
    details = verify_small_theorems()
    assert details["ok"]
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
    assert verify_small_theorems()["ok"]
    assert len(runs) <= 74, len(runs)
