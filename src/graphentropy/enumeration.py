"""Isomorph-free enumeration of small graphs and the verification suites.

Provides a canonical form (lexicographically least adjacency bit-string,
found with colour-refinement pruning), a vertex-augmentation enumerator for
simple graphs up to seven vertices, a whole-landscape entropy survey,
and the three verification suites the survey supports: the six-vertex
pentagon-plus-apex trichotomy, the seven-vertex family with values 11/3 and
7/2, and the classification of collapsed entropy values below four.
"""

from __future__ import annotations

from functools import lru_cache
from multiprocessing import Pool

from .bounds import EntropyBracket, bounds_report, entropy_bracket, union_bracket
from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    automorphisms,
    bits_of,
    connected_components,
    disjoint_union,
    orbit_representatives,
    render_graph,
)
from .rationals import rat
from .structure import apply_decomposition, find_reducible_set

DEFAULT_ENUM_CAP = 7

# Simple-graph isomorphism classes by vertex count, total and connected.
KNOWN_CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
KNOWN_CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)


class CanonicalForm:
    """Permutation-invariant fingerprint of a simple graph.

    bits packs the upper triangle of the adjacency matrix column by column,
    pair (i, j) with i < j ordered by (j, i), most significant bit first; the
    stored value is the least over all vertex relabelings, so two graphs get
    equal forms exactly when they are isomorphic.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        self.n = n
        self.bits = bits

    def key(self) -> tuple[int, int]:
        return (self.n, self.bits)

    def graph(self) -> Graph:
        """The canonical representative itself."""
        n = self.n
        rows = [0] * n
        pos = n * (n - 1) // 2
        for j in range(n):
            for i in range(j):
                pos -= 1
                if self.bits >> pos & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return Graph(n, rows, directed=False)

    def graph6(self) -> str:
        return render_graph(self.graph(), "graph6")

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonicalForm) and self.key() == other.key()

    def __lt__(self, other) -> bool:
        return self.key() < other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"CanonicalForm(n={self.n}, bits={self.bits:b})"


def _refined_colors(g: Graph) -> list[int]:
    """Stable vertex colouring: degree, refined by neighbour colour multisets."""
    colors = [g.rows[v].bit_count() for v in range(g.n)]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in bits_of(g.rows[v]))))
            for v in range(g.n)
        ]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [relabel[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_form(g: Graph) -> CanonicalForm:
    """Least adjacency bit-string over all relabelings of a simple graph.

    Vertices are first split by refined colour; target positions follow the
    colour order, and the search only permutes vertices inside their own
    colour class, with prefix pruning against the best string so far.  The
    minimum over that restricted set equals the global minimum because
    colours are isomorphism-invariant.
    """
    if not g.is_simple():
        raise GraphError("canonical forms are defined for loopless undirected graphs")
    n = g.n
    if n == 0:
        return CanonicalForm(0, 0)
    colors = _refined_colors(g)
    slot_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    total_bits = n * (n - 1) // 2
    best: int | None = None
    placed = [0] * n
    rows = g.rows

    def extend(depth: int, prefix: int, width: int, used: int) -> None:
        nonlocal best
        if depth == n:
            if best is None or prefix < best:
                best = prefix
            return
        col_bits = depth
        for v in by_color[slot_color[depth]]:
            bit = 1 << v
            if used & bit:
                continue
            chunk = 0
            row = rows[v]
            for i in range(depth):
                chunk = chunk << 1 | (row >> placed[i] & 1)
            new_prefix = prefix << col_bits | chunk
            new_width = width + col_bits
            if best is not None and new_prefix > best >> (total_bits - new_width):
                continue
            placed[depth] = v
            extend(depth + 1, new_prefix, new_width, used | bit)

    extend(0, 0, 0, 0)
    assert best is not None
    return CanonicalForm(n, best)


def isomorphism_classes(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices, one canonical representative each.

    Grown by vertex augmentation: every class on n vertices arises from some
    class on n - 1 by attaching a new vertex, so augmenting every smaller
    representative by every attachment set and deduplicating covers them all.
    Attachment sets in one orbit of the smaller representative's
    automorphism group give isomorphic graphs, so only the least set of
    each orbit, read off the group's strong generators, is tried (McKay,
    Isomorph-free exhaustive generation, 1998).
    Results are sorted by canonical bits and returned as the canonical
    representatives themselves, so the pruning changes no output.
    """
    return _classes_cached(n)


@lru_cache(maxsize=None)
def _classes_cached(n: int) -> tuple[Graph, ...]:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n == 0:
        return (Graph.empty(0),)
    seen: dict[tuple[int, int], CanonicalForm] = {}
    for base in _classes_cached(n - 1):
        rep = orbit_representatives(automorphisms(base), range(1 << (n - 1)))
        for attach in range(1 << (n - 1)):
            if rep[attach] != attach:
                continue
            rows = [r | (attach >> v & 1) << (n - 1) for v, r in enumerate(base.rows)]
            rows.append(attach)
            form = canonical_form(Graph(n, rows, directed=False))
            seen.setdefault(form.key(), form)
    return tuple(seen[k].graph() for k in sorted(seen))


def enumerate_graphs(n_max: int, connected_only: bool = False, cap: int = DEFAULT_ENUM_CAP):
    """Yield one representative per isomorphism class, sizes 1 through n_max.

    Ascending by size, then by canonical bits.  connected_only filters to
    connected classes.
    """
    if n_max > cap:
        raise CapExceededError(f"enumeration of {n_max}-vertex graphs exceeds the cap {cap}")
    for n in range(1, n_max + 1):
        for g in isomorphism_classes(n):
            if connected_only and len(connected_components(g)) > 1:
                continue
            yield g


# -- survey -----------------------------------------------------------------------


def bracket_with_fallback(g: Graph) -> EntropyBracket:
    """Entropy bracket that tries a decomposition when the bounds stay apart.

    The transversal-lazy bracket is computed first; if it fails to collapse,
    a reducible set (when one exists) rewrites the graph as |S| plus a
    smaller remainder, and the two brackets are intersected.
    """
    bracket = entropy_bracket(g, lazy_theta=True)
    if bracket.exact or not g.is_simple():
        return bracket
    d = find_reducible_set(g, cap=max(g.n, 16))
    if d is None:
        return bracket
    inner = bracket_with_fallback(d.remainder)
    shifted = apply_decomposition(g, d, inner)
    lower, low_wit = max(
        (bracket.lower, bracket.lower_witness), (shifted.lower, shifted.lower_witness),
        key=lambda t: t[0],
    )
    upper, up_wit = min(
        (bracket.upper, bracket.upper_witness), (shifted.upper, shifted.upper_witness),
        key=lambda t: t[0],
    )
    return EntropyBracket(lower, upper, low_wit, up_wit)


def _triangle_bits(g: Graph) -> int:
    """Upper-triangle bit-string of g as labelled, in canonical_form's order."""
    bits = 0
    for j in range(g.n):
        for i in range(j):
            bits = bits << 1 | (g.rows[i] >> j & 1)
    return bits


class SurveyRecord:
    """One isomorphism class with its certified bracket.

    graph is the canonical representative.  For composed (disconnected)
    classes the bracket's witnesses describe the component-by-component
    labelling the union was built in, not the canonical relabelling; the
    values are labelling-independent.
    """

    __slots__ = ("graph", "bracket", "connected")

    def __init__(self, graph: Graph, bracket: EntropyBracket, connected: bool):
        self.graph = graph
        self.bracket = bracket
        self.connected = connected

    @property
    def exact(self) -> bool:
        return self.bracket.exact

    def graph6(self) -> str:
        return render_graph(self.graph, "graph6")

    def __repr__(self) -> str:
        return f"SurveyRecord({self.graph6()}, {self.bracket})"


class ValueSurvey:
    """Entropy landscape over every simple graph up to n_max vertices.

    records covers one entry per isomorphism class (canonical representative,
    bracket, connectivity flag); values collects the distinct collapsed
    values; unresolved lists the records whose brackets stayed open.
    """

    __slots__ = ("n_max", "records", "values", "unresolved")

    def __init__(self, n_max: int, records: list[SurveyRecord]):
        self.n_max = n_max
        self.records = records
        self.values = sorted({r.bracket.lower for r in records if r.exact})
        self.unresolved = [r for r in records if not r.exact]

    def values_up_to(self, bound) -> list:
        limit = rat(bound)
        return [v for v in self.values if v <= limit]

    def connected_with_value(self, value) -> list[SurveyRecord]:
        want = rat(value)
        return [
            r for r in self.records
            if r.connected and r.exact and r.bracket.lower == want
        ]

    def __repr__(self) -> str:
        return f"ValueSurvey(n_max={self.n_max}, classes={len(self.records)})"


def survey_entropy_values(
    n_max: int,
    jobs: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
    connected_only: bool = False,
) -> ValueSurvey:
    """Bracket every isomorphism class on up to n_max vertices.

    Every run recomputes and rechecks every value.  Connected classes are
    solved directly (in parallel when jobs > 1); disconnected classes are
    assembled as multisets of connected parts, with brackets added
    componentwise, so no LP ever runs twice for the same connected graph.
    connected_only skips the assembly and reports just the connected
    landscape.
    """
    if n_max > cap:
        raise CapExceededError(f"survey of {n_max}-vertex graphs exceeds the cap {cap}")
    connected = list(enumerate_graphs(n_max, connected_only=True, cap=cap))
    parts = list(zip(connected, _solve_brackets(connected, jobs)))
    records = [SurveyRecord(g, bracket, connected=True) for g, bracket in parts]
    chosen: list[int] = []

    def compose() -> None:
        graphs = [parts[i][0] for i in chosen]
        union = graphs[0]
        for extra in graphs[1:]:
            union = disjoint_union(union, extra)
        offset = 0
        comps = []
        for g in graphs:
            comps.append(list(range(offset, offset + g.n)))
            offset += g.n
        bracket = union_bracket(comps, [parts[i][1] for i in chosen])
        records.append(SurveyRecord(canonical_form(union).graph(), bracket, connected=False))

    def multisets(start: int, budget: int) -> None:
        if len(chosen) >= 2:
            compose()
        for i in range(start, len(parts)):
            size = parts[i][0].n
            if size > budget:
                continue
            chosen.append(i)
            multisets(i, budget - size)
            chosen.pop()

    if not connected_only:
        multisets(0, n_max)
    # Record graphs are canonical representatives, so their own triangle
    # bits are already the canonical key; no second search needed.
    records.sort(key=lambda r: (r.graph.n, _triangle_bits(r.graph)))
    return ValueSurvey(n_max, records)


def _solve_brackets(graphs: list[Graph], jobs: int) -> list[EntropyBracket]:
    if jobs <= 1 or len(graphs) < 2:
        return [bracket_with_fallback(g) for g in graphs]
    with Pool(jobs) as pool:
        return list(pool.imap(bracket_with_fallback, graphs, chunksize=8))


# -- verification suites -------------------------------------------------------------


def pentagon_apex(mask: int) -> Graph:
    """The 6-vertex graph: a 5-cycle plus one extra vertex joined to mask."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(v, 5) for v in bits_of(mask)]
    return Graph.undirected(6, edges)


def _has_consecutive_triple(mask: int) -> bool:
    return any(all(mask >> ((i + d) % 5) & 1 for d in range(3)) for i in range(5))


class SuiteReport:
    """Outcome of one verification suite: pass flag plus itemized evidence."""

    __slots__ = ("suite", "ok", "details")

    def __init__(self, suite: str, ok: bool, details: dict):
        self.suite = suite
        self.ok = ok
        self.details = details

    def as_dict(self) -> dict:
        return {"suite": self.suite, "ok": self.ok, **self.details}

    def __repr__(self) -> str:
        return f"SuiteReport({self.suite}, ok={self.ok})"


def verify_wheel_lemma() -> SuiteReport:
    """Check the apex trichotomy over all 32 attachments into the 5-cycle.

    An isolated apex keeps the pentagon's 5/2; an apex seeing three
    consecutive cycle vertices forces 7/2; every other attachment gives
    exactly 3.  Each case is certified by a collapsed bracket.

    The bracket is the transversal-lazy one: the subset-entropy LP is
    skipped only where the transversal already meets the lower bound, and
    then theta >= entropy >= lower = tau, so the LP could change neither
    side nor its witness.
    """
    entries = []
    failures = []
    open_brackets = []
    for mask in range(32):
        g = pentagon_apex(mask)
        if mask == 0:
            expected = rat("5/2")
        elif _has_consecutive_triple(mask):
            expected = rat("7/2")
        else:
            expected = rat(3)
        bracket = entropy_bracket(g, lazy_theta=True)
        ok = bracket.exact and bracket.lower == expected
        entry = {
            "apex_neighbors": sorted(bits_of(mask)),
            "expected": expected,
            "lower": bracket.lower,
            "upper": bracket.upper,
            "ok": ok,
        }
        entries.append(entry)
        if not bracket.exact:
            open_brackets.append(entry)
        if not ok:
            failures.append(entry)
    return SuiteReport(
        "wheel",
        not failures,
        {"cases": entries, "failures": failures, "open_brackets": open_brackets},
    )


def g_family() -> tuple[Graph, ...]:
    """The six 7-vertex graphs: a pentagon v0..v4 plus adjacent v5, v6.

    The first has entropy 11/3; the other five have 7/2.  Edge lists are
    frozen here and everything about them is recomputed from scratch.
    """
    pentagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)]
    extras = [
        [(5, 0), (5, 1), (6, 3)],
        [(5, 0), (5, 2), (6, 1)],
        [(5, 0), (5, 2), (6, 3)],
        [(5, 0), (5, 2), (6, 1), (6, 3)],
        [(5, 0), (6, 1)],
        [(5, 0), (6, 2)],
    ]
    return tuple(Graph.undirected(7, pentagon + extra) for extra in extras)


def verify_g_family() -> SuiteReport:
    """Certify the seven-vertex family: 11/3 once, then 7/2 five times.

    The first graph's lower bound must come from the fractional clique cover
    (computed exactly as 10/3, which 7 - 11/3 cross-checks; no integral cover
    reaches it) and its upper bound from the subset-entropy LP.
    """
    graphs = g_family()
    entries = []
    failures = []
    report = bounds_report(graphs[0])
    first, kappa_f = report.bracket, report.kappa_f
    ok_first = (
        first.exact
        and first.lower == rat("11/3")
        and first.lower_witness[0] == "fractional-clique-cover"
        and first.upper_witness[0] == "shannon-lp"
        and kappa_f == rat("10/3")
    )
    entry = {
        "graph": "first",
        "expected": rat("11/3"),
        "lower": first.lower,
        "upper": first.upper,
        "lower_witness": first.lower_witness[0],
        "upper_witness": first.upper_witness[0],
        "fractional_cover": kappa_f,
        "cross_check": "cover weights total 10/3 = 7 - 11/3; the sometimes-seen "
                       "value 10/13 is inconsistent with those weights",
        "ok": ok_first,
    }
    entries.append(entry)
    if not ok_first:
        failures.append(entry)
    for idx, g in enumerate(graphs[1:], start=2):
        bracket = entropy_bracket(g)
        ok = bracket.exact and bracket.lower == rat("7/2")
        entry = {
            "graph": f"variant {idx}",
            "expected": rat("7/2"),
            "lower": bracket.lower,
            "upper": bracket.upper,
            "ok": ok,
        }
        entries.append(entry)
        if not ok:
            failures.append(entry)
    return SuiteReport("gfamily", not failures, {"cases": entries, "failures": failures})


def verify_small_theorems(jobs: int = 1) -> SuiteReport:
    """Check the collapsed-value landscape on up to seven vertices.

    No collapsed value may fall strictly inside (1,2), (2,5/2) or (5/2,3);
    collapsed values inside (3,4) must be 7/2 or 11/3; the only connected
    graph collapsing to 5/2 is the pentagon and the only one collapsing to
    11/3 is the first graph of g_family().
    """
    survey = survey_entropy_values(7, jobs=jobs)
    gaps = [(rat(1), rat(2)), (rat(2), rat("5/2")), (rat("5/2"), rat(3))]
    counterexamples = []
    bad_window = []
    for r in survey.records:
        if not r.exact:
            continue
        v = r.bracket.lower
        if any(lo < v < hi for lo, hi in gaps):
            counterexamples.append({"graph6": r.graph6(), "value": v})
        if rat(3) < v < rat(4) and v not in (rat("7/2"), rat("11/3")):
            bad_window.append({"graph6": r.graph6(), "value": v})
    pentagon = canonical_form(Graph.cycle(5))
    first_family = canonical_form(g_family()[0])
    half_wits = [canonical_form(r.graph) for r in survey.connected_with_value(rat("5/2"))]
    third_wits = [canonical_form(r.graph) for r in survey.connected_with_value(rat("11/3"))]
    ok = (
        not counterexamples
        and not bad_window
        and half_wits == [pentagon]
        and third_wits == [first_family]
    )
    details = {
        "classes": len(survey.records),
        "collapsed_values": survey.values_up_to(4),
        "gap_counterexamples": counterexamples,
        "window_violations": bad_window,
        "connected_5/2_witnesses": [c.graph6() for c in half_wits],
        "connected_11/3_witnesses": [c.graph6() for c in third_wits],
        "unresolved": [
            {"graph6": r.graph6(), "lower": r.bracket.lower, "upper": r.bracket.upper}
            for r in survey.unresolved
        ],
    }
    return SuiteReport("theorem2", ok, details)
